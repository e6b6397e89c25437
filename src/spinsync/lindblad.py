"""Rotationally invariant limit-cycle generators for a spin 1.

A limit cycle is specified by a detuning (the free rotation, written in the
frame of the synchronizing signal) plus a set of dissipative coupling
operators with rates.  Rotational invariance about S_z restricts each coupling
operator to a single diagonal of the matrix basis: entry (i, j) lies in
coherence sector k = j - i, i.e. k = m - n for the S_z eigenvalues m, n.
Operators mixing sectors would imprint a phase on the relaxation and are
rejected.

The generator then block-diagonalizes over sectors: a real block on the
populations (k = 0) and square complex blocks on the coherence sectors
k = +1, +2, with the k < 0 blocks the complex conjugates of their mirrors.
:func:`build_liouvillian` assembles these blocks directly from each
dissipator's diagonal, and the detuning only adds -i k delta to the diagonal
of block k (:func:`detuned_blocks`).  The 9x9 generator on column-stacked
matrices, where entry (i, j) of a 3x3 matrix sits at position i + 3 j of
the length-9 vector, is built from Kronecker products only when
``Liouvillian.full`` is first read: by the exact driven steady state and by
:func:`apply_liouvillian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidValueError, SpinsyncError
from .spin import SZ


class MixedSectorError(SpinsyncError):
    """Coupling operator has entries on more than one diagonal."""


class DegenerateLimitCycleError(SpinsyncError):
    """Population dynamics does not single out a unique target state."""


#: matrix slots of each coherence sector, k = m - n
SECTOR_SLOTS = {
    1: ((0, 1), (1, 2)),
    2: ((0, 2),),
    -1: ((1, 0), (2, 1)),
    -2: ((2, 0),),
}

_EYE = np.eye(3, dtype=complex)

# The populations and the k = 1, 2 slots side by side: the sector blocks are
# the diagonal blocks [0:3], [3:5] and [5:6] of one 6x6 matrix on these slots.
_UPPER_SLOTS = ((0, 0), (1, 1), (2, 2)) + SECTOR_SLOTS[1] + SECTOR_SLOTS[2]
_SLOT_ROW = np.array([i for i, _ in _UPPER_SLOTS])
_SLOT_COL = np.array([j for _, j in _UPPER_SLOTS])
_SLOT_DIAG = np.arange(len(_UPPER_SLOTS))


def _jump_table(s: int):
    """Where the jump term O rho O^dag of an operator on diagonal s acts:
    slot (i + s, j + s) feeds slot (i, j) with weight O[i, i+s] conj(O[j, j+s]).
    Returns the target and source slot positions and the operator entries of
    both factors."""
    hits = [
        (tgt, _UPPER_SLOTS.index((i + s, j + s)), i, j)
        for tgt, (i, j) in enumerate(_UPPER_SLOTS)
        if 0 <= i + s < 3 and 0 <= j + s < 3
    ]
    tgt, src, i, j = (np.array(col) for col in zip(*hits))
    return tgt, src, (j, j + s), (i, i + s)


_JUMPS = {s: _jump_table(s) for s in range(-2, 3)}
#: sector j - i of each matrix entry (i, j)
_SECTOR_OF_ENTRY = np.arange(3)[None, :] - np.arange(3)[:, None]


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a 3x3 matrix into a length-9 vector."""
    return np.asarray(mat, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(3, 3, order="F")


@dataclass(frozen=True)
class LimitCycleSpec:
    """Dissipator list with rates plus the detuning of the rotating frame."""

    dissipators: tuple[tuple[np.ndarray, float], ...]
    detuning: float = 0.0

    def with_detuning(self, detuning: float) -> "LimitCycleSpec":
        return replace(self, detuning=float(detuning))


@dataclass(frozen=True)
class Liouvillian:
    """Limit-cycle generator with its sector decomposition.

    ``diag_block`` is the real 3x3 block on the populations; ``sector_blocks``
    maps k in {1, 2} to the block acting on the coherence slots of that
    sector, ordered as in ``SECTOR_SLOTS`` (k = 1 acts on
    (rho_{1,0}, rho_{0,-1}), k = 2 on rho_{1,-1}).  Negative sectors are the
    complex conjugates.  ``relaxation_blocks`` are the same sector blocks at
    zero detuning, from which :func:`detuned_blocks` gives them at any other.

    The blocks are assembled directly from the dissipators (see
    :func:`build_liouvillian`).  ``full``, the 9x9 generator acting on
    column-stacked 3x3 matrices, is built from ``spec`` by Kronecker products
    on first access; only the exact driven steady state and
    :func:`apply_liouvillian` need it.
    """

    spec: LimitCycleSpec
    diag_block: np.ndarray
    sector_blocks: dict[int, np.ndarray]
    relaxation_blocks: dict[int, np.ndarray]

    @cached_property
    def full(self) -> np.ndarray:
        """The 9x9 generator, from Kronecker products on first access."""
        full = np.zeros((9, 9), dtype=complex)
        for op, rate in self.spec.dissipators:
            if float(rate) > 0.0:
                full += float(rate) * dissipator_superop(op)
        if self.spec.detuning != 0.0:
            full += self.spec.detuning * hamiltonian_superop(SZ)
        return full


def sector_of(op: np.ndarray, rel_tol: float = 1e-14) -> int:
    """Coherence sector of a single-diagonal operator.

    Raises :class:`MixedSectorError` if nonzero entries (relative to the
    largest) occupy two or more diagonals, and ``ValueError`` for the zero
    matrix or a non-finite entry.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (3, 3):
        raise InvalidValueError(f"expected a 3x3 operator, got shape {op.shape}")
    mag = np.abs(op)
    scale = float(mag.max())
    if not math.isfinite(scale):
        raise InvalidValueError("operator entries must be finite")
    if scale == 0.0:
        raise InvalidValueError("zero operator has no sector")
    sectors = _SECTOR_OF_ENTRY[mag > rel_tol * scale]
    lo, hi = sectors.min(), sectors.max()
    if lo != hi:
        raise MixedSectorError(
            f"operator occupies sectors {np.unique(sectors).tolist()}; a "
            "limit-cycle dissipator must live on a single diagonal"
        )
    return int(lo)


def dissipator_apply(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[O] rho = O rho O^dag - (1/2){O^dag O, rho}."""
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    odo = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (odo @ rho + rho @ odo)


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[H, .] under column stacking."""
    h = np.asarray(h, dtype=complex)
    return -1j * (np.kron(_EYE, h) - np.kron(h.T, _EYE))


def dissipator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator of D[O] under column stacking."""
    op = np.asarray(op, dtype=complex)
    odo = op.conj().T @ op
    return (
        np.kron(op.conj(), op)
        - 0.5 * np.kron(_EYE, odo)
        - 0.5 * np.kron(odo.T, _EYE)
    )


def build_liouvillian(spec: LimitCycleSpec) -> Liouvillian:
    """Assemble the sector blocks of the generator.

    A dissipator O on diagonal s feeds slot (i, j) from slot (i + s, j + s)
    with weight rate O[i, i+s] conj(O[j, j+s]) and takes
    rate (d_i + d_j) / 2 off every slot, d = diag(O^dag O); the detuning adds
    -i k delta on the diagonal of sector block k.  Each entry is summed in
    the same order as in the Kronecker build of ``full``, whose slices the
    blocks reproduce.

    Validates the spec: every dissipator must have a single well-defined
    sector (:class:`MixedSectorError` otherwise) and a finite nonnegative
    rate, with at least one rate positive, and the detuning must be finite.
    """
    if not spec.dissipators:
        raise InvalidValueError("limit cycle needs at least one dissipator")
    gen = np.zeros((6, 6), dtype=complex)
    any_positive = False
    for op, rate in spec.dissipators:
        rate = float(rate)
        if not (math.isfinite(rate) and rate >= 0.0):
            raise InvalidValueError(
                f"dissipator rate must be finite and >= 0, got {rate}"
            )
        tgt, src, a, b = _JUMPS[sector_of(op)]
        if rate > 0.0:
            any_positive = True
            op = np.asarray(op, dtype=complex)
            term = np.zeros((6, 6), dtype=complex)
            term[tgt, src] = op[a].conj() * op[b]
            half = 0.5 * (op.conj().T @ op).diagonal()
            term[_SLOT_DIAG, _SLOT_DIAG] = (
                term[_SLOT_DIAG, _SLOT_DIAG] - half[_SLOT_ROW]
            ) - half[_SLOT_COL]
            gen += rate * term
    if not any_positive:
        raise InvalidValueError("limit cycle needs at least one positive rate")
    relaxation = {1: gen[3:5, 3:5].copy(), 2: gen[5:, 5:].copy()}
    detuned = detuned_blocks(relaxation, [spec.detuning])
    return Liouvillian(
        spec=spec,
        diag_block=gen[:3, :3].real.copy(),
        sector_blocks={k: block[0] for k, block in detuned.items()},
        relaxation_blocks=relaxation,
    )


def detuned_blocks(
    relaxation_blocks: dict[int, np.ndarray], detunings
) -> dict[int, np.ndarray]:
    """Sector blocks at each of n detunings, stacked to shape (n, m, m).

    The detuning only shifts block k by -i k delta on its diagonal, so one
    build serves a whole detuning scan.  A non-finite detuning raises
    ``ValueError``.
    """
    detunings = np.asarray(detunings, dtype=float)
    bad = ~np.isfinite(detunings)
    if bad.any():
        raise InvalidValueError(
            f"detuning must be finite, got {detunings[bad].tolist()}"
        )
    out = {}
    for k, block in relaxation_blocks.items():
        m = len(block)
        stack = np.repeat(block[None], len(detunings), axis=0)
        # the diagonal of each m x m block is every (m + 1)-th entry
        stack.reshape(-1, m * m).imag[:, :: m + 1] -= k * detunings[:, None]
        out[k] = stack
    return out


def apply_liouvillian(liou: Liouvillian, rho: np.ndarray) -> np.ndarray:
    """Apply the full generator to a 3x3 matrix."""
    return unvec(liou.full @ vec(rho))


def sector_block(liou: Liouvillian, k: int) -> np.ndarray:
    """Block of the generator on the slots of sector k (k in +-1, +-2)."""
    block = liou.sector_blocks[abs(k)]
    return block if k > 0 else block.conj()


def steady_state(liou: Liouvillian) -> np.ndarray:
    """Diagonal target state of the limit cycle.

    The population block is a classical rate matrix.  By the Markov-chain
    tree theorem (Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)) each
    population is proportional to the sum, over the spanning trees directed
    into that state, of the products of their transfer rates.  All terms are
    nonnegative, so the populations keep full relative accuracy at any ratio
    of rates.  A zero total (no state reachable from all others) raises
    :class:`DegenerateLimitCycleError`.
    """
    a = liou.diag_block
    trees = np.array(
        [
            a[i, j] * a[i, k] + a[i, j] * a[j, k] + a[i, k] * a[k, j]
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ]
    )
    total = trees.sum()
    if not total > 0.0:
        raise DegenerateLimitCycleError(
            "population dynamics does not single out a unique target state"
        )
    return np.diag(trees / total).astype(complex)
