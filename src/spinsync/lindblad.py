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
Vectorization is column-stacking: entry (i, j) of a 3x3 matrix sits at
position i + 3 j of the length-9 vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spin import SZ


class MixedSectorError(ValueError):
    """Coupling operator has entries on more than one diagonal."""


class DegenerateLimitCycleError(ValueError):
    """Population dynamics does not single out a unique target state."""


#: matrix slots of each coherence sector, k = m - n
SECTOR_SLOTS = {
    1: ((0, 1), (1, 2)),
    2: ((0, 2),),
    -1: ((1, 0), (2, 1)),
    -2: ((2, 0),),
}

_EYE = np.eye(3, dtype=complex)


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a 3x3 matrix into a length-9 vector."""
    return np.asarray(mat, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(3, 3, order="F")


def _vec_index(i: int, j: int) -> int:
    return i + 3 * j


_POP_IDX = [_vec_index(i, i) for i in range(3)]
_SECTOR_IDX = {
    k: [_vec_index(i, j) for i, j in slots] for k, slots in SECTOR_SLOTS.items()
}


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

    ``full`` acts on column-stacked 3x3 matrices.  ``diag_block`` is the real
    3x3 block on the populations; ``sector_blocks`` maps k in {1, 2} to the
    block acting on the coherence slots of that sector, ordered as in
    ``SECTOR_SLOTS`` (k = 1 acts on (rho_{1,0}, rho_{0,-1}), k = 2 on
    rho_{1,-1}).  Negative sectors are the complex conjugates.
    """

    full: np.ndarray
    diag_block: np.ndarray
    sector_blocks: dict[int, np.ndarray]


def sector_of(op: np.ndarray, rel_tol: float = 1e-14) -> int:
    """Coherence sector of a single-diagonal operator.

    Raises :class:`MixedSectorError` if nonzero entries (relative to the
    largest) occupy two or more diagonals, and ``ValueError`` for the zero
    matrix.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (3, 3):
        raise ValueError(f"expected a 3x3 operator, got shape {op.shape}")
    scale = float(np.abs(op).max())
    if scale == 0.0:
        raise ValueError("zero operator has no sector")
    sectors = set()
    for i in range(3):
        for j in range(3):
            if abs(op[i, j]) > rel_tol * scale:
                sectors.add(j - i)
    if len(sectors) > 1:
        raise MixedSectorError(
            f"operator occupies sectors {sorted(sectors)}; a limit-cycle "
            "dissipator must live on a single diagonal"
        )
    return sectors.pop()


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
    """Assemble the generator and extract its sector blocks.

    Validates the spec: every dissipator must have a single well-defined
    sector (:class:`MixedSectorError` otherwise) and a finite nonnegative
    rate, with at least one rate positive, and the detuning must be finite.
    """
    if not spec.dissipators:
        raise ValueError("limit cycle needs at least one dissipator")
    if not math.isfinite(spec.detuning):
        raise ValueError(f"detuning must be finite, got {spec.detuning}")
    full = np.zeros((9, 9), dtype=complex)
    any_positive = False
    for op, rate in spec.dissipators:
        rate = float(rate)
        if not (math.isfinite(rate) and rate >= 0.0):
            raise ValueError(f"dissipator rate must be finite and >= 0, got {rate}")
        sector_of(op)
        if rate > 0.0:
            any_positive = True
            full += rate * dissipator_superop(op)
    if not any_positive:
        raise ValueError("limit cycle needs at least one positive rate")
    if spec.detuning != 0.0:
        full += spec.detuning * hamiltonian_superop(SZ)

    diag = full[np.ix_(_POP_IDX, _POP_IDX)]
    blocks = {
        k: full[np.ix_(_SECTOR_IDX[k], _SECTOR_IDX[k])] for k in (1, 2)
    }
    return Liouvillian(full=full, diag_block=diag.real.copy(), sector_blocks=blocks)


def apply_liouvillian(liou: Liouvillian, rho: np.ndarray) -> np.ndarray:
    """Apply the full generator to a 3x3 matrix."""
    return unvec(liou.full @ vec(rho))


def sector_block(liou: Liouvillian, k: int) -> np.ndarray:
    """Block of the full generator on the slots of sector k (k in +-1, +-2)."""
    return liou.full[np.ix_(_SECTOR_IDX[k], _SECTOR_IDX[k])]


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
