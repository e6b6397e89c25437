"""Rotationally invariant limit-cycle generators for a spin 1.

A limit cycle is specified by a detuning (the free rotation, written in the
frame of the synchronizing signal) plus a set of dissipative coupling
operators with rates.  Rotational invariance about S_z restricts each coupling
operator to a single diagonal of the matrix basis: entry (i, j) lies in
coherence sector k = j - i, i.e. k = m - n for the S_z eigenvalues m, n.
Operators mixing sectors would imprint a phase on the relaxation and are
rejected.

The generator is the sum of rate * D[O] over the dissipators minus
i delta [S_z, .], acting on column-stacked matrices: entry (i, j) of a 3x3
matrix sits at position i + 3 j of the length-9 vector.  It block-diagonalizes
over sectors: a real block on the populations (k = 0) and square complex
blocks on the coherence sectors k = +1, +2, with the k < 0 blocks the complex
conjugates of their mirrors.  :func:`build_liouvillian` evaluates that sum,
from the Kronecker products' own entries, at the population and k = 1, 2
positions only; the blocks are linear in the rates, and the detuning only adds
-i k delta to the diagonal of block k.  So rates and detuning may be arrays
that broadcast against each other, and one build gives the blocks of every
cell of that stack.  Every use of the generator reads these blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidValueError, SpinsyncError


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
#: sector j - i of each matrix entry (i, j)
_SECTOR_OF_ENTRY = np.arange(3)[None, :] - np.arange(3)[:, None]


# The matrix entries (i, j) of the populations and of the k = 1, 2 slots, side
# by side: the sector blocks are the diagonal blocks [0:3], [3:5] and [5:6] of
# the generator on the vec positions i + 3 j of these entries.
_I, _J = np.transpose(((0, 0), (1, 1), (2, 2)) + SECTOR_SLOTS[1] + SECTOR_SLOTS[2])
_SECTORS = _J - _I
# A Kronecker product of 3x3 factors takes its entry at vec positions (p, q)
# from a[j_p, j_q] and b[i_p, i_q]: flat gathers from each factor.
_LEFT, _RIGHT = 3 * _J[:, None] + _J, 3 * _I[:, None] + _I


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a 3x3 matrix into a length-9 vector (a stack of shape
    (..., 3, 3) into one of shape (..., 9))."""
    mat = np.asarray(mat, dtype=complex)
    return np.swapaxes(mat, -1, -2).reshape(mat.shape[:-2] + (9,))


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex)
    return np.swapaxes(v.reshape(v.shape[:-1] + (3, 3)), -1, -2)


def _float_or_array(value):
    """A float for a scalar, else a float array: scalar calls return floats."""
    value = np.asarray(value, dtype=float)
    return float(value) if value.ndim == 0 else value


#: the most failing cells an error message names one by one
_NAMED_CELLS = 5

#: the smallest positive rate: the smallest normal double
_SMALLEST_RATE = float(np.finfo(float).tiny)
#: a generator whose entries are bounded below this cannot overflow
_SAFE_BOUND = 2.0**1020


def _largest(value) -> float:
    """The largest modulus of a float or of a float array."""
    return abs(value) if isinstance(value, float) else float(np.abs(value).max())


def _where(bad: np.ndarray, values=None, index: str = "stack index") -> str:
    """The ``values`` that failed a check (mask ``bad``) and, for a stack, the
    row-major ``index`` of the failing cells: the rows of a ``sync`` table.
    Past :data:`_NAMED_CELLS` cells, the first of them and the count."""
    count = int(np.count_nonzero(bad))

    def listed(items: np.ndarray) -> str:
        if count <= _NAMED_CELLS:
            return str(items.tolist())
        return str(items[:_NAMED_CELLS].tolist())[:-1] + ", ...]"

    text = ""
    if values is not None:
        text = f", got {listed(np.broadcast_to(values, bad.shape)[bad])}"
    if bad.ndim:
        text += f" at {index} {listed(np.flatnonzero(bad))}"
    if count > _NAMED_CELLS:
        text += f" ({count} cells)"
    return text


@dataclass(frozen=True, eq=False)
class LimitCycleSpec:
    """Dissipator list with rates plus the detuning of the rotating frame.
    Rates and detuning are floats, or float arrays that broadcast against each
    other: a stack of cycles of shape :attr:`shape`.  Specs compare and hash
    by identity, since their fields hold arrays."""

    dissipators: tuple[tuple[np.ndarray, float], ...]
    detuning: float = 0.0

    def __post_init__(self):
        rates = tuple((op, _float_or_array(rate)) for op, rate in self.dissipators)
        object.__setattr__(self, "dissipators", rates)
        object.__setattr__(self, "detuning", _float_or_array(self.detuning))

    def with_detuning(self, detuning) -> "LimitCycleSpec":
        return replace(self, detuning=detuning)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """Broadcast shape of the rates and the detuning; () for one cycle."""
        shapes = [np.shape(rate) for _, rate in self.dissipators]
        try:
            return np.broadcast_shapes(np.shape(self.detuning), *shapes)
        except ValueError as err:
            raise InvalidValueError(f"rates and detuning: {err}") from None


def require_single(spec: LimitCycleSpec, caller: str) -> None:
    """Raise :class:`InvalidValueError` unless ``spec`` is a single cycle."""
    if spec.shape:
        raise InvalidValueError(f"{caller} takes one limit cycle, not {spec.shape}")


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Limit-cycle generator as its sector blocks.

    ``diag_block`` is the real 3x3 block on the populations; ``sector_blocks``
    maps k in {1, 2} to the block acting on the coherence slots of that
    sector, ordered as in ``SECTOR_SLOTS`` (k = 1 acts on
    (rho_{1,0}, rho_{0,-1}), k = 2 on rho_{1,-1}).  Negative sectors are the
    complex conjugates, and no entry couples two sectors.  For a stacked spec
    every block carries the stack shape in front, e.g. ``diag_block`` has
    shape ``spec.shape + (3, 3)``.  Generators compare and hash by identity,
    as their specs do.
    """

    spec: LimitCycleSpec
    diag_block: np.ndarray
    sector_blocks: dict[int, np.ndarray]


def sector_of(op: np.ndarray, rel_tol: float = 1e-14) -> int:
    """Coherence sector of a single-diagonal operator.

    Raises :class:`MixedSectorError` if nonzero entries (relative to the
    largest) occupy two or more diagonals, and ``ValueError`` for the zero
    matrix or a non-finite entry.
    """
    return _sector_and_scale(op, rel_tol)[0]


def _sector_and_scale(op: np.ndarray, rel_tol: float = 1e-14) -> tuple[int, float]:
    """:func:`sector_of` and the largest modulus of an entry of ``op``."""
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
    return int(lo), scale


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of ``a`` and ``b`` on the block positions: the
    products a[r, c] b[s, t] it is made of."""
    return a.take(_LEFT) * b.take(_RIGHT)


def _dissipator(op: np.ndarray) -> np.ndarray:
    """D[O] = kron(O*, O) - kron(I, O^dag O) / 2 - kron((O^dag O)^T, I) / 2 on
    the block positions."""
    op = np.asarray(op, dtype=complex)
    odo = op.conj().T @ op
    return _kron(op.conj(), op) - 0.5 * _kron(_EYE, odo) - 0.5 * _kron(odo.T, _EYE)


def _generator(spec: LimitCycleSpec) -> np.ndarray:
    """The generator, the sum of rate * D[O] over the dissipators minus
    i delta [S_z, .], on the block positions and stacked over ``spec.shape``:
    the detuning adds -i k delta on the diagonal at each sector-k position."""
    gen = np.zeros(spec.shape + 2 * _SECTORS.shape, dtype=complex)
    for op, rate in spec.dissipators:
        # a zero rate adds zeros, so each cell sums as if built alone
        gen += np.multiply.outer(rate, _dissipator(op))
    for d in np.flatnonzero(_SECTORS):
        gen[..., d, d].imag -= _SECTORS[d] * spec.detuning
    return gen


def build_liouvillian(spec: LimitCycleSpec) -> Liouvillian:
    """The sector blocks of the generator, stacked over ``spec.shape``: slices
    of the generator on the population and sector k = 1, 2 positions.  Every
    entry is summed as in the sum of rate * D[O] Kronecker terms over the
    whole 9x9 and as in the build of that cell alone.

    Validates the spec: every dissipator must have a single well-defined
    sector (:class:`MixedSectorError` otherwise) and finite nonnegative
    rates, with at least one rate positive in every cell, and the detuning
    must be finite.  A positive rate must be a normal double, at least
    ``np.finfo(float).tiny``: the sector solves divide each block row by
    its largest entry, which overflows at a subnormal rate.  The generator
    must be finite, which bounds the rates and the detuning from above.  A
    failure in a stack names the failing cells.
    """
    positive = np.zeros(spec.shape, dtype=bool)
    # a bound on the modulus of every entry of the generator, from
    # |D[O]| <= 4 max|O|^2 and |k delta| <= 2 |delta|
    bound = 0.0
    for op, rate in spec.dissipators:
        bad = ~(np.isfinite(rate) & ((rate >= _SMALLEST_RATE) | (rate == 0.0)))
        if bad.any():
            subnormal = np.greater(rate, 0.0) & np.less(rate, _SMALLEST_RATE)
            if (bad & ~subnormal).any():
                where = _where(bad & ~subnormal, rate)
                raise InvalidValueError("rates must be finite and >= 0" + where)
            raise InvalidValueError(
                f"a positive rate must be at least {_SMALLEST_RATE!r}, the smallest "
                "normal double" + _where(subnormal, rate)
            )
        scale = _sector_and_scale(op)[1]
        positive |= rate > 0.0
        bound += 4.0 * scale * scale * _largest(rate)
    if not positive.all():
        raise InvalidValueError("limit cycle needs a positive rate" + _where(~positive))
    bad = ~np.isfinite(spec.detuning)
    if bad.any():
        raise InvalidValueError("detuning must be finite" + _where(bad, spec.detuning))
    bound += 2.0 * _largest(spec.detuning)
    if bound < _SAFE_BOUND:
        gen = _generator(spec)
    else:
        # some entry may overflow: build without warnings, then name the
        # cells that did (ufuncs run slower under np.errstate, so the usual
        # build stays outside it)
        with np.errstate(over="ignore", invalid="ignore"):
            gen = _generator(spec)
        bad = ~np.isfinite(gen).all(axis=(-2, -1))
        if bad.any():
            raise InvalidValueError(
                "rates or detuning too large: the generator overflows" + _where(bad)
            )
    return Liouvillian(
        spec=spec,
        diag_block=gen[..., :3, :3].real.copy(),
        sector_blocks={1: gen[..., 3:5, 3:5].copy(), 2: gen[..., 5:, 5:].copy()},
    )


def _populations(liou: Liouvillian) -> np.ndarray:
    """Populations of the target state, shape (..., 3); see :func:`steady_state`."""
    a = np.moveaxis(liou.diag_block, (-2, -1), (0, 1))  # a[i, j] over the stack
    # the trees are homogeneous in the rates: dividing each cell by the power
    # of two of its largest entry is exact and keeps their products in range
    a = np.ldexp(a, -np.frexp(np.abs(a).max(axis=(0, 1)))[1])
    trees = np.array(
        [
            a[i, j] * a[i, k] + a[i, j] * a[j, k] + a[i, k] * a[k, j]
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ]
    )
    total = trees.sum(axis=0)
    bad = ~(total > 0.0)
    if bad.any():
        raise DegenerateLimitCycleError(
            "population dynamics does not single out a unique target state"
            + _where(bad)
        )
    return np.moveaxis(trees / total, 0, -1)


def _target_state(pops: np.ndarray) -> np.ndarray:
    """The diagonal density matrices of populations of shape (..., 3)."""
    return (pops[..., None] * np.eye(3)).astype(complex)


def steady_state(liou: Liouvillian) -> np.ndarray:
    """Diagonal target state of the limit cycle (stacked for a stacked spec).

    The population block is a classical rate matrix.  By the Markov-chain
    tree theorem (Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)) each
    population is proportional to the sum, over the spanning trees directed
    into that state, of the products of their transfer rates.  All terms are
    nonnegative, so the populations keep full relative accuracy at any ratio
    of rates.  Each cell's block is first divided by the power of two of its
    largest entry, which is exact, so the products see the ratios of the
    rates and not their size.  A zero total (no state reachable from all
    others) raises :class:`DegenerateLimitCycleError`, naming the failing
    cells of a stack.
    """
    return _target_state(_populations(liou))
