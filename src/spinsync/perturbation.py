"""Perturbative response of a limit cycle to a weak signal.

The stationary state is expanded in powers of the signal strength epsilon.
Order zero is the diagonal limit-cycle state; order one is strictly
off-diagonal and carries all synchronization features, obtained sector by
sector as rho1 = -(coherence block)^{-1} applied to the drive of the target
state.  The permitted strength follows from a fixed threshold eta on the
relative size of the correction,

    epsilon = eta * ||rho0|| / ||rho1||   (Hilbert-Schmidt norms),

and the synchronization measure is the peak of the shifted phase distribution
of rho1, scaled by that epsilon.  Higher orders and the exact stationary state
at finite epsilon are provided for forcing-regime studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidValueError, SpinsyncError
from .lindblad import (
    LimitCycleSpec,
    Liouvillian,
    _float_or_array,
    _populations,
    _target_state,
    _where,
    build_liouvillian,
    require_single,
    unvec,
    vec,
)
from .signals import SignalSpec, build_hext, require_finite
from .spin import (
    COS1_WEIGHT,
    COS2_WEIGHT,
    SQRT2,
    PhaseDistributionTerms,
    _max_shifted_phase,
    _phase_terms,
    _scalar_terms,
)


class SingularCoherenceBlockError(SpinsyncError):
    """A driven coherence sector is undamped; no synchronization regime exists."""


class ZeroResponseError(SpinsyncError):
    """The signal does not couple to the limit cycle at first order."""


class DegenerateSteadyStateError(SpinsyncError):
    """The driven generator has no unique stationary state."""


def hs_norm(op: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(Tr[O^dag O])."""
    return float(np.linalg.norm(op))


@dataclass(frozen=True)
class PerturbationResult:
    """Leading perturbative orders with the permitted signal strength."""

    rho0: np.ndarray
    rho1: np.ndarray
    epsilon: float
    eta: float
    norm0: float
    norm1: float


@dataclass(frozen=True)
class SyncResult:
    """Synchronization measure with the locked phase and signal strength."""

    value: float
    locked_phase: float
    terms: PhaseDistributionTerms
    epsilon: float
    eta: float
    zero_response: bool = False


def _refuse_undamped(singular: np.ndarray, sector: int, detuning) -> None:
    """Raise :class:`SingularCoherenceBlockError` if a block of coherence
    ``sector`` failed its rank test (mask ``singular``), naming the failing
    cells and their ``detuning``."""
    if singular.any():
        at = np.broadcast_to(detuning, singular.shape)[singular].tolist()
        raise SingularCoherenceBlockError(
            f"driven coherence sector {sector} has an (almost) undamped mode "
            f"at detuning {at}" + _where(singular)
        )


#: the signs of the adjugate [[d, -b], [-c, a]] of [[a, b], [c, d]]
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None]


def _solve_sector1(blocks: np.ndarray, scale: np.ndarray, detuning) -> np.ndarray:
    """B^-1 diag(scale) for a stack of k = 1 blocks B, shape (..., 2, 2), and
    real column scales of shape (..., 2), after a numerical-rank test of
    every block; a singular one is named by its cells and its ``detuning``.

    The rank test is LAPACK's: smallest singular value <= 2 u times the
    largest, of N = R^-1 B, every row divided by its largest modulus r, so it
    does not see how far apart the rates are: a block whose rows decay at 1
    and 1e300 passes, while a zero row (an undamped mode) stays zero and
    fails.  The solve is closed form and elementwise, in real arithmetic, so
    a cell rounds alike alone and in any stack:
    B^-1 diag(scale) = adj(N) diag(scale / r) / det N, with det N = +-p u22
    from one elimination step with partial pivoting (pivot p, the larger
    entry of N's first column).  Entries of N are at most 1 and a block that
    passes has |det N| = sigma_1 sigma_2 >= 2 u sigma_1^2, so no step under-
    or overflows.  Against an exact solve it is as accurate as LAPACK's solve
    on N: each column within 2 cond(N) u of its largest entry.
    """
    size = np.abs(blocks)
    rows = np.maximum(size[..., 0], size[..., 1])
    norm = blocks / np.where(rows > 0.0, rows, 1.0)[..., None]
    svals = np.linalg.svd(norm, compute_uv=False)
    singular = svals[..., 1] <= 2.0 * np.finfo(float).eps * svals[..., 0]
    _refuse_undamped(singular, 1, detuning)
    # the parts of N = [[a, b], [c, d]] over the cells: (a.r, a.i, b.r, b.i),
    # then (c.r, ..., d.i), shape (2, 4, cells)
    parts = norm.reshape(-1, 4).view(float).T.reshape(2, 4, -1)
    moduli = np.abs(norm).reshape(-1, 4)
    swap = moduli[:, 2] > moduli[:, 0]
    # the pivot row (p, pb) first: l = q / p, u22 = qb - l pb, det = +-p u22
    (pr, pi, pbr, pbi), (qr, qi, qbr, qbi) = np.where(swap, parts[::-1], parts)
    mod = pr * pr + pi * pi
    lr, li = (qr * pr + qi * pi) / mod, (qi * pr - qr * pi) / mod
    ur, ui = qbr - (lr * pbr - li * pbi), qbi - (lr * pbi + li * pbr)
    dr, di = pr * ur - pi * ui, pr * ui + pi * ur
    # 1 / det N = conj(det) / |det|^2, negated for a swap
    mod = dr * dr + di * di
    np.negative(mod, out=mod, where=swap)
    wr, wi = dr / mod, -di / mod
    # the adjugate's entries as [[d, -c], [-b, a]]: indexed (column, row, cell)
    flat = parts.reshape(8, -1)
    ar = flat[6::-2].reshape(2, 2, -1) * _ADJUGATE_SIGNS
    ai = flat[7::-2].reshape(2, 2, -1) * _ADJUGATE_SIGNS
    col = (scale / rows).reshape(-1, 2).T[:, None]
    out = np.empty((len(swap), 2, 2), dtype=complex)
    out.real = ((ar * wr - ai * wi) * col).T
    out.imag = ((ar * wi + ai * wr) * col).T
    return out.reshape(blocks.shape)


def _sector2_response(blocks: np.ndarray, pops: np.ndarray, detuning) -> np.ndarray:
    """map2 = 2i (p_-1 - p_+1) / b for the 1x1 k = 2 blocks b, shape
    (..., 1, 1), and the populations ``pops`` (..., 3): 0 where the extremal
    populations agree, and a zero block refused where they differ (the rank
    test of a row-normalized 1x1 block fails exactly there).  The quotient
    is taken as i conj(n) / |n|^2 times 2^-e, for n = 2^-e b scaled by the
    power of two of its larger part, which is exact and keeps every step
    in range."""
    gap = pops[..., 2] - pops[..., 0]
    block = np.where(gap != 0.0, blocks[..., 0, 0], 1.0)
    _refuse_undamped(block == 0.0, 2, detuning)
    shift = np.frexp(np.maximum(np.abs(block.real), np.abs(block.imag)))[1]
    nr, ni = np.ldexp(block.real, -shift), np.ldexp(block.imag, -shift)
    ratio = 2.0 * gap / (nr * nr + ni * ni)
    out = np.empty(gap.shape, dtype=complex)
    out.real, out.imag = np.ldexp(ratio * ni, -shift), np.ldexp(ratio * nr, -shift)
    return out


def _response_maps(liou: Liouvillian):
    """The first-order kernel of a built generator, stacked over the shape
    of its spec: the populations of rho0, shape (..., 3), and the maps from
    the tones to the first-order coherences (see :func:`coherence_response`),
    ``map1`` of shape (..., 2, 2) and ``map2`` of shape (...).

    The k = 1 block B solves B map1 = i sqrt(2) diag(p_0 - p_+1, p_-1 - p_0)
    and the k = 2 block b gives map2 = 2i (p_-1 - p_+1) / b.  One LAPACK call
    serves a whole stack: the SVD of the row-normalized k = 1 blocks, the
    rank test that refuses an undamped mode.  It stays because it is the
    tested decision; a closed form of the singular values cancels where
    they are close.  The solves are closed form (:func:`_solve_sector1`,
    :func:`_sector2_response`), and so is the k = 2 rank test, a zero block.
    """
    pops = _populations(liou)
    detuning = liou.spec.detuning
    map1 = 1j * _solve_sector1(liou.sector_blocks[1], SQRT2 * np.diff(pops), detuning)
    return pops, map1, _sector2_response(liou.sector_blocks[2], pops, detuning)


def _apply_maps(map1: np.ndarray, map2, signal: SignalSpec):
    """First-order coherences ``(r10, r0m1, r1m1)`` of the signal from the
    response maps.

    ``map1`` is 2x2 or a stack of shape (..., 2, 2) with ``map2`` of shape
    (...), and the tones of ``signal`` may be arrays that broadcast against
    that stack.
    """
    t01, tm10, tm11 = signal.t01, signal.tm10, signal.tm11
    # map2 * tm11 rounded as a scalar complex product, whether or not it is
    # stacked: numpy's array product fuses a multiply-add, which moves the
    # last digits of a small imaginary part
    r1m1 = (map2.real * tm11.real - map2.imag * tm11.imag) + 1j * (
        map2.real * tm11.imag + map2.imag * tm11.real
    )
    r10 = map1[..., 0, 0] * t01 + map1[..., 0, 1] * tm10
    r0m1 = map1[..., 1, 0] * t01 + map1[..., 1, 1] * tm10
    return r10, r0m1, r1m1


def _rho1(coherences) -> np.ndarray:
    """The Hermitian, strictly off-diagonal rho1 with the given coherences,
    stacked over their broadcast shape."""
    r10, r0m1, r1m1 = np.broadcast_arrays(*coherences)
    rho1 = np.zeros(r10.shape + (3, 3), dtype=complex)
    rho1[..., 0, 1], rho1[..., 1, 2], rho1[..., 0, 2] = r10, r0m1, r1m1
    return rho1 + np.swapaxes(rho1, -1, -2).conj()


def coherence_response(lc: LimitCycleSpec):
    """Linear maps from tone amplitudes to first-order coherences.

    Returns ``(rho0, map1, map2)`` where ``map1`` is the 2x2 complex matrix
    sending (t01, tm10) to (rho1_{1,0}, rho1_{0,-1}) and ``map2`` the scalar
    sending tm11 to rho1_{1,-1}.  The response is linear in the tones sector
    by sector and rho0 does not depend on the signal, so every first-order
    quantity of the package comes from these three objects, with one
    generator build per limit cycle.  For a stacked spec all three are
    stacked over its shape, ``map2`` as an array.
    """
    pops, map1, map2 = _response_maps(build_liouvillian(lc))
    return _target_state(pops), map1, complex(map2) if map2.ndim == 0 else map2


def _leading_orders(lc: LimitCycleSpec, signal: SignalSpec):
    """The populations of rho0 and the first-order coherences of the signal."""
    require_finite(signal)
    pops, map1, map2 = _response_maps(build_liouvillian(lc))
    return pops, _apply_maps(map1, map2, signal)


def first_order(lc: LimitCycleSpec, signal: SignalSpec) -> np.ndarray:
    """First-order correction rho1: strictly off-diagonal, Hermitian, traceless."""
    return _rho1(_leading_orders(lc, signal)[1])


def _scaled_norms(populations, coherences):
    """||rho0||, ||rho1|| / 2^e and e, for ``e`` the exponent of the largest
    modulus of the coherences ``(r10, r0m1, r1m1)``, which broadcast against
    each other (and the stack of the populations, of shape (..., 3))."""
    # ufuncs round a scalar as one cell of a stack, where builtin abs (hypot)
    # and ** (pow) on a scalar can differ in the last bit
    moduli = [np.abs(r) for r in coherences]
    # squared after an exact division by the power of two of the largest
    # modulus, so that no square under- or overflows
    exponent = np.frexp(np.maximum(np.maximum(*moduli[:2]), moduli[2]))[1]
    sq_10, sq_0m1, sq_1m1 = (np.square(np.ldexp(m, -exponent)) for m in moduli)
    norm1 = np.sqrt(2.0 * (sq_10 + sq_0m1 + sq_1m1))
    return np.sqrt(np.vecdot(populations, populations)), norm1, exponent


def sync_from_coherences(populations, coherences, eta: float = 0.1):
    """Measure assembled directly from first-order data, with the squeezing
    phase taken as aligned (both harmonics peaking together):
    eta ||rho0|| (C1 |r10 + r0m1| + C2 |r1m1|) / ||rho1||, zero when rho1
    vanishes.  The coherences (r10, r0m1, r1m1) broadcast against each other.
    """
    r_10, r_0m1, r_1m1 = coherences
    amp = COS1_WEIGHT * np.abs(r_10 + r_0m1) + COS2_WEIGHT * np.abs(r_1m1)
    # amp and ||rho1|| divided by the same power of two, which is exact, so
    # that the value does not vanish where only ||rho1|| overflows
    norm0, norm1, exponent = _scaled_norms(populations, coherences)
    amp = np.ldexp(amp, -exponent)
    # a vanishing rho1 has amp = 0, which an infinite norm maps to 0
    val = eta * norm0 * amp / np.where(norm1 > 0.0, norm1, np.inf)
    return _float_or_array(val)


def _strength(norm0: float, norm1, eta: float) -> np.ndarray:
    """Permitted strength eta * norm0 / norm1, broadcast over ``norm1``; inf
    where the first-order response vanishes."""
    zero = np.asarray(norm1) == 0.0
    inf = np.full(zero.shape, np.inf)
    return np.divide(eta * norm0, norm1, out=inf, where=~zero)


def _scaled_strength(norm0, norm1, exponent, eta: float):
    """The permitted strength from ||rho0||, ||rho1|| / 2^e and e (see
    :func:`_scaled_norms`), and that strength times 2^e, inf where rho1
    vanishes.  The strength is formed by an exact division by 2^e, so it
    is the quotient of the unscaled norms wherever that is a normal double,
    and it does not vanish where only ||rho1|| overflows."""
    scaled = _strength(norm0, norm1, float(eta))
    with np.errstate(over="ignore"):  # a subnormal rho1: the strength is inf
        return np.ldexp(scaled, -exponent), scaled


def epsilon_for_threshold(rho0: np.ndarray, rho1: np.ndarray, eta: float) -> float:
    """Permitted signal strength eta * ||rho0|| / ||rho1||.

    ||rho1|| is formed after an exact division of rho1 by the power of two
    of its largest part, as in :func:`sync_measure`, so that no square
    under- or overflows: the strength is inf where rho1 is subnormal and
    does not vanish where only ||rho1|| overflows.  Raises
    :class:`ZeroResponseError` when rho1 is zero, in which case the
    strength is unbounded and the caller decides.
    """
    parts = np.ascontiguousarray(rho1, dtype=complex).view(np.float64)
    largest = np.max(np.abs(parts), initial=0.0)
    if largest == 0.0:
        raise ZeroResponseError("signal does not couple at first order")
    exponent = np.frexp(largest)[1]
    norm1 = hs_norm(np.ldexp(parts, -exponent).view(complex))
    return float(_scaled_strength(hs_norm(rho0), norm1, exponent, eta)[0])


def perturbation_result(
    lc: LimitCycleSpec, signal: SignalSpec, eta: float = 0.1
) -> PerturbationResult:
    """Orders zero and one together with the permitted strength.

    Raises :class:`ZeroResponseError` when rho1 vanishes.  As in
    :func:`sync_measure`, epsilon overflows to inf where rho1 is subnormal,
    and ``norm1`` is inf where ||rho1|| overflows while epsilon stays
    finite."""
    require_single(lc, "perturbation_result")
    return _perturbation_result(*_leading_orders(lc, signal), eta)


def _perturbation_result(pops, coherences, eta: float) -> PerturbationResult:
    """:func:`perturbation_result` from the populations of rho0 and the
    coherences of rho1, with the norms and the strength the measure uses."""
    norm0, norm1, exponent = _scaled_norms(pops, coherences)
    if norm1 == 0.0:
        raise ZeroResponseError("signal does not couple at first order")
    eps = _scaled_strength(norm0, norm1, exponent, eta)[0]
    with np.errstate(over="ignore"):  # ||rho1|| beyond the largest double
        norm1 = np.ldexp(norm1, exponent)
    rho0, rho1 = _target_state(pops), _rho1(coherences)
    return PerturbationResult(
        rho0, rho1, float(eps), float(eta), float(norm0), float(norm1)
    )


def _peak_and_strength(populations, coherences, eta: float):
    """Terms, ``(peak, phi_star)`` and permitted strength (inf for a vanishing
    response) of the measure, with that strength formed from ||rho1|| / 2^e
    and e (see :func:`_scaled_norms`); see :func:`_measure`."""
    r10, r0m1, r1m1 = np.broadcast_arrays(*coherences)
    terms = _phase_terms(r10 + r0m1, r1m1)
    norm0, norm1, exponent = _scaled_norms(populations, (r10, r0m1, r1m1))
    eps, scaled = _scaled_strength(norm0, norm1, exponent, eta)
    peak = _max_shifted_phase(terms.amp1, terms.phase1, terms.amp2, terms.phase2)
    return terms, peak, eps, (scaled, exponent)


def _measure(populations, coherences, eta: float) -> SyncResult:
    """The measure on stacked first-order coherences ``(r10, r0m1, r1m1)``,
    which broadcast against each other, for the populations of rho0.

    Returns a :class:`SyncResult` whose fields, terms included, are arrays of
    the broadcast shape; see :func:`sync_measure`.  The value is the product
    of the peak and of the strength, both divided by the same power of two
    2^e.  That division is exact, so the value keeps its bits wherever the
    strength and ||rho1|| are normal doubles, and it stays finite and nonzero
    where only they under- or overflow (tones near the largest double, or a
    subnormal rho1, whose strength overflows to inf).
    """
    terms, (peak, phi), eps, (scaled, exponent) = _peak_and_strength(
        populations, coherences, eta
    )
    zero = np.isinf(scaled)  # rho1 vanishes
    value = np.multiply(
        scaled, np.ldexp(peak, -exponent), out=np.zeros(zero.shape), where=~zero
    )
    return SyncResult(value, np.where(zero, np.nan, phi), terms, eps, float(eta), zero)


def sync_measure(
    lc: LimitCycleSpec, signal: SignalSpec, eta: float = 0.1
) -> SyncResult:
    """Synchronization measure of the limit cycle under the given signal.

    The value is epsilon(eta) times the peak of the shifted phase
    distribution of rho1; it is invariant under rescaling the tones by any
    nonzero complex factor.  A signal that does not couple at first order is
    reported with value 0 and the ``zero_response`` flag set (epsilon is then
    unbounded and returned as inf).  Where rho1 is subnormal, epsilon
    overflows to inf as well, and the value stays finite with the flag
    unset.  A stacked spec or array-valued tones give the fields as arrays
    of their broadcast shape.
    """
    res = _measure(*_leading_orders(lc, signal), eta)
    if np.ndim(res.value):  # a stacked spec or signal: the fields are arrays
        return res
    value, phase, eps, zero = (
        x.item() for x in (res.value, res.locked_phase, res.epsilon, res.zero_response)
    )
    return SyncResult(value, phase, _scalar_terms(res.terms), eps, res.eta, zero)


def perturbative_orders(
    lc: LimitCycleSpec, signal: SignalSpec, kmax: int
) -> list[np.ndarray]:
    """Orders rho^(0) ... rho^(kmax) of the stationary-state expansion.

    Order one comes from the coherence sectors (see :func:`first_order`);
    each later one is rho_k = -(L0 - P)^-1 L_ext rho_(k-1), the traceless
    solution of L0 rho_k = -L_ext rho_(k-1), from one real 9x9 solve per
    cycle for that map on the coordinates of a Hermitian matrix (P of
    :func:`_anchored`, the real forms of :func:`_generator_form` and
    :func:`_signal_form`), made only when ``kmax`` >= 2.
    """
    if kmax < 0:
        raise InvalidValueError("kmax must be nonnegative")
    require_single(lc, "perturbative_orders")
    require_finite(signal)
    liou = build_liouvillian(lc)
    pops, map1, map2 = _response_maps(liou)
    orders = [_target_state(pops), _rho1(_apply_maps(map1, map2, signal))]
    if kmax >= 2:
        lext = _signal_form(build_hext(signal))
        step = -np.linalg.solve(_anchored(_generator_form(liou)), lext)
        x = _coordinates(orders[-1])
        for _ in range(2, kmax + 1):
            x = step @ x
            orders.append(_from_coordinates(x))
    return orders[: kmax + 1]


# The real coordinates of a Hermitian 3x3 matrix: its three populations, then
# the real and then the imaginary parts of rho_{1,0}, rho_{0,-1} and
# rho_{1,-1}.  These are the vec positions (entry (i, j) at i + 3 j) of the
# populations, of those three coherences and of their mirrors.
_DIAG, _UPPER, _LOWER = [0, 4, 8], [3, 7, 6], [1, 5, 2]
_TRACE_ROW = np.r_[1.0, 1.0, 1.0, np.zeros(6)]  # tr(X) from the coordinates of X
_ANCHOR = _TRACE_ROW / 3.0  # the coordinates of I/3
_PROJECTOR = np.outer(_ANCHOR, _TRACE_ROW)  # P = vec(I/3) tr(.)
#: dtype of the driven state's residual sum where it is wider than double
_EXTENDED = np.longdouble


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """The real coordinates of a Hermitian matrix, or of a stack of shape
    (..., 3, 3) as shape (..., 9)."""
    v = vec(rho)[..., _DIAG + _UPPER]
    return np.concatenate([v.real, v[..., 3:].imag], axis=-1)


def _from_coordinates(x: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrices with real coordinates ``x``, of shape
    (..., 9)."""
    v = np.zeros(x.shape, dtype=complex)
    v.real[..., _DIAG] = x[..., :3]
    v.real[..., _UPPER] = v.real[..., _LOWER] = x[..., 3:6]
    v.imag[..., _UPPER] = x[..., 6:]
    v.imag[..., _LOWER] = -x[..., 6:]
    return unvec(v)


#: the Hermitian matrix X_c of each unit coordinate c, shape (9, 3, 3)
_BASIS = _from_coordinates(np.eye(9))
#: the real form of -i[X_a, .] (see :func:`_signal_form`) of each unit
#: coordinate a, flattened to row a: each entry is 0, +-1 or +-2
_COMMUTATOR_TABLE = np.swapaxes(
    _coordinates(-1j * (_BASIS[:, None] @ _BASIS - _BASIS @ _BASIS[:, None])), 1, 2
).reshape(9, 81)


def _generator_form(liou: Liouvillian) -> np.ndarray:
    """The generator L0 as the real 9x9 matrix that acts on the coordinates
    of a Hermitian matrix: [[D, 0, 0], [0, Br, -Bi], [0, Bi, Br]], for D the
    population block and B = Br + i Bi the k = 1 and k = 2 blocks, set
    block-diagonally on (rho_{1,0}, rho_{0,-1}, rho_{1,-1}).  Each entry is
    a block entry, its real or imaginary part, or the negative of one, so
    the form is exact."""
    blocks = np.zeros(liou.spec.shape + (3, 3), dtype=complex)
    blocks[..., :2, :2] = liou.sector_blocks[1]
    blocks[..., 2:, 2:] = liou.sector_blocks[2]
    gen = np.zeros(liou.spec.shape + (9, 9))
    gen[..., :3, :3] = liou.diag_block
    gen[..., 3:6, 3:6] = gen[..., 6:, 6:] = blocks.real
    gen[..., 3:6, 6:] = -blocks.imag
    gen[..., 6:, 3:6] = blocks.imag
    return gen


def _signal_form(h: np.ndarray) -> np.ndarray:
    """-i[h, .] as the real 9x9 matrix that acts on coordinates: column c
    holds the coordinates of -i[h, X_c].  It is linear in h, so it is the
    coordinates of a Hermitian h contracted with the forms of the unit
    coordinates (``_COMMUTATOR_TABLE``).  Each entry of -i[h, X_c] is a
    coordinate of h times 0, +-1 or +-2, or the difference of two diagonal
    entries of h, so each entry of the product is one such term or one
    rounded difference of two: the form is exact where h is strictly
    off-diagonal, as :func:`build_hext` makes it, and equals -i[h, X_c]
    formed directly bit for bit up to the sign of a zero.  A form that
    overflows raises :class:`InvalidValueError` naming the tones, where
    build_hext puts them, whose entries of h overflow when doubled."""
    with np.errstate(over="ignore"):
        form = (_coordinates(h) @ _COMMUTATOR_TABLE).reshape(9, 9)
        if np.isfinite(form).all():
            return form
        tones = 2.0 * h[[0, 1, 0], [1, 2, 2]]
    big = [name for name, tone in zip(("t01", "tm10", "tm11"), tones)
           if not np.isfinite(tone)]
    raise InvalidValueError(
        f"signal tones overflow the driven generator: {', '.join(big)}"
    )


def _anchored(gen: np.ndarray) -> np.ndarray:
    """L - P from the real form ``gen`` of a generator L (see
    :func:`_generator_form`), P = vec(I/3) tr(.): for a trace-preserving L,
    L - P is nonsingular exactly when L has a unique stationary state x, and
    (L - P) x = -vec(I/3); on traceless input (L - P)^-1 inverts L.  Any
    trace-one anchor would do, and I/3 needs no target state."""
    return gen - _PROJECTOR


def _inverses(stack: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices, nan for an exactly singular one and
    for one that overflowed."""
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        return np.full_like(stack, np.nan) if stack.ndim == 2 else np.array(
            [_inverses(m) for m in stack]
        )
    inv[~np.isfinite(inv).all(axis=(-2, -1))] = np.nan
    return inv


def full_steady_state(lc: LimitCycleSpec, signal: SignalSpec, epsilon) -> np.ndarray:
    """Exact stationary state of the driven generator at finite epsilon.

    ``epsilon`` is a strength (one 3x3 state) or an array of strengths (the
    states stacked over its shape).  The state is Hermitian and every
    generator keeps matrices Hermitian, so the solve runs on the nine real
    coordinates of a Hermitian matrix (the populations and the real and
    imaginary parts of the three upper coherences), where L0 and L_ext are
    the real 9x9 matrices of :func:`_generator_form` and :func:`_signal_form`.
    With the anchor P of :func:`_anchored`, each state solves
    (L0 + eps L_ext - P) x = -vec(I/3): one stacked real 9x9 inverse, then
    one refinement step.  Its residual is summed from L0, L_ext and the
    anchor in ``np.longdouble`` where that type is wider than double
    (x86-64), and error-free in plain double elsewhere (macOS on arm64,
    Windows; :func:`_compensated_residual`).  That solve is
    :func:`_driven_coordinates`, which returns the coordinates x.  The
    forcing figures read their populations from x
    (:func:`_population_shifts`), so only this function builds 3x3 states
    from x, exactly Hermitian.  On one x86-64 core a curve takes about
    0.46 ms on fig8app's 121 strengths with the extended sum and 0.65 ms with
    the error-free one (fig3a's 150: 0.53 and 0.75 ms), with the generator's
    forms built once per cycle.  All n inverses are held at once: stack one
    forcing curve per call.

    Accuracy, on the catalog cycles at rate ratios 1e-6 to 1e100 and
    strengths 1e-4 to 1e4 against a high-precision solve: within 1e-14 on
    either path.

    Degeneracy: a strength whose Skeel condition number
    cond = || |A^-1| (|A| |x| + |b|) ||_inf / ||x||_inf, for A = L - P and
    b = -vec(I/3) in coordinates, reaches 0.1 / u (u the machine epsilon:
    less than one digit left; Skeel, J. ACM 26, 494 (1979)), or whose L - P
    is exactly singular, raises :class:`DegenerateSteadyStateError` naming
    every such strength and its stack index.  cond is componentwise, so it
    does not change when a row of the system is rescaled, and a fast rate
    does not make a well-posed state look degenerate; |A| |x| is bounded by
    |L0 - P| |x| + eps |L_ext| |x|.  The product is formed on copies scaled
    by powers of two, so it does not overflow, and an inverse that overflows
    counts as singular.  A real 9x9 SVD of the flagged strengths alone names a
    degenerate kernel (second-smallest singular value <= 1e-10 times the
    largest) first, then a traceless stationary direction, else (a generator
    that does not preserve the trace) a degenerate kernel.  A strength or
    tone that is not finite raises :class:`InvalidValueError`.
    """
    cycle = _cycle_forms(build_liouvillian(lc))
    return _from_coordinates(_driven_coordinates(cycle, build_hext(signal), epsilon))


class _CycleForms(NamedTuple):
    """What the forcing curves of one cycle share in the driven solve: the
    real form ``gen`` of L0 (:func:`_generator_form`), ``anchored`` = L0 - P
    (:func:`_anchored`) and its entrywise modulus ``size``, a factor of the
    Skeel bound."""

    gen: np.ndarray
    anchored: np.ndarray
    size: np.ndarray


def _cycle_forms(liou: Liouvillian) -> _CycleForms:
    """The :class:`_CycleForms` of a built generator of one cycle."""
    require_single(liou.spec, "the exact driven steady state")
    gen = _generator_form(liou)
    anchored = _anchored(gen)
    return _CycleForms(gen, anchored, np.abs(anchored))


def _driven_coordinates(cycle: _CycleForms, h: np.ndarray, epsilon) -> np.ndarray:
    """The coordinates, shape (..., 9) over the shape of ``epsilon``, of the
    exact driven states of :func:`full_steady_state`, for the forms
    ``cycle`` of :func:`_cycle_forms` and the signal Hamiltonian ``h``."""
    eps = np.asarray(epsilon, dtype=float)
    bad = ~np.isfinite(eps)
    if bad.any():
        raise InvalidValueError("epsilon must be finite" + _where(bad, eps))
    if not np.isfinite(h).all():  # name the tones, where build_hext puts them
        require_finite(SignalSpec(h[0, 1], h[1, 2], h[0, 2]))
    flat = eps.reshape(-1)
    l0, l1 = cycle.gen, _signal_form(h)
    inv = _inverses(cycle.anchored + flat[:, None, None] * l1)
    x = -(inv @ _ANCHOR)
    bad = ~_well_posed(inv, cycle.size, np.abs(l1), flat, x).reshape(eps.shape)
    if bad.any():
        svals, vt = np.linalg.svd(l0 + flat[bad.reshape(-1), None, None] * l1)[1:]
        kernel, traceless = np.zeros_like(bad), np.zeros_like(bad)
        kernel[bad] = svals[:, -2] <= 1e-10 * svals[:, 0]
        rho = _from_coordinates(vt[:, -1])
        traceless[bad] = np.abs(vt[:, -1] @ _TRACE_ROW) < 1e-8 * np.linalg.norm(
            rho, axis=(-2, -1)
        )
        mask = kernel if kernel.any() else traceless if traceless.any() else bad
        what = ("stationary direction is traceless" if mask is traceless
                else "driven generator has a degenerate kernel")
        raise DegenerateSteadyStateError(f"{what} at epsilon" + _where(mask, eps))
    if np.finfo(_EXTENDED).eps < np.finfo(float).eps:
        # -vec(I/3) - (L - P) x in extended precision; np.dot, as numpy's
        # matmul loop on that type takes about twice as long
        ext = x.astype(_EXTENDED)
        resid = _ANCHOR * (np.dot(ext, _TRACE_ROW) - 1.0)[:, None] - np.dot(ext, l0.T)
        resid -= np.dot(flat[:, None] * ext, l1.T)
        resid = resid.astype(float)
    else:
        resid = _compensated_residual(x, l0, l1, flat)
    x = x + (inv @ resid[..., None])[..., 0]
    return x.reshape(eps.shape + (9,))


def _well_posed(inv, size0, size1, eps, x) -> np.ndarray:
    """Where Skeel's cond of the anchored systems, of inverses ``inv`` and
    solutions ``x``, stays below 0.1 / u; false for an exactly singular (nan)
    one.  ``size0`` and ``size1`` are |L0 - P| and |L_ext|.  cond ||x||_inf
    is |A^-1| (|A| |x| + |b|), with |b| = vec(I/3).  |x| and then the two
    factors of that product are each divided by the power of two of their
    largest entry, and the limit with them: that is exact, and it keeps
    every product in range.
    """
    size = np.abs(x)
    shift = np.frexp(size.max(axis=-1))[1]
    size = np.ldexp(size, -shift[:, None])
    bound = size @ size0.T + eps[:, None] * (size @ size1.T)
    bound += np.ldexp(_ANCHOR, -shift[:, None])
    mag = np.abs(inv)
    inv_shift = np.frexp(mag.max(axis=(-2, -1)))[1]
    bound_shift = np.frexp(bound.max(axis=-1))[1]
    np.ldexp(mag, -inv_shift[:, None, None], out=mag)
    skeel = (mag @ np.ldexp(bound, -bound_shift[:, None])[..., None]).max(axis=(-2, -1))
    limit = 0.1 / np.finfo(float).eps * size.max(axis=-1)
    return skeel < np.ldexp(limit, -(inv_shift + bound_shift))


def _split(a):
    """Veltkamp's split of doubles into 26- and 27-bit halves, a = hi + lo;
    moduli from 2^996 up are split at 2^-64 times their size, so that
    (2^27 + 1) a stays finite."""
    scale = np.where(np.abs(a) < 2.0**996, 1.0, 2.0**-64)
    c = 134217729.0 * (a * scale)  # 2^27 + 1
    hi = (c - (c - a * scale)) / scale
    return hi, a - hi


def _two_sum(a, b):
    """Knuth's error-free sum: a + b = s + e exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """Dekker's error-free product: a * b = p + e exactly."""
    p = a * b
    return p, _product_error(p, *_split(a), *_split(b))


def _product_error(p, ah, al, bh, bl):
    """a * b - p for p = fl(a * b), from the splits of a and b."""
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _compensated_residual(x, l0, l1, eps) -> np.ndarray:
    """-vec(I/3) - (L0 + eps L1 - P) x in real coordinates, for a stack x
    (n, 9) and the real forms ``l0`` and ``l1`` (:func:`_generator_form`,
    :func:`_signal_form`), every product and sum error-free and only the sum
    of their errors rounded (Dot2 of Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26, 1955 (2005), its sums taken pairwise): as accurate as a sum
    in twice the working precision.

    The residual is M z, M = [-L0 | P | -L1 | -vec(I/3)] and
    z = (x, x, eps x, 1); eps x = y + dy exactly, and -L1 dy, of the order
    of the errors, is summed with them.  Only the nonzero entries of each
    row of M take part, zero-padded to a common count."""
    m = np.concatenate([-l0, _PROJECTOR, -l1, -_ANCHOR[:, None]], axis=-1)
    # column k of the padded rows: (w, 9) entries and their indices into z
    nonzero = m != 0
    cols = np.argsort(~nonzero, axis=-1, kind="stable").T
    cols = cols[: nonzero.sum(axis=-1).max()]
    m = np.take_along_axis(m, cols.T, axis=-1).T[..., None]
    xs = x.T  # (9, n)
    y, dy = _two_prod(eps, xs)
    z = np.concatenate([xs, xs, y, np.ones((1, len(eps)))])
    terms = m * z[cols]  # (w, 9, n)
    err = _product_error(terms, *_split(m), *(part[cols] for part in _split(z)))
    err = err.sum(axis=0) - l1 @ dy
    while len(terms) > 1:
        half = len(terms) // 2
        total, e = _two_sum(terms[:half], terms[half : 2 * half])
        terms = np.concatenate([total, terms[2 * half :]])
        err += e.sum(axis=0)
    return (terms[0] + err).T


def _population_shifts(liou: Liouvillian, pops, signals, strengths) -> np.ndarray:
    """The populations of the exact driven states of each signal in
    ``signals`` on one built generator, minus ``pops`` (rho0's): shape
    (len(signals), ..., 3) over the shape of ``strengths``.  One stacked
    solve per curve, on the generator's forms built once; the coordinates
    are read as they are, and no 3x3 state is built."""
    cycle = _cycle_forms(liou)
    return np.array(
        [
            _driven_coordinates(cycle, build_hext(signal), strengths)[..., :3] - pops
            for signal in signals
        ]
    )


def _population_change(rho, rho0) -> np.ndarray:
    """Populations of ``rho`` (one state or a stack) minus those of ``rho0``."""
    diff = np.asarray(rho) - np.asarray(rho0)
    return diff.diagonal(axis1=-2, axis2=-1).real


def p_avg(rho: np.ndarray, rho0: np.ndarray):
    """Change of the average level occupation, Tr[S_z (rho - rho0)], i.e. the
    change of p(+1) - p(-1); a float for one state, an array for a stack of
    states of shape (..., 3, 3)."""
    diff = _population_change(rho, rho0)
    return _float_or_array(diff[..., 0] - diff[..., 2])


def p_max(rho: np.ndarray, rho0: np.ndarray):
    """Largest change of any individual population; a float for one state,
    an array for a stack of states of shape (..., 3, 3)."""
    return _float_or_array(np.abs(_population_change(rho, rho0)).max(axis=-1))
