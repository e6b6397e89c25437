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

import numpy as np

from .errors import InvalidValueError, SpinsyncError
from .lindblad import (
    SECTOR_SLOTS,
    LimitCycleSpec,
    Liouvillian,
    _float_or_array,
    _populations,
    _target_state,
    _where,
    build_liouvillian,
    hamiltonian_superop,
    require_single,
    sector_block,
    steady_state,
    unvec,
    vec,
)
from .signals import SignalSpec, build_hext
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


class NonDiagonalizableError(SpinsyncError):
    """A coherence block cannot be reliably eigendecomposed."""


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


def _lext_apply(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return -1j * (h @ rho - rho @ h)


def _solve_sectors(blocks: np.ndarray, rhs: np.ndarray, detuning) -> np.ndarray:
    """Solve a stack of coherence blocks, shape (..., m, m), against ``rhs``
    (broadcast to (..., m, K)), after a numerical-rank test of every block;
    a singular one is named by its cells and its ``detuning``.

    The test is smallest singular value <= m u times the largest, with
    every row divided by its largest modulus, so it does not see how far
    apart the rates are: a block whose rows decay at 1 and 1e300 passes,
    while a zero row (an undamped mode) stays zero and fails.
    """
    rows = np.abs(blocks).max(axis=-1, keepdims=True)
    svals = np.linalg.svd(blocks / np.where(rows > 0.0, rows, 1.0), compute_uv=False)
    singular = svals[..., -1] <= svals.shape[-1] * np.finfo(float).eps * svals[..., 0]
    if singular.any():
        sector = 3 - blocks.shape[-1]  # sector k acts on 3 - k slots
        at = np.broadcast_to(detuning, singular.shape)[singular].tolist()
        raise SingularCoherenceBlockError(
            f"driven coherence sector {sector} has an (almost) undamped mode "
            f"at detuning {at}" + _where(singular)
        )
    rhs = np.broadcast_to(rhs, blocks.shape[:-1] + rhs.shape[-1:])
    return np.linalg.solve(blocks, rhs)


def _response_maps(liou: Liouvillian):
    """The first-order kernel of a built generator, stacked over the shape
    of its spec: the populations of rho0, shape (..., 3), and the maps from
    the tones to the first-order coherences (see :func:`coherence_response`),
    ``map1`` of shape (..., 2, 2) and ``map2`` of shape (...)."""
    pops = _populations(liou)
    drive1 = -1j * SQRT2 * np.diff(pops)[..., None] * np.eye(2)
    map1 = -_solve_sectors(liou.sector_blocks[1], drive1, liou.spec.detuning)
    # sector-2 response only where the extremal populations differ (else a unit block)
    differ = pops[..., 2] != pops[..., 0]
    blocks2 = np.where(differ[..., None, None], liou.sector_blocks[2], 1.0)
    inv = _solve_sectors(blocks2, np.ones((1, 1), dtype=complex), liou.spec.detuning)
    map2 = np.where(differ, 2j * (pops[..., 2] - pops[..., 0]) * inv[..., 0, 0], 0j)
    return pops, map1, map2


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
    pops, map1, map2 = _response_maps(build_liouvillian(lc))
    return pops, _apply_maps(map1, map2, signal)


def first_order(lc: LimitCycleSpec, signal: SignalSpec) -> np.ndarray:
    """First-order correction rho1: strictly off-diagonal, Hermitian, traceless."""
    return _rho1(_leading_orders(lc, signal)[1])


def _norms(populations, coherences):
    """||rho0|| from its populations and ||rho1|| from its coherences
    ``(r10, r0m1, r1m1)``, which broadcast against each other (and the
    stack of the populations, of shape (..., 3))."""
    # ufuncs round a scalar as one cell of a stack, where builtin abs (hypot)
    # and ** (pow) on a scalar can differ in the last bit
    sq_10, sq_0m1, sq_1m1 = (np.square(np.abs(r)) for r in coherences)
    norm1 = np.sqrt(2.0 * (sq_10 + sq_0m1 + sq_1m1))
    return np.sqrt(np.vecdot(populations, populations)), norm1


def sync_from_coherences(populations, coherences, eta: float = 0.1):
    """Measure assembled directly from first-order data, with the squeezing
    phase taken as aligned (both harmonics peaking together):
    eta ||rho0|| (C1 |r10 + r0m1| + C2 |r1m1|) / ||rho1||, zero when rho1
    vanishes.  The coherences (r10, r0m1, r1m1) broadcast against each other.
    """
    r_10, r_0m1, r_1m1 = coherences
    amp = COS1_WEIGHT * np.abs(r_10 + r_0m1) + COS2_WEIGHT * np.abs(r_1m1)
    norm0, norm1 = _norms(populations, coherences)
    # a vanishing rho1 has amp = 0, which an infinite norm maps to 0
    val = eta * norm0 * amp / np.where(norm1 > 0.0, norm1, np.inf)
    return _float_or_array(val)


def _strength(norm0: float, norm1, eta: float) -> np.ndarray:
    """Permitted strength eta * norm0 / norm1, broadcast over ``norm1``; inf
    where the first-order response vanishes relative to rho0."""
    zero = np.asarray(norm1) <= 1e-12 * norm0
    inf = np.full(zero.shape, np.inf)
    return np.divide(eta * norm0, norm1, out=inf, where=~zero)


def epsilon_for_threshold(rho0: np.ndarray, rho1: np.ndarray, eta: float) -> float:
    """Permitted signal strength eta * ||rho0|| / ||rho1||.

    Raises :class:`ZeroResponseError` when the first-order response vanishes
    (relative to rho0), in which case the strength is unbounded and the
    caller decides.
    """
    return _finite_strength(hs_norm(rho0), hs_norm(rho1), eta)


def _finite_strength(norm0, norm1, eta: float) -> float:
    """:func:`epsilon_for_threshold` from the norms of rho0 and rho1."""
    eps = float(_strength(norm0, norm1, float(eta)))
    if eps == math.inf:
        raise ZeroResponseError("signal does not couple at first order")
    return eps


def perturbation_result(
    lc: LimitCycleSpec, signal: SignalSpec, eta: float = 0.1
) -> PerturbationResult:
    """Orders zero and one together with the permitted strength."""
    require_single(lc, "perturbation_result")
    return _perturbation_result(*_leading_orders(lc, signal), eta)


def _perturbation_result(pops, coherences, eta: float) -> PerturbationResult:
    """:func:`perturbation_result` from the populations of rho0 and the
    coherences of rho1, with the norms and the strength the measure uses."""
    norm0, norm1 = _norms(pops, coherences)
    eps = _finite_strength(norm0, norm1, eta)
    rho0, rho1 = _target_state(pops), _rho1(coherences)
    return PerturbationResult(rho0, rho1, eps, float(eta), float(norm0), float(norm1))


def _peak_and_strength(populations, coherences, eta: float):
    """Terms, ``(peak, phi_star)`` and permitted strength (inf for a vanishing
    response) of the measure; see :func:`_measure`."""
    r10, r0m1, r1m1 = np.broadcast_arrays(*coherences)
    terms = _phase_terms(r10 + r0m1, r1m1)
    eps = _strength(*_norms(populations, (r10, r0m1, r1m1)), float(eta))
    peak = _max_shifted_phase(terms.amp1, terms.phase1, terms.amp2, terms.phase2)
    return terms, peak, eps


def _measure(populations, coherences, eta: float) -> SyncResult:
    """The measure on stacked first-order coherences ``(r10, r0m1, r1m1)``,
    which broadcast against each other, for the populations of rho0.

    Returns a :class:`SyncResult` whose fields, terms included, are arrays of
    the broadcast shape; see :func:`sync_measure`.
    """
    terms, (peak, phi), eps = _peak_and_strength(populations, coherences, eta)
    zero = np.isinf(eps)
    value = np.multiply(eps, peak, out=np.zeros(zero.shape), where=~zero)
    return SyncResult(value, np.where(zero, np.nan, phi), terms, eps, float(eta), zero)


def sync_measure(
    lc: LimitCycleSpec, signal: SignalSpec, eta: float = 0.1
) -> SyncResult:
    """Synchronization measure of the limit cycle under the given signal.

    The value is epsilon(eta) times the peak of the shifted phase
    distribution of rho1; it is invariant under rescaling the tones by any
    nonzero complex factor.  A signal that does not couple at first order is
    reported with value 0 and the ``zero_response`` flag set (epsilon is then
    unbounded and returned as inf).  A stacked spec or array-valued tones
    give the fields as arrays of their broadcast shape.
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
    solution of L0 rho_k = -L_ext rho_(k-1), from one 9x9 solve per cycle
    for the map -(L0 - P)^-1 L_ext (P of :func:`_anchored`), made only
    when ``kmax`` >= 2.
    """
    if kmax < 0:
        raise InvalidValueError("kmax must be nonnegative")
    require_single(lc, "perturbative_orders")
    liou = build_liouvillian(lc)
    pops, map1, map2 = _response_maps(liou)
    orders = [_target_state(pops), _rho1(_apply_maps(map1, map2, signal))]
    if kmax >= 2:
        lext = hamiltonian_superop(build_hext(signal))
        step = -np.linalg.solve(_anchored(liou), lext)
        for _ in range(2, kmax + 1):
            orders.append(_hermitian_part(unvec(step @ vec(orders[-1]))))
    return orders[: kmax + 1]


def kth_order(lc: LimitCycleSpec, signal: SignalSpec, k: int) -> np.ndarray:
    """Order-k term of the stationary-state expansion."""
    return perturbative_orders(lc, signal, k)[k]


_TRACE_ROW = vec(np.eye(3)).real  # tr(X) = _TRACE_ROW @ vec(X)
_ANCHOR = _TRACE_ROW / 3.0  # vec(I/3)


def full_steady_state(lc: LimitCycleSpec, signal: SignalSpec, epsilon) -> np.ndarray:
    """Exact stationary state of the driven generator at finite epsilon; an
    array of strengths gives the states stacked over its shape (see
    :func:`_driven_steady_state`)."""
    return _driven_steady_state(build_liouvillian(lc), build_hext(signal), epsilon)


def _hermitian_part(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


def _anchored(liou: Liouvillian) -> np.ndarray:
    """L0 - P of one cycle, P = vec(I/3) tr(.): for a trace-preserving L,
    L - P is nonsingular exactly when L has a unique stationary state x, and
    (L - P) x = -vec(I/3); on traceless input (L - P)^-1 inverts L.  Any
    trace-one anchor would do, and I/3 needs no target state."""
    return liou.full - np.outer(_ANCHOR, _TRACE_ROW)


def _inverses(stack: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices, nan for an exactly singular one."""
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        return np.full_like(stack, np.nan) if stack.ndim == 2 else np.array(
            [_inverses(m) for m in stack]
        )


def _driven_steady_state(liou: Liouvillian, h: np.ndarray, epsilon) -> np.ndarray:
    """:func:`full_steady_state` on a built generator and signal Hamiltonian.

    ``epsilon`` is a strength (one 3x3 state) or an array of strengths (the
    states stacked over its shape).  With the anchor P of :func:`_anchored`,
    each state solves (L0 + eps L_ext - P) x = -vec(I/3): one stacked 9x9
    inverse, then one refinement step on the residual, summed in extended
    precision (``np.clongdouble``) from L0, L_ext and the anchor.  All n
    inverses are held at once: stack one forcing curve per call.

    Degeneracy: a strength whose Skeel condition number
    cond = || |A^-1| (|A| |x| + |b|) ||_inf / ||x||_inf, for A = L - P and
    b = -vec(I/3), reaches 0.1 / u (u the machine epsilon: less than one
    digit left; Skeel, J. ACM 26, 494 (1979)), or whose L - P is exactly
    singular, raises :class:`DegenerateSteadyStateError` naming every such
    strength and its stack index.  cond is componentwise, so it does not
    change when a row of the system is rescaled, and a fast rate does not
    make a well-posed state look degenerate; |A| |x| is bounded by
    |L0 - P| |x| + eps |L_ext| |x|.  A 9x9 SVD of the flagged strengths alone
    names a degenerate kernel (second-smallest singular value <= 1e-10 times
    the largest) first, then a traceless stationary direction, else (a
    generator that does not preserve the trace) a degenerate kernel.
    """
    eps = np.asarray(epsilon, dtype=float)
    flat = eps.reshape(-1)
    l0, l1, anchored = liou.full, hamiltonian_superop(h), _anchored(liou)
    inv = _inverses(anchored + flat[:, None, None] * l1)
    x = -(inv @ _ANCHOR)
    # Skeel's cond times ||x||_inf, with |b| = vec(I/3); nan marks an exactly
    # singular cell
    size = np.abs(x)
    bound = size @ np.abs(anchored).T + flat[:, None] * (size @ np.abs(l1).T)
    skeel = (np.abs(inv) @ (bound + _ANCHOR)[..., None]).max(axis=(-2, -1))
    bad = ~(skeel < 0.1 / np.finfo(float).eps * size.max(axis=-1)).reshape(eps.shape)
    if bad.any():
        svals, vt = np.linalg.svd(l0 + flat[bad.reshape(-1), None, None] * l1)[1:]
        kernel, traceless = np.zeros_like(bad), np.zeros_like(bad)
        kernel[bad] = svals[:, -2] <= 1e-10 * svals[:, 0]
        rho = _hermitian_part(unvec(vt[:, -1].conj()))
        tr = np.trace(rho, axis1=-2, axis2=-1).real
        traceless[bad] = np.abs(tr) < 1e-8 * np.linalg.norm(rho, axis=(-2, -1))
        mask = kernel if kernel.any() else traceless if traceless.any() else bad
        what = ("stationary direction is traceless" if mask is traceless
                else "driven generator has a degenerate kernel")
        raise DegenerateSteadyStateError(f"{what} at epsilon" + _where(mask, eps))
    ext = x.astype(np.clongdouble)  # -vec(I/3) - (L - P) x, in extended precision
    resid = _ANCHOR * (ext @ _TRACE_ROW - 1.0)[:, None] - ext @ l0.T
    resid -= flat[:, None] * (ext @ l1.T)
    x = x + (inv @ resid.astype(complex)[..., None])[..., 0]
    return _hermitian_part(unvec(x)).reshape(eps.shape + (3, 3))


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


@dataclass(frozen=True)
class Eigencoherence:
    """One eigenmode of the coherence dynamics and how strongly it is driven."""

    decay: complex
    mode: np.ndarray
    drive: complex


def eigencoherences(lc: LimitCycleSpec, signal: SignalSpec) -> list[Eigencoherence]:
    """Eigenmode decomposition of the first-order response.

    For each coherence sector the block is eigendecomposed; the drive
    coefficients are projections of the signal action on the target state
    onto the (dual) eigenbasis, so that rho1 = -sum_l mode_l drive_l/decay_l
    always reconstructs.  When the blocks are normal the eigenmodes are
    orthonormal and ||rho1||^2 = sum_l |drive_l/decay_l|^2.  Blocks with an
    ill-conditioned eigenbasis raise :class:`NonDiagonalizableError`; the
    threshold rule itself stays well defined in that case.
    """
    require_single(lc, "eigencoherences")
    liou = build_liouvillian(lc)
    rho0 = steady_state(liou)
    drive_mat = _lext_apply(build_hext(signal), rho0)
    out: list[Eigencoherence] = []
    for k in (1, 2, -1, -2):
        slots = SECTOR_SLOTS[k]
        block = sector_block(liou, k)
        evals, vecs = np.linalg.eig(block)
        if np.linalg.cond(vecs) >= 1e8:
            raise NonDiagonalizableError(
                f"coherence block of sector {k} has an ill-conditioned eigenbasis"
            )
        rhs = np.array([drive_mat[s] for s in slots])
        coeffs = np.linalg.solve(vecs, rhs)
        for idx in range(len(evals)):
            mode = np.zeros((3, 3), dtype=complex)
            for s, x in zip(slots, vecs[:, idx]):
                mode[s] = x
            out.append(
                Eigencoherence(
                    decay=complex(evals[idx]),
                    mode=mode,
                    drive=complex(coeffs[idx]),
                )
            )
    return out
