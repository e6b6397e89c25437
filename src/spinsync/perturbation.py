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

from .lindblad import (
    SECTOR_SLOTS,
    LimitCycleSpec,
    Liouvillian,
    build_liouvillian,
    detuned_blocks,
    hamiltonian_superop,
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
    SZ,
    PhaseDistributionTerms,
    _max_shifted_phase,
    _phase_terms,
    _scalar_terms,
)


class SingularCoherenceBlockError(ValueError):
    """A driven coherence sector is undamped; no synchronization regime exists."""


class ZeroResponseError(ValueError):
    """The signal does not couple to the limit cycle at first order."""


class DegenerateSteadyStateError(ValueError):
    """The driven generator has no unique stationary state."""


class NonDiagonalizableError(ValueError):
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


def _solve_sectors(blocks: np.ndarray, rhs: np.ndarray, detunings) -> np.ndarray:
    """Solve a stack of coherence blocks, shape (n, m, m), against ``rhs``
    (broadcast to (n, m, K)), after a numerical-rank test of every block.
    ``detunings`` label the blocks in the error raised for a singular one."""
    svals = np.linalg.svd(blocks, compute_uv=False)
    singular = svals[:, -1] <= svals.shape[-1] * np.finfo(float).eps * svals[:, 0]
    if singular.any():
        sector = 3 - blocks.shape[-1]  # sector k acts on 3 - k slots
        raise SingularCoherenceBlockError(
            f"driven coherence sector {sector} has an (almost) undamped mode "
            f"at detuning {np.asarray(detunings)[singular].tolist()}"
        )
    rhs = np.broadcast_to(rhs, blocks.shape[:-1] + rhs.shape[-1:])
    return np.linalg.solve(blocks, rhs)


def _response_maps(liou: Liouvillian, detunings=None):
    """The first-order kernel: rho0 and the tone-to-coherence maps of a
    built generator (see :func:`coherence_response`).

    Without ``detunings`` the maps are those of the build itself: ``map1``
    2x2 and ``map2`` a complex scalar.  With an array of n detunings they are
    stacked, ``map1`` of shape (n, 2, 2) and ``map2`` of shape (n,), one per
    detuning, all from the one build: rho0 does not depend on the detuning,
    which only shifts the coherence blocks (:func:`detuned_blocks`).
    """
    rho0 = steady_state(liou)
    pops = rho0.diagonal().real
    if detunings is None:
        at = [liou.spec.detuning]
        blocks = {k: block[None] for k, block in liou.sector_blocks.items()}
    else:
        at = np.asarray(detunings, dtype=float)
        blocks = detuned_blocks(liou.relaxation_blocks, at)
    drive1 = np.diag(
        [-1j * SQRT2 * (pops[1] - pops[0]), -1j * SQRT2 * (pops[2] - pops[1])]
    )
    map1 = -_solve_sectors(blocks[1], drive1, at)
    map2 = np.zeros(len(at), dtype=complex)
    # sector-2 response only exists when the extremal populations differ
    if pops[2] != pops[0]:
        inv = _solve_sectors(blocks[2], np.ones((1, 1), dtype=complex), at)
        map2 = 2j * (pops[2] - pops[0]) * inv[:, 0, 0]
    if detunings is None:
        return rho0, map1[0], complex(map2[0])
    return rho0, map1, map2


def _apply_maps(map1: np.ndarray, map2, signal: SignalSpec):
    """First-order coherences ``(r10, r0m1, r1m1)`` of the signal from the
    response maps.

    ``map1`` is 2x2 or a stack of shape (n, 2, 2) with ``map2`` of shape
    (n,), and the tones of ``signal`` may be arrays that broadcast against
    that stack.  A 2x2 ``map1`` with scalar tones gives scalars.
    """
    m = map1.T  # m[j, i] is map1[..., i, j], stacked along the last axis
    t01, tm10, tm11 = signal.t01, signal.tm10, signal.tm11
    # map2 * tm11 rounded as a scalar complex product, whether or not it is
    # stacked: numpy's array product fuses a multiply-add, which moves the
    # last digits of a small imaginary part
    r1m1 = (map2.real * tm11.real - map2.imag * tm11.imag) + 1j * (
        map2.real * tm11.imag + map2.imag * tm11.real
    )
    return m[0, 0] * t01 + m[1, 0] * tm10, m[0, 1] * t01 + m[1, 1] * tm10, r1m1


def _rho1(coherences) -> np.ndarray:
    """The Hermitian, strictly off-diagonal rho1 with the given coherences."""
    rho1 = np.zeros((3, 3), dtype=complex)
    rho1[0, 1], rho1[1, 2], rho1[0, 2] = coherences
    return rho1 + rho1.conj().T


def coherence_response(lc: LimitCycleSpec):
    """Linear maps from tone amplitudes to first-order coherences.

    Returns ``(rho0, map1, map2)`` where ``map1`` is the 2x2 complex matrix
    sending (t01, tm10) to (rho1_{1,0}, rho1_{0,-1}) and ``map2`` the scalar
    sending tm11 to rho1_{1,-1}.  The response is linear in the tones sector
    by sector and rho0 does not depend on the signal, so every first-order
    quantity of the package comes from these three objects, with one
    generator build per limit cycle.
    """
    return _response_maps(build_liouvillian(lc))


def _leading_orders(lc: LimitCycleSpec, signal: SignalSpec):
    """rho0 and the first-order coherences of the signal."""
    rho0, map1, map2 = coherence_response(lc)
    return rho0, _apply_maps(map1, map2, signal)


def first_order(lc: LimitCycleSpec, signal: SignalSpec) -> np.ndarray:
    """First-order correction rho1: strictly off-diagonal, Hermitian, traceless."""
    return _rho1(_leading_orders(lc, signal)[1])


def _norms(populations, coherences):
    """||rho0|| from its populations and ||rho1|| from its coherences
    ``(r10, r0m1, r1m1)``, which broadcast against each other."""
    r_10, r_0m1, r_1m1 = coherences
    norm1 = np.sqrt(2.0 * (abs(r_10) ** 2 + abs(r_0m1) ** 2 + abs(r_1m1) ** 2))
    return math.sqrt(np.dot(populations, populations)), norm1


def sync_from_coherences(populations, coherences, eta: float = 0.1):
    """Measure assembled directly from first-order data, with the squeezing
    phase taken as aligned (both harmonics peaking together):
    eta ||rho0|| (C1 |r10 + r0m1| + C2 |r1m1|) / ||rho1||, zero when rho1
    vanishes.  The coherences (r10, r0m1, r1m1) broadcast against each other.
    """
    r_10, r_0m1, r_1m1 = coherences
    amp = COS1_WEIGHT * abs(r_10 + r_0m1) + COS2_WEIGHT * abs(r_1m1)
    norm0, norm1 = _norms(populations, coherences)
    # a vanishing rho1 has amp = 0, which an infinite norm maps to 0
    val = eta * norm0 * amp / np.where(norm1 > 0.0, norm1, np.inf)
    return float(val) if np.ndim(val) == 0 else val


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
    eps = float(_strength(hs_norm(rho0), hs_norm(rho1), float(eta)))
    if eps == math.inf:
        raise ZeroResponseError("signal does not couple at first order")
    return eps


def perturbation_result(
    lc: LimitCycleSpec, signal: SignalSpec, eta: float = 0.1
) -> PerturbationResult:
    """Orders zero and one together with the permitted strength."""
    return _perturbation_result(*_leading_orders(lc, signal), eta)


def _perturbation_result(rho0, coherences, eta: float) -> PerturbationResult:
    """:func:`perturbation_result` of rho0 and the coherences of rho1."""
    rho1 = _rho1(coherences)
    eps = epsilon_for_threshold(rho0, rho1, eta)
    return PerturbationResult(rho0, rho1, eps, float(eta), hs_norm(rho0), hs_norm(rho1))


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
    unbounded and returned as inf).
    """
    # a batch of one detuning, so that the digits are those of a `sync` row
    rho0, map1, map2 = _response_maps(build_liouvillian(lc), [lc.detuning])
    res = _measure(rho0.diagonal().real, _apply_maps(map1, map2, signal), eta)
    value, phase, eps, zero = (
        x.item() for x in (res.value, res.locked_phase, res.epsilon, res.zero_response)
    )
    return SyncResult(value, phase, _scalar_terms(res.terms), eps, res.eta, zero)


def perturbative_orders(
    lc: LimitCycleSpec, signal: SignalSpec, kmax: int
) -> list[np.ndarray]:
    """Orders rho^(0) ... rho^(kmax) of the stationary-state expansion.

    Each order k >= 1 solves the coherence sectors by block inversion and the
    population sector by a least-squares solve on the trace-augmented
    population block (its null direction is rho0; the trace-zero condition
    fixes the free component).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    liou = build_liouvillian(lc)
    rho0, map1, map2 = _response_maps(liou)
    orders = [rho0]
    if kmax == 0:
        return orders
    orders.append(_rho1(_apply_maps(map1, map2, signal)))
    h = build_hext(signal)
    aug = np.vstack([liou.diag_block, np.ones((1, 3))])
    for _ in range(2, kmax + 1):
        rhs_mat = 1j * (h @ orders[-1] - orders[-1] @ h)  # -L_ext rho^(k-1)
        rho_k = np.zeros((3, 3), dtype=complex)
        pop_rhs = np.concatenate([rhs_mat.diagonal().real, [0.0]])
        pops = np.linalg.lstsq(aug, pop_rhs, rcond=None)[0]
        np.fill_diagonal(rho_k, pops)
        for k in (1, 2):
            slots = SECTOR_SLOTS[k]
            rhs = np.array([rhs_mat[s] for s in slots])
            if not rhs.any():
                continue
            sol = _solve_sectors(
                liou.sector_blocks[k][None], rhs[:, None], [lc.detuning]
            )[0, :, 0]
            for s, x in zip(slots, sol):
                rho_k[s] = x
                rho_k[s[1], s[0]] = np.conj(x)
        orders.append(rho_k)
    return orders


def kth_order(lc: LimitCycleSpec, signal: SignalSpec, k: int) -> np.ndarray:
    """Order-k term of the stationary-state expansion."""
    return perturbative_orders(lc, signal, k)[k]


_TRACE_ROW = np.zeros(9)
_TRACE_ROW[[0, 4, 8]] = 1.0


def full_steady_state(
    lc: LimitCycleSpec, signal: SignalSpec, epsilon: float
) -> np.ndarray:
    """Exact stationary state of the driven generator at finite epsilon."""
    return _driven_steady_state(build_liouvillian(lc), build_hext(signal), epsilon)


def _driven_steady_state(
    liou: Liouvillian, h: np.ndarray, epsilon: float
) -> np.ndarray:
    """:func:`full_steady_state` on a built generator and signal Hamiltonian."""
    gen = liou.full + float(epsilon) * hamiltonian_superop(h)
    _, svals, vt = np.linalg.svd(gen)
    if svals[-2] <= 1e-10 * svals[0]:
        raise DegenerateSteadyStateError("driven generator has a degenerate kernel")
    rho = unvec(vt[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(rho.trace().real)
    if abs(tr) < 1e-8 * hs_norm(rho):
        raise DegenerateSteadyStateError("stationary direction is traceless")
    rho = rho / tr
    # one least-squares correction on the trace-augmented system
    aug = np.vstack([gen, _TRACE_ROW])
    resid = np.concatenate([gen @ vec(rho), [0.0]])
    delta = np.linalg.lstsq(aug, resid, rcond=None)[0]
    rho = rho - unvec(delta)
    return 0.5 * (rho + rho.conj().T)


def p_avg(rho: np.ndarray, rho0: np.ndarray) -> float:
    """Change of the average level occupation, Tr[S_z (rho - rho0)]."""
    return float(np.trace(SZ @ (np.asarray(rho) - np.asarray(rho0))).real)


def p_max(rho: np.ndarray, rho0: np.ndarray) -> float:
    """Largest change of any individual population."""
    diff = np.asarray(rho).diagonal().real - np.asarray(rho0).diagonal().real
    return float(np.abs(diff).max())


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
