"""Named limit cycles, closed-form benchmarks, optimizers and sweeps.

Scenarios
---------
equatorial
    Gain S+ Sz and damping S- Sz relax the extremal states onto the pure
    equatorial state |0><0|.
vdp
    Single-excitation gain Sz S+ - S+ Sz/sqrt(2) against two-excitation loss
    S-^2/sqrt(2); entrywise identical to the creation and two-photon
    annihilation operators of an oscillator truncated to three Fock states.
asymmetric_equatorial
    Equatorial cycle plus a weak third decay channel Sz S- that populates
    |-1> and unlocks the squeezing response; reaches the fundamental bound
    as the extra rate goes to zero.
cooperativity
    Natural decays of the spin ladder plus an effective incoherent pump
    |-1> -> |0> at rate 4 C Gamma_{0,-1}, the reduced description of an
    ancilla-assisted pumping scheme with cooperativity C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lindblad import LimitCycleSpec, Liouvillian, build_liouvillian, steady_state
from .perturbation import (
    SyncResult,
    _apply_maps,
    _driven_steady_state,
    _peak_and_strength,
    _response_maps,
    coherence_response,
    hs_norm,
    p_max,
    sync_from_coherences,
    sync_measure,
)
from .signals import SignalSpec, build_hext, from_equatorial_angles
from .spin import (
    COS1_WEIGHT,
    COS2_WEIGHT,
    OSC_COS1_WEIGHT,
    SM,
    SP,
    SQRT2,
    SZ,
)

# fundamental ceilings of the measure, per unit threshold eta
SMAX_SPIN_COEFF = math.sqrt(2.0 * (16.0 + 9.0 * math.pi**2)) / (16.0 * math.pi)
SMAX_OSC_COEFF = math.sqrt(3.0) / (2.0 * SQRT2 * math.pi)
#: |single-quantum| / |double-quantum| coherence ratio saturating the bound
OPTIMAL_COHERENCE_RATIO = 3.0 * math.pi / (4.0 * SQRT2)

# asymptotic benchmarks (deep quantum regime), per unit eta
VDP_SEMICLASSICAL_LIMIT = math.sqrt(5.0) / 16.0
VDP_SQUEEZE_LIMIT = math.sqrt(5.0 * (32.0 + 9.0 * math.pi**2)) / (48.0 * math.pi)
VDP_SQUEEZE_INFINITE_TAU_LIMIT = math.sqrt(2.5) / (6.0 * math.pi)
VDP_OPTIMAL_LIMIT = math.sqrt(40.0 + 22.5 * math.pi**2) / (24.0 * math.pi)
VDP_OPTIMAL_TAU_RATIO = 2.0 * SQRT2 / (3.0 * math.pi)
EQUATORIAL_SEMICLASSICAL_LIMIT = 3.0 / 16.0
EQUATORIAL_OPTIMAL_VALUE = 3.0 * SQRT2 / 16.0


def _unit(i: int, j: int) -> np.ndarray:
    mat = np.zeros((3, 3), dtype=complex)
    mat[i, j] = 1.0
    return mat


def equatorial_limit_cycle(
    gamma_g: float, gamma_d: float, detuning: float = 0.0
) -> LimitCycleSpec:
    """Gain S+ Sz at gamma_g and damping S- Sz at gamma_d."""
    _require_positive(gamma_g=gamma_g, gamma_d=gamma_d)
    return LimitCycleSpec(
        ((SP @ SZ, float(gamma_g)), (SM @ SZ, float(gamma_d))), float(detuning)
    )


def vdp_limit_cycle(
    gamma_g: float, gamma_d: float, detuning: float = 0.0
) -> LimitCycleSpec:
    """Van der Pol cycle: single-excitation gain against two-excitation loss."""
    _require_positive(gamma_g=gamma_g, gamma_d=gamma_d)
    gain = SZ @ SP - SP @ SZ / SQRT2
    loss = SM @ SM / SQRT2
    return LimitCycleSpec(
        ((gain, float(gamma_g)), (loss, float(gamma_d))), float(detuning)
    )


def asymmetric_equatorial_limit_cycle(
    gamma_g: float, gamma_d: float, gamma_dp: float, detuning: float = 0.0
) -> LimitCycleSpec:
    """Equatorial cycle plus the third decay channel Sz S- at gamma_dp."""
    _require_positive(gamma_g=gamma_g, gamma_d=gamma_d, gamma_dp=gamma_dp)
    return LimitCycleSpec(
        (
            (SP @ SZ, float(gamma_g)),
            (SM @ SZ, float(gamma_d)),
            (SZ @ SM, float(gamma_dp)),
        ),
        float(detuning),
    )


def cooperativity_limit_cycle(
    cooperativity: float,
    gamma_10: float = 1.0,
    gamma_0m1: float = 1.0,
    detuning: float = 0.0,
) -> LimitCycleSpec:
    """Ladder decays plus an effective pump |-1> -> |0> at 4 C Gamma_{0,-1}."""
    _require_positive(
        cooperativity=cooperativity, gamma_10=gamma_10, gamma_0m1=gamma_0m1
    )
    pump = 4.0 * float(cooperativity) * float(gamma_0m1)
    return LimitCycleSpec(
        (
            (_unit(1, 0), float(gamma_10)),
            (_unit(2, 1), float(gamma_0m1)),
            (_unit(1, 2), pump),
        ),
        float(detuning),
    )


def _require_positive(**rates: float) -> None:
    for name, value in rates.items():
        if not 0.0 < float(value) < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


SCENARIOS = {
    "equatorial": equatorial_limit_cycle,
    "vdp": vdp_limit_cycle,
    "asymmetric_equatorial": asymmetric_equatorial_limit_cycle,
    "cooperativity": cooperativity_limit_cycle,
}


def make_limit_cycle(name: str, **params: float) -> LimitCycleSpec:
    """Build a named scenario; see :data:`SCENARIOS` for the parameter names."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        ) from None
    return builder(**params)


# ---------------------------------------------------------------------------
# oscillator equivalence


def truncated_oscillator_ops() -> tuple[np.ndarray, np.ndarray]:
    """Creation and two-photon annihilation operators on three Fock states,
    written in the package basis (n = 2, 1, 0 at indices 0, 1, 2)."""
    adag = np.zeros((3, 3), dtype=complex)
    adag[0, 1] = SQRT2  # <2|a^dag|1>
    adag[1, 2] = 1.0  # <1|a^dag|0>
    asq = np.zeros((3, 3), dtype=complex)
    asq[2, 0] = SQRT2  # <0|a^2|2>
    return adag, asq


def vdp_oscillator_equivalence() -> dict[str, float]:
    """Entrywise comparison of the spin van der Pol operators with the
    truncated oscillator ladder, plus the phase-space weight bookkeeping."""
    gain = SZ @ SP - SP @ SZ / SQRT2
    loss = SM @ SM / SQRT2
    adag, asq = truncated_oscillator_ops()
    return {
        "gain_max_abs_diff": float(np.abs(gain - adag).max()),
        "loss_max_abs_diff": float(np.abs(loss - asq).max()),
        "cos1_weight_ratio": COS1_WEIGHT / OSC_COS1_WEIGHT,
        "cos2_weight_ratio": COS2_WEIGHT / COS2_WEIGHT,
    }


# ---------------------------------------------------------------------------
# closed forms


def equatorial_response_geometry(
    gamma_g: float, gamma_d: float, delta: float = 0.0
) -> tuple[float, float]:
    """Amplitude ratio r and interference angle alpha of the equatorial
    cycle's two single-quantum responses at detuning delta."""
    r = math.sqrt((gamma_g**2 + delta**2) / (gamma_d**2 + delta**2))
    alpha = float(np.angle(1.0 / ((gamma_g - 1j * delta) * (gamma_d + 1j * delta))))
    return r, alpha


def equatorial_sync_closed(
    zeta: float,
    chi: float,
    gamma_g: float,
    gamma_d: float,
    delta: float = 0.0,
    eta: float = 0.1,
) -> float:
    """Measure of the equatorial cycle for tones (cos zeta e^{i chi}, sin zeta).

    Exact at all rates and detunings.
    """
    r, alpha = equatorial_response_geometry(gamma_g, gamma_d, delta)
    denom = r * math.cos(zeta) ** 2 + math.sin(zeta) ** 2 / r
    interference = (
        2.0 * math.sin(zeta) * math.cos(zeta) * math.cos(chi + alpha) / denom
    )
    return eta * (3.0 / 16.0) * math.sqrt(max(0.0, 1.0 - interference))


def equatorial_optimal_angles(
    gamma_g: float, gamma_d: float, delta: float = 0.0
) -> tuple[float, float]:
    """Angles giving equal response amplitudes and constructive interference."""
    r, alpha = equatorial_response_geometry(gamma_g, gamma_d, delta)
    return math.atan(r), float((math.pi - alpha) % (2.0 * math.pi))


def blockade_sync_closed(
    gamma_g: float, gamma_d: float, delta: float, eta: float = 0.1
) -> float:
    """Measure at fixed tone phase chi = 0 with equal response amplitudes.

    Destructive interference suppresses synchronization on resonance; a
    finite detuning rotates the two coherences by different angles and
    partially lifts the blockade, peaking at |delta| = sqrt(gamma_g gamma_d).
    Symmetric under exchanging the two rates and even in delta.
    """
    lag = math.atan2(
        (gamma_d - gamma_g) * delta, gamma_d * gamma_g + delta**2
    )
    return eta * (3.0 / 16.0) * math.sqrt(max(0.0, 1.0 - math.cos(lag)))


def vdp_squeeze_sync_closed(
    tau_ratio: float,
    gamma_g: float,
    gamma_d: float,
    delta: float = 0.0,
    eta: float = 0.1,
) -> float:
    """Measure for the van der Pol cycle driven by equal single-quantum tones
    plus a squeezing tone of relative amplitude tau_ratio.

    Deep-quantum asymptotic form (gamma_d >> gamma_g, delta); evaluated as
    written at the given rates.
    """
    u = math.sqrt(9.0 * gamma_g**2 + 4.0 * delta**2)
    num = 3.0 * math.pi * gamma_d + 8.0 * tau_ratio * u
    den = math.sqrt(gamma_d**2 + 2.0 * tau_ratio**2 * u**2)
    return eta * (math.sqrt(5.0) / (48.0 * math.pi)) * num / den


def vdp_optimal_squeeze_ratio(
    gamma_g: float, gamma_d: float, delta: float = 0.0
) -> float:
    """Squeezing-to-semiclassical ratio maximizing the deep-quantum form."""
    u = math.sqrt(9.0 * gamma_g**2 + 4.0 * delta**2)
    return 4.0 * gamma_d / (3.0 * math.pi * u)


def vdp_optimal_params(gamma_g: float, gamma_d: float) -> tuple[float, float]:
    """Resonant optimum of the general signal: (zeta, tau_ratio) with chi = 0."""
    zeta = math.atan2(3.0 * gamma_g, SQRT2 * gamma_d)
    return zeta, VDP_OPTIMAL_TAU_RATIO


def smax(eta: float = 0.1, phase_space: str = "spin") -> float:
    """Fundamental ceiling of the synchronization measure."""
    if phase_space == "spin":
        return eta * SMAX_SPIN_COEFF
    if phase_space == "oscillator":
        return eta * SMAX_OSC_COEFF
    raise ValueError(f"unknown phase space {phase_space!r}")


def tightness_sync_closed(
    gamma_g: float, gamma_dp: float, eta: float = 0.1
) -> float:
    """Measure reached by the asymmetric equatorial construction; approaches
    the spin ceiling as gamma_dp / gamma_g -> 0."""
    ratio = math.sqrt(
        (gamma_g**2 + gamma_dp**2) / (gamma_g + gamma_dp) ** 2
    )
    return smax(eta) * ratio


# ---------------------------------------------------------------------------
# exact finite-rate first-order coherences (hand-derived block inversions)


def vdp_first_order_closed(
    signal: SignalSpec, gamma_g: float, gamma_d: float, delta: float = 0.0
) -> tuple[tuple[complex, complex, complex], np.ndarray]:
    """First-order coherences of the van der Pol cycle, exact at all rates.

    The single-quantum sector is upper triangular (the gain feeds the lower
    coherence into the upper one), so the 2x2 inversion is explicit.
    Returns ``((rho_{1,0}, rho_{0,-1}, rho_{1,-1}), populations)``.
    """
    total = 3.0 * gamma_d + gamma_g
    p1, p0, pm = gamma_g / total, gamma_d / total, 2.0 * gamma_d / total
    d1 = gamma_g + gamma_d + 1j * delta
    d2 = 1.5 * gamma_g + 1j * delta
    d3 = 0.5 * gamma_g + gamma_d + 2j * delta
    v1 = -1j * SQRT2 * signal.t01 * (p0 - p1)
    v2 = -1j * SQRT2 * signal.tm10 * (pm - p0)
    v3 = -2j * signal.tm11 * (pm - p1)
    r_0m1 = v2 / d2
    r_10 = (v1 + SQRT2 * gamma_g * r_0m1) / d1
    r_1m1 = v3 / d3
    return (r_10, r_0m1, r_1m1), np.array([p1, p0, pm])


def equatorial_first_order_closed(
    signal: SignalSpec,
    gamma_g: float,
    gamma_d: float,
    gamma_dp: float = 0.0,
    delta: float = 0.0,
) -> tuple[tuple[complex, complex, complex], np.ndarray]:
    """First-order coherences of the (possibly asymmetric) equatorial cycle."""
    a0 = gamma_g / (gamma_g + gamma_dp)
    am = gamma_dp / (gamma_g + gamma_dp)
    r_10 = -1j * SQRT2 * signal.t01 * a0 / (gamma_d + gamma_dp + 1j * delta)
    r_0m1 = 1j * SQRT2 * signal.tm10 * (a0 - am) / (gamma_g + gamma_dp + 1j * delta)
    r_1m1 = -2j * signal.tm11 * am / (gamma_g + gamma_d + 2j * delta)
    return (r_10, r_0m1, r_1m1), np.array([0.0, a0, am])


# ---------------------------------------------------------------------------
# squeezing-phase alignment and the tightness construction


def align_squeeze_phase(lc: LimitCycleSpec, signal: SignalSpec) -> SignalSpec:
    """Rotate the squeezing tone so that both harmonics of the first-order
    phase distribution share a peak.

    The coherence sectors decouple, so the alignment is exact in one step.
    Signals without a squeezing tone, or cycles it cannot couple to, are
    returned with the squeezing phase reset to zero.
    """
    if signal.tm11 == 0:
        return signal
    _, map1, map2 = coherence_response(lc)
    return _align_on_maps(map1, map2, signal)


def _align_on_maps(map1: np.ndarray, map2, signal: SignalSpec) -> SignalSpec:
    """:func:`align_squeeze_phase` from the response maps of the cycle.

    Broadcasts as :func:`~spinsync.perturbation._apply_maps`: with stacked
    maps or array-valued tones the aligned squeezing tone is an array.
    """
    size = abs(signal.tm11)
    r_10, r_0m1, r_1m1 = _apply_maps(map1, map2, replace(signal, tm11=size + 0j))
    single = r_10 + r_0m1
    beta = 2.0 * np.angle(single) - np.angle(r_1m1)
    # rotate only where both harmonics are present
    both = (single != 0) & (r_1m1 != 0)
    tm11 = np.where(both, size * np.exp(1j * beta), size + 0j)
    return replace(signal, tm11=tm11[()])


def tightness_signal(
    gamma_g: float, gamma_d: float, gamma_dp: float, delta: float = 0.0
) -> SignalSpec:
    """Signal saturating the coherence-ratio optimum on the asymmetric
    equatorial cycle: constructive single-quantum tones plus a squeezing tone
    whose amplitude compensates the small population of |-1>."""
    zeta, chi = equatorial_optimal_angles(gamma_g, gamma_d, delta)
    squeeze = (
        (4.0 / (3.0 * math.pi))
        * math.sqrt(
            ((gamma_g + gamma_d) ** 2 + 4.0 * delta**2)
            / (gamma_d**2 + gamma_g**2 + 2.0 * delta**2)
        )
        * gamma_g
        / gamma_dp
    )
    base = from_equatorial_angles(zeta, chi)
    return SignalSpec(base.t01, base.tm10, squeeze + 0j)


def tightness_scenario(
    gamma_g: float,
    gamma_d: float,
    gamma_dp: float,
    delta: float = 0.0,
    eta: float = 0.1,
) -> SyncResult:
    """Run the bound-saturating construction through the generic pipeline."""
    lc = asymmetric_equatorial_limit_cycle(gamma_g, gamma_d, gamma_dp, delta)
    signal = align_squeeze_phase(
        lc, tightness_signal(gamma_g, gamma_d, gamma_dp, delta)
    )
    return sync_measure(lc, signal, eta)


# ---------------------------------------------------------------------------
# fundamental bound over all limit cycles and signals


@dataclass(frozen=True)
class BoundParams:
    """Parametrization of a diagonal limit-cycle state and an optimally
    interfering first-order correction.

    ``pop0`` is the population of |0>, ``asymmetry`` shifts population
    between |+1> and |-1>; ``adjacent`` is the common single-quantum
    coherence and ``extremal`` the double-quantum one.
    """

    pop0: float
    asymmetry: float = 0.0
    adjacent: complex = 0j
    extremal: complex = 0j


def bound_state_pair(params: BoundParams) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (rho0, rho1) realizing the bound parametrization."""
    a, d = float(params.pop0), float(params.asymmetry)
    pops = np.array([0.5 * (1.0 - a - d), a, 0.5 * (1.0 - a + d)])
    if pops.min() < -1e-14 or a > 1.0 + 1e-14:
        raise ValueError(
            f"populations fall outside the physical triangle: {pops}"
        )
    rho0 = np.diag(np.clip(pops, 0.0, None)).astype(complex)
    b, c = complex(params.adjacent), complex(params.extremal)
    rho1 = np.array(
        [[0.0, b, c], [np.conj(b), 0.0, b], [np.conj(c), np.conj(b), 0.0]],
        dtype=complex,
    )
    return rho0, rho1


def bound_terms(
    params: BoundParams, eta: float = 0.1
) -> tuple[float, float, float]:
    """The two factors of the measure for the bound parametrization.

    Returns ``(norm_term, coherence_term, product)``: eta times the norm of
    the limit-cycle state, and the peak-per-norm of the correction with the
    double-quantum phase aligned.  The coherence term is largest at
    |adjacent|/|extremal| = 3 pi / (4 sqrt(2)).
    """
    rho0, rho1 = bound_state_pair(params)
    if not rho1.any():
        raise ValueError("bound parametrization needs a nonzero correction")
    norm_term = eta * hs_norm(rho0)
    b, c = complex(params.adjacent), complex(params.extremal)
    # a unit population vector leaves the coherence factor alone
    coherence_term = sync_from_coherences(np.ones(1), (b, b, c), 1.0)
    return norm_term, coherence_term, norm_term * coherence_term


# ---------------------------------------------------------------------------
# signal optimization


@dataclass(frozen=True)
class OptimumReport:
    """Arg-optimum of a signal family on a fixed limit cycle."""

    family: str
    params: dict[str, float]
    value: float
    eta: float
    signal: SignalSpec


def _golden_max(fun, lo: float, hi: float, tol: float = 1e-10) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = fun(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = fun(x1)
    return 0.5 * (lo + hi)


def stationary_squeeze_ratio(r_10, r_0m1, map2):
    """Squeezing ratio tau maximizing the aligned measure of the van der Pol
    signal at fixed single-quantum coherences: the measure is (a + b tau) /
    sqrt(c + d tau^2), peaked at tau = b c / (a d).  Broadcasts over numpy
    coherences; inf where their sum vanishes, nan where both do."""
    amp1 = COS1_WEIGHT * abs(r_10 + r_0m1)
    base = 2.0 * (abs(r_10) ** 2 + abs(r_0m1) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return COS2_WEIGHT * base / (SQRT2 * amp1 * abs(map2))


#: :func:`optimize_signal`: initial grid points per coordinate, stopping
#: tolerance of a coordinate sweep on the measure, largest squeezing ratio
OPT_GRID_SIZE = 64
OPT_TOL = 1e-8
OPT_TAU_MAX = 2.0


def optimize_signal(
    lc: LimitCycleSpec, family: str, eta: float = 0.1
) -> OptimumReport:
    """Deterministic grid search plus coordinate descent over a signal family.

    Families: ``"equatorial_angles"`` with parameters (zeta, chi) and
    ``"vdp_general"`` with (zeta, chi, tau_ratio).  Only (zeta, chi) are
    searched: the squeezing ratio is :func:`stationary_squeeze_ratio` clipped
    to [0, OPT_TAU_MAX] (0 without a squeezing response), and the squeezing
    phase is always auto-aligned (it enters the objective additively).  Ties
    on the initial grid resolve toward smaller zeta, then smaller chi.
    """
    if family not in ("equatorial_angles", "vdp_general"):
        raise ValueError(f"unknown signal family {family!r}")
    vdp = family == "vdp_general"
    rho0, map1, map2 = coherence_response(lc)
    pops = rho0.diagonal().real
    # fmin also sends the inf or nan of a vanishing coherence sum to tau_max
    tau_max = OPT_TAU_MAX if vdp and map2 != 0 else 0.0

    def response(zeta, chi):
        # the relative phase sits on tm10 so that the chi-independent row
        # zeta = 0 ties exactly on the grid and resolves to chi = 0
        t01 = np.cos(zeta) + 0j
        tm10 = np.sin(zeta) / (SQRT2 if vdp else 1.0) * np.exp(-1j * chi)
        r_10, r_0m1, _ = _apply_maps(map1, map2, SignalSpec(t01, tm10))
        tau = np.fmin(stationary_squeeze_ratio(r_10, r_0m1, map2), tau_max)
        return r_10, r_0m1, tau

    def objective(*coords):
        r_10, r_0m1, tau = response(*coords)
        return sync_from_coherences(
            pops, (r_10, r_0m1, np.abs(map2) * (tau / SQRT2)), eta
        )

    bounds = ((0.0, 0.5 * math.pi), (0.0, 2.0 * math.pi))
    axes = [
        np.linspace(lo, hi, OPT_GRID_SIZE, endpoint=(i != 1))
        for i, (lo, hi) in enumerate(bounds)
    ]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    grid_vals = objective(*mesh)
    flat_idx = int(np.argmax(grid_vals))
    coords = [
        float(axes[i][k])
        for i, k in enumerate(np.unravel_index(flat_idx, grid_vals.shape))
    ]
    step = [(hi - lo) / (OPT_GRID_SIZE - 1) for lo, hi in bounds]

    best = float(objective(*coords))
    for _ in range(200):
        previous = best
        for i, (lo, hi) in enumerate(bounds):
            span = max(step[i], 1e-6)

            def along(x, i=i):
                probe = list(coords)
                probe[i] = x
                return float(objective(*probe))

            coords[i] = _golden_max(
                along,
                max(lo, coords[i] - span),
                min(hi, coords[i] + span),
                tol=1e-12,
            )
            best = along(coords[i])
        if best - previous < OPT_TOL:
            break

    zeta, chi = coords
    params = {"zeta": zeta, "chi": chi}
    signal = from_equatorial_angles(zeta, chi)
    if vdp:
        params["tau_ratio"] = tau = float(response(zeta, chi)[2])
        signal = _align_on_maps(
            map1, map2, SignalSpec(signal.t01, signal.tm10 / SQRT2, tau / SQRT2 + 0j)
        )
    return OptimumReport(
        family=family, params=params, value=best, eta=eta, signal=signal
    )


# ---------------------------------------------------------------------------
# Arnold tongue


@dataclass(frozen=True)
class TongueGrid:
    """Synchronization region over (detuning, signal strength).

    ``value[i, j]`` is the measure at strength ``strengths[i]`` and detuning
    ``detunings[j]``; cells beyond the validity boundary ``eps_max`` are
    masked (value NaN, ``masked`` True).
    """

    detunings: np.ndarray
    strengths: np.ndarray
    value: np.ndarray
    masked: np.ndarray
    eps_max: np.ndarray
    eta: float


def arnold_tongue(
    lc: LimitCycleSpec,
    signal: SignalSpec,
    detunings: np.ndarray,
    strengths: np.ndarray,
    eta: float = 0.1,
) -> TongueGrid:
    """Sweep the tongue: per-detuning boundary from the threshold rule and
    the measure epsilon * peak below it.  The detuning of ``lc`` is
    replaced by each of ``detunings``; one generator build and one measure
    call on the stacked coherences serve the whole grid."""
    return _tongue_grid(build_liouvillian(lc), signal, detunings, strengths, eta)


def _tongue_grid(
    liou: Liouvillian,
    signal: SignalSpec,
    detunings: np.ndarray,
    strengths: np.ndarray,
    eta: float,
) -> TongueGrid:
    """:func:`arnold_tongue` on a built generator."""
    detunings = np.asarray(detunings, dtype=float)
    strengths = np.asarray(strengths, dtype=float)
    rho0, map1, map2 = _response_maps(liou, detunings)
    coherences = _apply_maps(map1, map2, signal)
    _, (peak, _), eps_max = _peak_and_strength(rho0.diagonal().real, coherences, eta)
    # the measure is linear in the strength, and 0 where the response vanishes
    peak = np.where(np.isinf(eps_max), 0.0, peak)
    value = strengths[:, None] * peak[None, :]
    masked = strengths[:, None] > eps_max[None, :]
    value = np.where(masked, np.nan, value)
    return TongueGrid(
        detunings=detunings,
        strengths=strengths,
        value=value,
        masked=masked,
        eps_max=eps_max,
        eta=eta,
    )


# ---------------------------------------------------------------------------
# forcing-regime diagnostics


def pmax_forcing_curve(
    lc: LimitCycleSpec, signal: SignalSpec, strengths: np.ndarray
) -> np.ndarray:
    """Largest population deformation of the exact state along a strength grid."""
    liou = build_liouvillian(lc)
    rho0 = steady_state(liou)
    h = build_hext(signal)
    return np.array(
        [p_max(_driven_steady_state(liou, h, eps), rho0) for eps in strengths]
    )


def detect_interior_peak(
    strengths: np.ndarray, curve: np.ndarray, dip_fraction: float = 0.5
) -> dict:
    """Locate a non-monotonic bump: an interior local maximum followed by a
    dip below ``dip_fraction`` of its height and a later rise."""
    curve = np.asarray(curve, dtype=float)
    peak_idx = None
    for i in range(1, len(curve) - 1):
        if curve[i] > curve[i - 1] and curve[i] >= curve[i + 1]:
            peak_idx = i
            break
    if peak_idx is None:
        return {"has_interior_peak": False}
    tail = curve[peak_idx:]
    dip_rel = int(np.argmin(tail))
    dip_idx = peak_idx + dip_rel
    dips_enough = curve[dip_idx] < dip_fraction * curve[peak_idx]
    rises_after = bool(curve[dip_idx:].max() > curve[dip_idx])
    return {
        "has_interior_peak": True,
        "peak_index": int(peak_idx),
        "peak_strength": float(strengths[peak_idx]),
        "peak_value": float(curve[peak_idx]),
        "dip_index": int(dip_idx),
        "dip_value": float(curve[dip_idx]),
        "dips_below_fraction": bool(dips_enough),
        "rises_after_dip": rises_after,
    }


def pmax_failure_sweep(
    r_values,
    strengths: np.ndarray,
    gamma_g: float,
    gamma_d: float,
) -> dict[float, dict]:
    """Deformation curves for the van der Pol cycle driven by two
    single-quantum tones of amplitude ratio r (squeezing off, resonant)."""
    out: dict[float, dict] = {}
    for r in r_values:
        lc = vdp_limit_cycle(gamma_g, gamma_d)
        signal = SignalSpec(float(r) + 0j, 1.0 / SQRT2 + 0j, 0j)
        curve = pmax_forcing_curve(lc, signal, strengths)
        report = detect_interior_peak(strengths, curve)
        out[float(r)] = {"curve": curve, "analysis": report}
    return out
