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

Rates and detuning may be arrays that broadcast against each other, giving a
stacked :class:`~spinsync.lindblad.LimitCycleSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidValueError
from .lindblad import (
    LimitCycleSpec,
    Liouvillian,
    _populations,
    _where,
    build_liouvillian,
    require_single,
)
from .perturbation import (
    SyncResult,
    _apply_maps,
    _float_or_array,
    _peak_and_strength,
    _population_shifts,
    _response_maps,
    coherence_response,
    hs_norm,
    sync_from_coherences,
    sync_measure,
)
from .signals import SignalSpec, from_equatorial_angles, require_finite
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

# van der Pol gain Sz S+ - S+ Sz / sqrt(2) and loss S-^2 / sqrt(2)
_VDP_GAIN = SZ @ SP - SP @ SZ / SQRT2
_VDP_LOSS = SM @ SM / SQRT2


def _unit(i: int, j: int) -> np.ndarray:
    mat = np.zeros((3, 3), dtype=complex)
    mat[i, j] = 1.0
    return mat


def equatorial_limit_cycle(
    gamma_g: float, gamma_d: float, detuning: float = 0.0
) -> LimitCycleSpec:
    """Gain S+ Sz at gamma_g and damping S- Sz at gamma_d."""
    _require_positive(gamma_g=gamma_g, gamma_d=gamma_d)
    return LimitCycleSpec(((SP @ SZ, gamma_g), (SM @ SZ, gamma_d)), detuning)


def vdp_limit_cycle(
    gamma_g: float, gamma_d: float, detuning: float = 0.0
) -> LimitCycleSpec:
    """Van der Pol cycle: single-excitation gain against two-excitation loss."""
    _require_positive(gamma_g=gamma_g, gamma_d=gamma_d)
    return LimitCycleSpec(((_VDP_GAIN, gamma_g), (_VDP_LOSS, gamma_d)), detuning)


def asymmetric_equatorial_limit_cycle(
    gamma_g: float, gamma_d: float, gamma_dp: float, detuning: float = 0.0
) -> LimitCycleSpec:
    """Equatorial cycle plus the third decay channel Sz S- at gamma_dp."""
    _require_positive(gamma_g=gamma_g, gamma_d=gamma_d, gamma_dp=gamma_dp)
    return LimitCycleSpec(
        ((SP @ SZ, gamma_g), (SM @ SZ, gamma_d), (SZ @ SM, gamma_dp)), detuning
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
    pump = 4.0 * np.asarray(cooperativity, dtype=float) * gamma_0m1
    return LimitCycleSpec(
        ((_unit(1, 0), gamma_10), (_unit(2, 1), gamma_0m1), (_unit(1, 2), pump)),
        detuning,
    )


def _require_positive(**rates) -> None:
    for name, value in rates.items():
        value = np.asarray(value, dtype=float)
        bad = ~((value > 0.0) & (value < math.inf))
        if bad.any():
            raise InvalidValueError(
                f"{name} must be positive and finite" + _where(bad, value)
            )


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
        raise InvalidValueError(
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
    adag, asq = truncated_oscillator_ops()
    return {
        "gain_max_abs_diff": float(np.abs(_VDP_GAIN - adag).max()),
        "loss_max_abs_diff": float(np.abs(_VDP_LOSS - asq).max()),
        "cos1_weight_ratio": COS1_WEIGHT / OSC_COS1_WEIGHT,
        "cos2_weight_ratio": COS2_WEIGHT / COS2_WEIGHT,
    }


# ---------------------------------------------------------------------------
# closed forms


def equatorial_response_geometry(gamma_g, gamma_d, delta=0.0):
    """Amplitude ratio r and interference angle alpha of the equatorial
    cycle's two single-quantum responses at detuning delta.  Broadcasts over
    numpy arguments; floats for scalars."""
    _require_positive(gamma_g=gamma_g, gamma_d=gamma_d)
    r = np.sqrt((gamma_g**2 + delta**2) / (gamma_d**2 + delta**2))
    alpha = np.angle(1.0 / ((gamma_g - 1j * delta) * (gamma_d + 1j * delta)))
    return _float_or_array(r), _float_or_array(alpha)


def equatorial_sync_closed(zeta, chi, gamma_g, gamma_d, delta=0.0, eta=0.1):
    """Measure of the equatorial cycle for tones (cos zeta e^{i chi}, sin zeta).

    Exact at all rates and detunings.  Broadcasts over numpy arguments.
    """
    r, alpha = equatorial_response_geometry(gamma_g, gamma_d, delta)
    denom = r * np.cos(zeta) ** 2 + np.sin(zeta) ** 2 / r
    # 1 - 2 sin(zeta) cos(zeta) cos(chi + alpha) / denom = |w|^2 / denom,
    # without that difference's cancellation
    w = np.sqrt(r) * np.cos(zeta) * np.exp(1j * (chi + alpha))
    w = w - np.sin(zeta) / np.sqrt(r)
    return _float_or_array(eta * (3.0 / 16.0) * np.abs(w) / np.sqrt(denom))


def equatorial_optimal_angles(
    gamma_g: float, gamma_d: float, delta: float = 0.0
) -> tuple[float, float]:
    """Angles giving equal response amplitudes and constructive interference."""
    r, alpha = equatorial_response_geometry(gamma_g, gamma_d, delta)
    return math.atan(r), float((math.pi - alpha) % (2.0 * math.pi))


def blockade_sync_closed(gamma_g, gamma_d, delta, eta=0.1):
    """Measure at fixed tone phase chi = 0 with equal response amplitudes.

    Destructive interference suppresses synchronization on resonance; a
    finite detuning rotates the two coherences by different angles and
    partially lifts the blockade, peaking at |delta| = sqrt(gamma_g gamma_d).
    Symmetric under exchanging the two rates and even in delta.  Broadcasts
    over numpy arguments.
    """
    lag = np.arctan2((gamma_d - gamma_g) * delta, gamma_d * gamma_g + delta**2)
    # sqrt(1 - cos(lag)) without its cancellation at small lags
    return _float_or_array(eta * (3.0 / 16.0) * SQRT2 * np.abs(np.sin(lag / 2.0)))


def blockade_sync(gamma_g, gamma_d, delta, eta=0.1):
    """:func:`blockade_sync_closed` through the generic pipeline, from one
    stacked build and one measure call: tones (cos zeta, sin zeta) with tan
    zeta = r of :func:`equatorial_response_geometry`.  Broadcasts over numpy
    arguments; a float for scalars."""
    zeta = np.arctan(equatorial_response_geometry(gamma_g, gamma_d, delta)[0])
    lc = equatorial_limit_cycle(gamma_g, gamma_d, delta)
    return sync_measure(lc, from_equatorial_angles(zeta, 0.0), eta).value


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


def vdp_optimal_squeeze_ratio(gamma_g, gamma_d, delta=0.0):
    """Squeezing-to-semiclassical ratio maximizing the deep-quantum form.
    Broadcasts over numpy arguments."""
    u = np.sqrt(9.0 * gamma_g**2 + 4.0 * delta**2)
    return _float_or_array(4.0 * gamma_d / (3.0 * math.pi * u))


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
    raise InvalidValueError(f"unknown phase space {phase_space!r}")


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
    require_finite(signal)
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
        raise InvalidValueError(
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
        raise InvalidValueError("bound parametrization needs a nonzero correction")
    norm_term = eta * hs_norm(rho0)
    b, c = complex(params.adjacent), complex(params.extremal)
    # a unit population vector leaves the coherence factor alone
    coherence_term = sync_from_coherences(np.ones(1), (b, b, c), 1.0)
    return norm_term, coherence_term, norm_term * coherence_term


# ---------------------------------------------------------------------------
# signal optimization


@dataclass(frozen=True)
class OptimumReport:
    """Arg-optimum of a signal family on a fixed limit cycle; for a stack of
    cycles the value, each parameter and each tone are arrays of its shape.

    ``tau_ratio`` of ``vdp_general`` is unbounded, so its value is the
    ceiling smax(eta) ||rho0|| wherever map1 is nonsingular and map2 != 0;
    it is the single-quantum optimum, with tau_ratio = 0, where map2 = 0 or
    the optimal ratio passes the double range (see :func:`optimize_signal`).
    """

    family: str
    params: dict[str, float | np.ndarray]
    value: float | np.ndarray
    eta: float
    signal: SignalSpec


def stationary_squeeze_ratio(r_10, r_0m1, map2):
    """Squeezing ratio tau maximizing the aligned measure of the van der Pol
    signal at fixed single-quantum coherences: the measure is (a + b tau) /
    sqrt(c + d tau^2), peaked at tau = b c / (a d).  Broadcasts over numpy
    coherences; inf where their sum vanishes or the ratio passes the double
    range, nan where both coherences vanish."""
    amp1 = COS1_WEIGHT * np.abs(r_10 + r_0m1)
    base = 2.0 * (np.square(np.abs(r_10)) + np.square(np.abs(r_0m1)))
    num, den = np.broadcast_arrays(COS2_WEIGHT * base, SQRT2 * amp1 * np.abs(map2))
    # divide only where num / den < 2^1023; elsewhere inf, or nan where num is 0
    out = np.where(num > 0.0, np.inf, np.nan)
    return np.divide(num, den, out=out, where=den > num * 2.0**-1023)[()]


def optimize_signal(
    lc: LimitCycleSpec, family: str, eta: float = 0.1
) -> OptimumReport:
    """Closed-form optimum of a signal family on a fixed limit cycle.

    Families: ``"equatorial_angles"``, parameters (zeta, chi), tones
    t = (t01, tm10) = (cos zeta e^{i chi}, sin zeta); ``"vdp_general"``,
    (zeta, chi, tau_ratio), tones (cos zeta e^{i chi}, sin zeta / sqrt 2) and
    an aligned squeezing tone tau_ratio / sqrt 2.  Either way t^H E t = 1,
    with E = diag(1, 2) for ``vdp_general`` and the identity otherwise.

    With aligned harmonics the single-quantum part of the measure is largest
    where map1 t is proportional to (1, 1), so the tones solve
    map1 t* = (1, 1), and tau_ratio is :func:`stationary_squeeze_ratio` at
    t* (0 for ``equatorial_angles``).  By Cauchy-Schwarz, ``vdp_general``
    then reaches the ceiling smax(eta) ||rho0|| wherever map1 is nonsingular
    and map2 != 0.  Without squeezing response (map2 = 0), or where tau_ratio
    would pass the double range, tau_ratio is 0 and the value is the
    single-quantum optimum.  zeta and chi are read off the tones with t01
    real, chi in [0, 2 pi).

    Degenerate optima: an exactly singular map1 (``vdp_limit_cycle(g, g)``,
    where t01 does not couple) has a ridge of maxima, and t* is its
    minimum-norm least-squares point, with chi = 0 whenever t01 = 0.  Only an
    exactly zero singular value counts: a map1 singular to rounding still
    gives the tones of its (1, 1) response.  A cycle without first-order
    response (equal populations) reports value 0 and zeta = chi = tau_ratio = 0.
    """
    if family not in ("equatorial_angles", "vdp_general"):
        raise InvalidValueError(f"unknown signal family {family!r}")
    require_single(lc, "optimize_signal")
    return _optimum(*_response_maps(build_liouvillian(lc)), family, eta)


def _optimum(pops, map1, map2, family: str, eta: float) -> OptimumReport:
    """:func:`optimize_signal` from the populations of rho0, shape (..., 3),
    and the response maps, ``map1`` of shape (..., 2, 2) and ``map2`` of
    shape (...), of a stack of cycles: the value, the parameters and the
    tones are arrays of the stack's shape, floats for one cycle."""
    map2 = np.asarray(map2)
    # the optimum depends on the maps only up to a common factor: scale each
    # cell exactly, by a power of two, to a largest modulus in [1/2, 1)
    biggest = np.maximum(np.abs(map1).max(axis=(-2, -1)), np.abs(map2))
    factor = np.ldexp(1.0, -np.frexp(biggest)[1])
    map1, map2 = map1 * factor[..., None, None], map2 * factor
    vdp = family == "vdp_general"
    scale = SQRT2 if vdp else 1.0  # tm10 = sin(zeta) / scale
    # the minimum-norm solution of map1 t = (1, 1); rtol = 0 cuts only exactly
    # zero singular values, so a map1 singular to rounding keeps its solution
    tones = np.linalg.pinv(map1, rtol=0.0).sum(axis=-1)
    # no first-order response: every tone gives 0, report zeta = 0
    tones = np.where(map1.any(axis=(-2, -1))[..., None], tones, [1.0, 0.0])
    # scale exactly, by a power of two, to a largest modulus in [1/2, 1), so
    # the norm of a nearly singular map1's tones does not overflow
    exponent = np.frexp(np.abs(tones).max(axis=-1))[1]
    tones = tones * np.ldexp(1.0, -exponent)[..., None]
    tones = tones / np.sqrt(np.square(np.abs(tones)) @ [1.0, scale**2])[..., None]
    # 0-d arrays for one cycle: numpy scalars can round a complex product
    # apart from the array loops
    t01, tm10 = tones[..., 0], tones[..., 1]
    tau = np.zeros(map2.shape)
    if vdp:
        r_10, r_0m1 = np.moveaxis((map1 @ tones[..., None])[..., 0], -1, 0)
        ratio = stationary_squeeze_ratio(r_10, r_0m1, map2)
        # map2 = 0, or a ratio past the double range: the single-quantum optimum
        tau = np.where(np.isfinite(ratio), ratio, 0.0)
    r_10, r_0m1, _ = _apply_maps(map1, map2, SignalSpec(t01, tm10))
    squeezed = np.abs(map2) * (tau / SQRT2)
    value = sync_from_coherences(pops, (r_10, r_0m1, squeezed), eta)
    zeta = np.arctan2(np.abs(tm10) * scale, np.abs(t01))
    # a phase just below 0 rounds to 2 pi under the first modulo
    phase = np.angle(t01 * np.conj(tm10)) % math.tau % math.tau
    chi = np.where(t01 != 0, phase, 0.0)
    params = {"zeta": _float_or_array(zeta), "chi": _float_or_array(chi)}
    signal = from_equatorial_angles(params["zeta"], params["chi"])
    if vdp:
        params["tau_ratio"] = _float_or_array(tau)
        tm11 = params["tau_ratio"] / SQRT2 + 0j
        signal = _align_on_maps(
            map1, map2, SignalSpec(signal.t01, signal.tm10 / SQRT2, tm11)
        )
    return OptimumReport(
        family=family,
        params=params,
        value=value,
        eta=eta,
        signal=signal,
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
    replaced by the array ``detunings``: one generator build of that stack
    and one measure call on its coherences serve the whole grid."""
    require_single(lc, "arnold_tongue")
    require_finite(signal)
    detunings = np.asarray(detunings, dtype=float)
    pops, map1, map2 = _response_maps(build_liouvillian(lc.with_detuning(detunings)))
    coherences = _apply_maps(map1, map2, signal)
    return _tongue_grid(pops, coherences, detunings, strengths, eta)


def _tongue_grid(
    pops: np.ndarray,
    coherences,
    detunings: np.ndarray,
    strengths: np.ndarray,
    eta: float,
) -> TongueGrid:
    """:func:`arnold_tongue` from the populations of rho0 and the
    first-order coherences at each detuning."""
    strengths = np.asarray(strengths, dtype=float)
    bad = ~((strengths >= 0.0) & (strengths < math.inf))
    if bad.any():
        raise InvalidValueError(
            "tongue strengths must be non-negative and finite" + _where(bad, strengths)
        )
    _, (peak, _), eps_max = _peak_and_strength(pops, coherences, eta)
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
    """Largest population deformation of the exact state along a strength grid.

    The exact driven states of the whole grid come from one stacked solve
    (see :func:`~spinsync.perturbation.full_steady_state`), which holds every
    strength's 9x9 generator at once: pass one curve, a few hundred strengths
    at most.  A strength whose driven generator has no unique stationary
    state raises :class:`~spinsync.perturbation.DegenerateSteadyStateError`
    naming it and its index in ``strengths``.
    """
    return _pmax_curves(build_liouvillian(lc), [signal], strengths)[0]


def _pmax_curves(
    liou: Liouvillian, signals: list[SignalSpec], strengths: np.ndarray
) -> np.ndarray:
    """:func:`pmax_forcing_curve` of each signal on one built generator: the
    populations of rho0 once and one stacked exact solve per curve, shape
    (len(signals), len(strengths))."""
    shifts = _population_shifts(liou, _populations(liou), signals, strengths)
    return np.abs(shifts).max(axis=-1)


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
    liou = build_liouvillian(vdp_limit_cycle(gamma_g, gamma_d))
    signals = [SignalSpec(float(r) + 0j, 1.0 / SQRT2 + 0j, 0j) for r in r_values]
    curves = _pmax_curves(liou, signals, strengths)
    return {
        float(r): {"curve": curve, "analysis": detect_interior_peak(strengths, curve)}
        for r, curve in zip(r_values, curves)
    }
