"""Acceptance checks for the whole pipeline, used by ``spinsync validate``.

Each check compares the generic numeric machinery against an independent
reference: closed-form expressions, numerical quadrature of the phase-space
definition, fitted scaling exponents, or frozen benchmark constants.  The
checks are deterministic (seeded random sampling).

The random-scenario checks (criteria 2 and 9) run on the CLI's stacked
kernel: each random cycle is built once, the kernels ``(pops, map1, map2)``
of all draws are stacked, and one ``_apply_maps`` and one ``_measure`` call
evaluate the whole check.  The quadrature oracle takes all its states at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .catalog import (
    EQUATORIAL_OPTIMAL_VALUE,
    EQUATORIAL_SEMICLASSICAL_LIMIT,
    VDP_OPTIMAL_LIMIT,
    VDP_SEMICLASSICAL_LIMIT,
    VDP_SQUEEZE_LIMIT,
    BoundParams,
    _align_on_maps,
    align_squeeze_phase,
    asymmetric_equatorial_limit_cycle,
    blockade_sync,
    bound_terms,
    cooperativity_limit_cycle,
    equatorial_limit_cycle,
    equatorial_optimal_angles,
    equatorial_sync_closed,
    pmax_failure_sweep,
    smax,
    sync_from_coherences,
    tightness_scenario,
    truncated_oscillator_ops,
    vdp_first_order_closed,
    vdp_limit_cycle,
    vdp_optimal_params,
    vdp_optimal_squeeze_ratio,
    vdp_oscillator_equivalence,
)
from .lindblad import (
    DegenerateLimitCycleError,
    LimitCycleSpec,
    Liouvillian,
    _target_state,
    build_liouvillian,
    steady_state,
)
from .perturbation import (
    SingularCoherenceBlockError,
    _apply_maps,
    _measure,
    _response_maps,
    _rho1,
    first_order,
    full_steady_state,
    hs_norm,
    perturbation_result,
    perturbative_orders,
    sync_measure,
)
from .signals import SignalSpec, from_equatorial_angles, semiclassical
from .spin import SQRT2, _coherent_amplitudes, phase_distribution_terms

# 128-point Gauss-Legendre rule in theta, the weights times sin(theta)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)
_THETA = 0.5 * np.pi * (_GL_NODES + 1.0)
_THETA_WEIGHTS = 0.5 * np.pi * _GL_WEIGHTS * np.sin(_THETA)


@dataclass(frozen=True)
class CheckResult:
    """One acceptance check with its expected and observed values."""

    criterion: int
    name: str
    passed: bool
    expected: str
    actual: str
    tolerance: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.criterion}. {self.name}: "
            f"expected {self.expected}, got {self.actual} (tol {self.tolerance})"
        )


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def shifted_phase_by_quadrature(rho: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Shifted phase distribution by Gauss-Legendre integration over the
    polar angle of the Husimi function; independent of the closed form.
    ``rho`` is one 3x3 state or a stack of shape (..., 3, 3); the result has
    shape (..., len(phis))."""
    th, ph = np.meshgrid(_THETA, phis, indexing="ij")
    amps = _coherent_amplitudes(th, ph)
    q = np.einsum("tpi,...ij,tpj->...tp", amps.conj(), rho, amps).real * (
        3.0 / (4.0 * np.pi)
    )
    return _THETA_WEIGHTS @ q - 1.0 / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# random sampling helpers


def _random_limit_cycle(rng: np.random.Generator) -> Liouvillian:
    """The generator of a random cycle with a unique target state."""
    while True:
        dissipators = []
        for _ in range(int(rng.integers(2, 4))):
            k = int(rng.integers(-2, 3))
            op = np.zeros((3, 3), dtype=complex)
            for i in range(3):
                j = i + k
                if 0 <= j < 3:
                    op[i, j] = rng.normal() + 1j * rng.normal()
            if not op.any():
                continue
            dissipators.append((op, float(rng.uniform(0.1, 3.0))))
        if len(dissipators) < 2:
            continue
        spec = LimitCycleSpec(tuple(dissipators), detuning=float(rng.normal() * 2.0))
        liou = build_liouvillian(spec)
        try:
            steady_state(liou)
        except DegenerateLimitCycleError:
            continue
        return liou


def _random_signal(rng: np.random.Generator, squeeze: bool) -> SignalSpec:
    t01 = complex(rng.normal(), rng.normal())
    tm10 = complex(rng.normal(), rng.normal())
    tm11 = complex(rng.normal(), rng.normal()) if squeeze else 0j
    if t01 == 0 and tm10 == 0 and tm11 == 0:
        return _random_signal(rng, squeeze)
    return SignalSpec(t01, tm10, tm11)


def _random_scenarios(rng: np.random.Generator):
    """Endless random cycles' kernels ``(pops, map1, map2)`` with a random
    signal (squeezed at even odds), skipping undamped coherence blocks; lazy,
    so the caller may draw from ``rng`` between scenarios."""
    while True:
        liou = _random_limit_cycle(rng)
        sig = _random_signal(rng, squeeze=bool(rng.integers(0, 2)))
        try:
            kernel = _response_maps(liou)
        except SingularCoherenceBlockError:
            continue
        yield kernel, sig


def _stacked(draws):
    """Stack ``draws``, each a kernel and k signals: the kernels along a new
    first axis, the signals as one :class:`SignalSpec` of shape (k, draws)."""
    kernels, *signals = zip(*draws)
    pops, map1, map2 = (np.stack(x) for x in zip(*kernels))
    tones = np.array([[(s.t01, s.tm10, s.tm11) for s in col] for col in signals])
    return pops, map1, map2, SignalSpec(*np.moveaxis(tones, -1, 0))


# ---------------------------------------------------------------------------
# criterion 1: benchmark table


def table_one_rows() -> list[dict]:
    """The five benchmark combinations of limit cycle and signal."""
    gg, ratio = 1.0, 1000.0
    gd = gg * ratio
    rows = []

    vdp = vdp_limit_cycle(gg, gd)
    sig = SignalSpec(1.0, 1.0 / SQRT2, 0j)
    coh, pops = vdp_first_order_closed(sig, gg, gd)
    rows.append(
        {
            "limit_cycle": "van der Pol",
            "signal": "semi-classical",
            "lc": vdp,
            "sig": sig,
            "closed": sync_from_coherences(pops, coh, 1.0),
            "asymptote": VDP_SEMICLASSICAL_LIMIT,
        }
    )

    tau = vdp_optimal_squeeze_ratio(gg, gd)
    sig = align_squeeze_phase(vdp, SignalSpec(1.0, 1.0 / SQRT2, tau / SQRT2))
    coh, pops = vdp_first_order_closed(sig, gg, gd)
    rows.append(
        {
            "limit_cycle": "van der Pol",
            "signal": "semi-classical + squeezing",
            "lc": vdp,
            "sig": sig,
            "closed": sync_from_coherences(pops, coh, 1.0),
            "asymptote": VDP_SQUEEZE_LIMIT,
        }
    )

    zeta, tau_ratio = vdp_optimal_params(gg, gd)
    sig = align_squeeze_phase(
        vdp,
        SignalSpec(
            math.cos(zeta) + 0j, math.sin(zeta) / SQRT2 + 0j, tau_ratio / SQRT2
        ),
    )
    coh, pops = vdp_first_order_closed(sig, gg, gd)
    rows.append(
        {
            "limit_cycle": "van der Pol",
            "signal": "optimal",
            "lc": vdp,
            "sig": sig,
            "closed": sync_from_coherences(pops, coh, 1.0),
            "asymptote": VDP_OPTIMAL_LIMIT,
        }
    )

    equ = equatorial_limit_cycle(gg, gd)
    sig = semiclassical(0.0)
    rows.append(
        {
            "limit_cycle": "equatorial",
            "signal": "semi-classical",
            "lc": equ,
            "sig": sig,
            "closed": equatorial_sync_closed(math.pi / 4.0, 0.0, gg, gd, 0.0, 1.0),
            "asymptote": EQUATORIAL_SEMICLASSICAL_LIMIT,
        }
    )

    balanced = equatorial_limit_cycle(1.0, 1.0)
    zopt, copt = equatorial_optimal_angles(1.0, 1.0)
    rows.append(
        {
            "limit_cycle": "equatorial",
            "signal": "optimal",
            "lc": balanced,
            "sig": from_equatorial_angles(zopt, copt),
            "closed": EQUATORIAL_OPTIMAL_VALUE,
            "asymptote": EQUATORIAL_OPTIMAL_VALUE,
        }
    )
    return rows


def check_table_one() -> list[CheckResult]:
    out = []
    for row in table_one_rows():
        got = sync_measure(row["lc"], row["sig"], eta=0.1).value / 0.1
        ok_closed = abs(got - row["closed"]) <= 1e-8 * row["closed"]
        ok_asym = abs(got - row["asymptote"]) <= 1e-2 * row["asymptote"]
        out.append(
            CheckResult(
                1,
                f"benchmark table, {row['limit_cycle']} / {row['signal']}",
                ok_closed and ok_asym,
                f"{_fmt(row['closed'])} (-> {row['asymptote']:.3f})",
                _fmt(got),
                "rel 1e-8 closed form, rel 1e-2 asymptote",
            )
        )
    return out


# ---------------------------------------------------------------------------
# criterion 2: fundamental bound


def check_fundamental_bound() -> list[CheckResult]:
    out = []
    ceiling = smax(1.0)

    # independent maximization of the coherence factor over the ratio
    def product(t: float) -> float:
        return bound_terms(BoundParams(1.0, 0.0, t, 1.0), 1.0)[2]

    lo, hi = 0.0, 10.0
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        x1 = hi - inv * (hi - lo)
        x2 = lo + inv * (hi - lo)
        if product(x1) < product(x2):
            lo = x1
        else:
            hi = x2
    numeric_max = product(0.5 * (lo + hi))
    out.append(
        CheckResult(
            2,
            "spin ceiling vs numeric maximization",
            abs(numeric_max - ceiling) <= 1e-9
            and abs(ceiling - 0.2880584106657749) <= 1e-9,
            _fmt(ceiling),
            _fmt(numeric_max),
            "abs 1e-9",
        )
    )

    reached = tightness_scenario(1.0, 1.0, 1e-3, eta=0.1).value
    out.append(
        CheckResult(
            2,
            "tightness construction at gamma_dp/gamma_g = 1e-3",
            reached >= 0.999 * smax(0.1),
            f">= {_fmt(0.999 * smax(0.1))}",
            _fmt(reached),
            "fraction 0.999 of the ceiling",
        )
    )

    rng = np.random.default_rng(20240817)
    pops, map1, map2, sig = _stacked(islice(_random_scenarios(rng), 1000))
    worst = float(_measure(pops, _apply_maps(map1, map2, sig), 0.1).value.max())
    out.append(
        CheckResult(
            2,
            "1000 random scenarios stay below the ceiling",
            worst <= smax(0.1) + 1e-9,
            f"<= {_fmt(smax(0.1))}",
            _fmt(worst),
            "abs 1e-9",
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 3: phase-distribution quadrature oracle


def check_phase_oracle() -> list[CheckResult]:
    rng = np.random.default_rng(11)
    phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    states = []
    for _ in range(100):
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = mat + mat.conj().T
        states.append(rho / rho.trace().real)
    closed = [phase_distribution_terms(rho).evaluate(phis) for rho in states]
    quad = shifted_phase_by_quadrature(np.array(states), phis)
    worst = float(np.abs(np.array(closed) - quad).max())
    return [
        CheckResult(
            3,
            "closed form vs theta quadrature (100 states x 32 phases)",
            worst <= 1e-10,
            "<= 1e-10",
            f"{worst:.3e}",
            "abs 1e-10",
        )
    ]


# ---------------------------------------------------------------------------
# criterion 4: threshold rule


def check_epsilon_rule() -> list[CheckResult]:
    out = []
    eps = perturbation_result(
        equatorial_limit_cycle(1.0, 1.0), semiclassical(0.0), 0.1
    ).epsilon
    reference = 0.1 * 1.0 * 1.0 / math.sqrt(2.0)
    out.append(
        CheckResult(
            4,
            "balanced equatorial strength 0.0707107",
            abs(eps - reference) <= 1e-9 and abs(eps - 0.0707107) <= 1e-6,
            _fmt(reference),
            _fmt(eps),
            "abs 1e-9 vs rate formula",
        )
    )

    gg, gd = 1.0, 100.0
    deltas = np.linspace(0.0, 20.0, 81)
    val = sync_measure(equatorial_limit_cycle(gg, gd, deltas), semiclassical()).epsilon
    formula = 0.1 / np.sqrt(1.0 / (gd**2 + deltas**2) + 1.0 / (gg**2 + deltas**2))
    worst = float(np.abs(val - formula).max())
    monotone_ok = bool((val >= val[0] - 1e-12).all())
    out.append(
        CheckResult(
            4,
            "boundary formula over detuning in [0, 20]",
            worst <= 1e-9,
            "<= 1e-9",
            f"{worst:.3e}",
            "abs 1e-9",
        )
    )
    out.append(
        CheckResult(
            4,
            "snake-tongue property eps_max(delta) >= eps_max(0)",
            monotone_ok,
            "True",
            str(monotone_ok),
            "exact",
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 5: perturbative consistency


def check_perturbative_consistency() -> list[CheckResult]:
    scenarios = {
        "equatorial": equatorial_limit_cycle(1.0, 10.0, 0.3),
        "van der Pol": vdp_limit_cycle(1.0, 10.0, 0.3),
        "asymmetric equatorial": asymmetric_equatorial_limit_cycle(1.0, 1.0, 0.5, 0.3),
        "cooperativity": cooperativity_limit_cycle(1.0, 1.0, 1.0, 0.3),
    }
    sig = semiclassical(0.0)
    eps = np.array([1e-2, 1e-3, 1e-4])
    out = []
    for name, lc in scenarios.items():
        rho0, rho1 = perturbative_orders(lc, sig, 1)
        states = full_steady_state(lc, sig, eps)
        resid = [hs_norm(rho - rho0 - e * rho1) for rho, e in zip(states, eps)]
        slope = float(np.polyfit(np.log(eps), np.log(resid), 1)[0])
        out.append(
            CheckResult(
                5,
                f"second-order residual scaling, {name}",
                1.9 <= slope <= 2.1,
                "slope in [1.9, 2.1]",
                f"slope {_fmt(slope)}",
                "fit window",
            )
        )
    return out


# ---------------------------------------------------------------------------
# criterion 6: synchronization blockade


def check_blockade() -> list[CheckResult]:
    gg, gd, eta = 1.0, 1e4, 0.1
    out = []
    resonant = blockade_sync(gg, gd, 0.0, eta)
    out.append(
        CheckResult(
            6,
            "blockade on resonance",
            resonant < 1e-12,
            "< 1e-12",
            f"{resonant:.3e}",
            "abs 1e-12",
        )
    )
    deltas = np.linspace(10.0, 300.0, 291)
    values = blockade_sync(gg, gd, deltas, eta)
    argmax = float(deltas[int(np.argmax(values))])
    step = float(deltas[1] - deltas[0])
    expected = math.sqrt(gg * gd)
    out.append(
        CheckResult(
            6,
            "blockade peak position sqrt(gamma_g gamma_d)",
            abs(argmax - expected) <= step + 1e-12,
            _fmt(expected),
            _fmt(argmax),
            f"one grid step ({_fmt(step)})",
        )
    )
    peak = float(values.max())
    target = (3.0 / 16.0) * eta
    out.append(
        CheckResult(
            6,
            "blockade peak value toward 3/16 eta",
            abs(peak - target) <= 1e-3,
            _fmt(target),
            _fmt(peak),
            "abs 1e-3 at rate ratio 1e4",
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 7: oscillator equivalence


def check_oscillator_equivalence() -> list[CheckResult]:
    ops = vdp_oscillator_equivalence()
    diff = max(ops["gain_max_abs_diff"], ops["loss_max_abs_diff"])
    out = [
        CheckResult(
            7,
            "spin gain/loss equal truncated ladder operators",
            diff == 0.0,
            "0",
            f"{diff:.3e}",
            "exact",
        )
    ]

    # same cycle built from the ladder operators drives the same response
    spin_lc = vdp_limit_cycle(1.0, 50.0, 0.2)
    adag, asq = truncated_oscillator_ops()
    osc_lc = LimitCycleSpec(((adag, 1.0), (asq, 50.0)), 0.2)
    sig = SignalSpec(0.4 + 0.1j, 0.7, 0.3j)
    resp_diff = float(
        np.abs(first_order(spin_lc, sig) - first_order(osc_lc, sig)).max()
    )
    out.append(
        CheckResult(
            7,
            "identical first-order response on both platforms",
            resp_diff <= 1e-14,
            "<= 1e-14",
            f"{resp_diff:.3e}",
            "abs 1e-14",
        )
    )

    osc_bound = smax(1.0, "oscillator")
    reference = math.sqrt(3.0) / (2.0 * SQRT2 * math.pi)
    out.append(
        CheckResult(
            7,
            "oscillator ceiling 0.19492 eta",
            abs(osc_bound - reference) <= 1e-9
            and abs(osc_bound - 0.19492420030841903) <= 1e-9,
            _fmt(reference),
            _fmt(osc_bound),
            "abs 1e-9",
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 8: deformation-measure failure window


def check_appendix_deformation() -> list[CheckResult]:
    strengths = np.logspace(-2, 3, 101)
    sweep = pmax_failure_sweep([2.5], strengths, 1.0, 100.0)
    analysis = sweep[2.5]["analysis"]
    good = (
        analysis.get("has_interior_peak", False)
        and analysis.get("dips_below_fraction", False)
        and analysis.get("rises_after_dip", False)
    )
    desc = (
        f"peak {analysis.get('peak_value', float('nan')):.4f} "
        f"then dip {analysis.get('dip_value', float('nan')):.4f}"
        if analysis.get("has_interior_peak")
        else "no interior peak"
    )
    return [
        CheckResult(
            8,
            "population measure non-monotonic at r = 2.5",
            bool(good),
            "interior peak, dip below half, final rise",
            desc,
            "qualitative",
        )
    ]


# ---------------------------------------------------------------------------
# criterion 9: structural invariants


def check_structural_invariants() -> list[CheckResult]:
    rng = np.random.default_rng(90125)
    draws = []
    for kernel, sig in islice(_random_scenarios(rng), 200):
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-3:
            lam = 1.0 + 1j
        draws.append((kernel, sig, sig.scaled(lam)))
    pops, map1, map2, pair = _stacked(draws)
    # the squeezing phase is the aligned one on both sides, matching the
    # convention that both harmonics localize the same phase (an unsqueezed
    # signal is left as it is); rho1 is checked for both signals of a draw
    coherences = _apply_maps(map1, map2, _align_on_maps(map1, map2, pair))
    rho1 = _rho1(coherences)
    worst_offdiag = float(np.abs(rho1.diagonal(axis1=-2, axis2=-1)).max())
    worst_trace = float(np.abs(np.trace(rho1, axis1=-2, axis2=-1)).max())
    rho0 = _target_state(pops)
    worst_rho0 = max(
        float(np.abs(rho0[..., ~np.eye(3, dtype=bool)]).max()),
        max(0.0, -float(rho0.diagonal(axis1=-2, axis2=-1).real.min())),
        float(np.abs(np.trace(rho0, axis1=-2, axis2=-1).real - 1.0).max()),
    )
    value = _measure(pops, coherences, 0.1).value
    worst_scale = float(np.abs(value[0] - value[1]).max())
    out = [
        CheckResult(
            9,
            "first order strictly off-diagonal and traceless",
            worst_offdiag <= 1e-13 and worst_trace <= 1e-13,
            "<= 1e-13",
            f"{max(worst_offdiag, worst_trace):.3e}",
            "abs 1e-13",
        ),
        CheckResult(
            9,
            "target states diagonal, positive, normalized",
            worst_rho0 <= 1e-12,
            "<= 1e-12",
            f"{worst_rho0:.3e}",
            "abs 1e-12",
        ),
        CheckResult(
            9,
            "measure invariant under signal rescaling (200 cases)",
            worst_scale <= 1e-12,
            "<= 1e-12",
            f"{worst_scale:.3e}",
            "abs 1e-12",
        ),
    ]
    return out


CHECK_GROUPS = (
    check_table_one,
    check_fundamental_bound,
    check_phase_oracle,
    check_epsilon_rule,
    check_perturbative_consistency,
    check_blockade,
    check_oscillator_equivalence,
    check_appendix_deformation,
    check_structural_invariants,
)


def run_all() -> list[CheckResult]:
    """Run every acceptance check and return the results in order."""
    results: list[CheckResult] = []
    for group in CHECK_GROUPS:
        results.extend(group())
    return results
