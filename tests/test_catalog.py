import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsync.catalog import (
    EQUATORIAL_OPTIMAL_VALUE,
    OPTIMAL_COHERENCE_RATIO,
    SMAX_OSC_COEFF,
    SMAX_SPIN_COEFF,
    VDP_OPTIMAL_LIMIT,
    VDP_SEMICLASSICAL_LIMIT,
    VDP_SQUEEZE_INFINITE_TAU_LIMIT,
    VDP_SQUEEZE_LIMIT,
    BoundParams,
    _optimum,
    align_squeeze_phase,
    arnold_tongue,
    asymmetric_equatorial_limit_cycle,
    blockade_sync,
    blockade_sync_closed,
    bound_terms,
    cooperativity_limit_cycle,
    detect_interior_peak,
    equatorial_first_order_closed,
    equatorial_limit_cycle,
    equatorial_optimal_angles,
    equatorial_response_geometry,
    equatorial_sync_closed,
    make_limit_cycle,
    optimize_signal,
    pmax_failure_sweep,
    smax,
    stationary_squeeze_ratio,
    sync_from_coherences,
    tightness_scenario,
    tightness_sync_closed,
    vdp_first_order_closed,
    vdp_limit_cycle,
    vdp_optimal_params,
    vdp_optimal_squeeze_ratio,
    vdp_oscillator_equivalence,
    vdp_squeeze_sync_closed,
)
from spinsync.errors import InvalidValueError
from spinsync.lindblad import LimitCycleSpec, build_liouvillian, steady_state
from spinsync.perturbation import (
    _response_maps,
    coherence_response,
    first_order,
    sync_measure,
)
from spinsync.signals import SignalSpec, from_equatorial_angles, semiclassical
from spinsync.spin import COS1_WEIGHT, COS2_WEIGHT, SM, SP, SQRT2


class TestScenarios:
    def test_dispatcher(self):
        lc = make_limit_cycle("equatorial", gamma_g=1.0, gamma_d=2.0)
        assert len(lc.dissipators) == 2

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            make_limit_cycle("pendulum")

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            equatorial_limit_cycle(0.0, 1.0)

    def test_asymmetric_populations(self):
        gg, gdp = 2.0, 0.5
        lc = asymmetric_equatorial_limit_cycle(gg, 1.0, gdp)
        rho0 = steady_state(build_liouvillian(lc))
        expected = [0.0, gg / (gg + gdp), gdp / (gg + gdp)]
        assert np.allclose(rho0.diagonal().real, expected, atol=1e-13)

    def test_cooperativity_populations(self):
        rho0 = steady_state(build_liouvillian(cooperativity_limit_cycle(3.0)))
        assert np.allclose(rho0.diagonal().real, [0.0, 12 / 13, 1 / 13], atol=1e-13)

    def test_cooperativity_eighth_gives_vdp_occupations(self):
        rho0 = steady_state(build_liouvillian(cooperativity_limit_cycle(1 / 8)))
        assert np.allclose(rho0.diagonal().real, [0.0, 1 / 3, 2 / 3], atol=1e-13)


class TestOscillatorEquivalence:
    def test_entrywise_equality(self):
        report = vdp_oscillator_equivalence()
        assert report["gain_max_abs_diff"] == 0.0
        assert report["loss_max_abs_diff"] == 0.0
        assert report["cos1_weight_ratio"] == pytest.approx(
            3 * math.pi / (4 * SQRT2)
        )


class TestEquatorialClosedForm:
    def test_matches_pipeline_on_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gg = float(rng.uniform(0.2, 3.0))
            gd = float(rng.uniform(0.2, 30.0))
            delta = float(rng.normal() * 3)
            zeta = float(rng.uniform(0.0, math.pi / 2))
            chi = float(rng.uniform(0.0, 2 * math.pi))
            closed = equatorial_sync_closed(zeta, chi, gg, gd, delta, 0.1)
            lc = equatorial_limit_cycle(gg, gd, delta)
            res = sync_measure(lc, from_equatorial_angles(zeta, chi), 0.1)
            assert res.value == pytest.approx(closed, abs=1e-10)

    def test_resonant_semiclassical_form(self):
        gg, gd = 1.0, 4.0
        val = equatorial_sync_closed(math.pi / 4, 0.0, gg, gd, 0.0, 1.0)
        expected = (3 / 16) * math.sqrt(1 - 2 * gd * gg / (gd**2 + gg**2))
        assert val == pytest.approx(expected)

    def test_optimal_angles_reach_maximum(self):
        for delta in (0.0, 1.0, 10.0):
            zeta, chi = equatorial_optimal_angles(1.0, 5.0, delta)
            val = equatorial_sync_closed(zeta, chi, 1.0, 5.0, delta, 1.0)
            assert val == pytest.approx(EQUATORIAL_OPTIMAL_VALUE, abs=1e-12)

    def test_balanced_zeta_sweep_bounded(self):
        values = [
            equatorial_sync_closed(z, 0.0, 1.0, 1.0, 0.0, 1.0)
            for z in np.linspace(0, math.pi / 2, 41)
        ]
        assert max(values) <= 3 / 16 + 1e-12
        # zero up to the rounding of pi / 4: the exact value there is 8.1e-18
        blockade = equatorial_sync_closed(math.pi / 4, 0.0, 1.0, 1.0, 0.0, 1.0)
        assert abs(blockade) <= 3 / 16 * np.finfo(float).eps

    def test_matches_mpmath(self):
        """Against the measure's defining form in 50 digits.  Near the
        blockade w = a e^{i(chi + alpha)} - b = 0 (a = sqrt(r) cos zeta,
        b = sin zeta / sqrt(r)) the inputs' rounding alone moves the measure
        by about u (|a| + |b|) / |w| relative; the closed form stays within a few
        times that, where the difference 1 - interference loses its square."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        with mp.workdps(50):
            for n in range(400):
                gd = 10.0 ** rng.uniform(-3.0, 4.0)
                delta = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 4.0)
                zeta, chi = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2 * math.pi)
                if n % 2:  # near the blockade: tan zeta = r, chi = -alpha
                    r, alpha = equatorial_response_geometry(1.0, gd, delta)
                    off = rng.choice([-1, 1], 2) * 10.0 ** rng.uniform(-6, -1, 2)
                    zeta, chi = math.atan(r) * (1.0 + off[0]), off[1] - alpha
                z, c, d = mp.mpf(zeta), mp.mpf(chi), mp.mpf(delta)
                r = mp.sqrt((1 + d**2) / (mp.mpf(gd) ** 2 + d**2))
                alpha = mp.arg(1 / ((1 - 1j * d) * (gd + 1j * d)))
                a, b = mp.sqrt(r) * mp.cos(z), mp.sin(z) / mp.sqrt(r)
                denom = a**2 + b**2
                interference = 2 * mp.sin(z) * mp.cos(z) * mp.cos(c + alpha) / denom
                exact = mp.mpf(3) / 16 * mp.sqrt(1 - interference)
                w = mp.sqrt(denom * (1 - interference))
                value = equatorial_sync_closed(zeta, chi, 1.0, gd, delta, 1.0)
                tol = 8 * np.finfo(float).eps * (abs(a) + abs(b)) / w
                assert abs(value - exact) <= tol * exact


class TestVdpClosedForms:
    def test_optimal_squeeze_value(self):
        gg, gd = 1.0, 1000.0
        tau = vdp_optimal_squeeze_ratio(gg, gd)
        val = vdp_squeeze_sync_closed(tau, gg, gd, 0.0, 1.0)
        assert val == pytest.approx(VDP_SQUEEZE_LIMIT)

    def test_no_squeezing_value(self):
        assert vdp_squeeze_sync_closed(0.0, 1.0, 1000.0, 0.0, 1.0) == pytest.approx(
            math.sqrt(5) * 3 * math.pi / (48 * math.pi)
        )
        assert VDP_SEMICLASSICAL_LIMIT == pytest.approx(math.sqrt(5) / 16)

    def test_large_squeezing_limit(self):
        val = vdp_squeeze_sync_closed(1e9, 1.0, 1000.0, 0.0, 1.0)
        assert val == pytest.approx(VDP_SQUEEZE_INFINITE_TAU_LIMIT, rel=1e-5)

    def test_pipeline_matches_exact_coherences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gg = float(rng.uniform(0.3, 2.0))
            gd = float(rng.uniform(1.0, 50.0))
            delta = float(rng.normal())
            spec = SignalSpec(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
                float(rng.uniform(0.0, 2.0)),
            )
            lc = vdp_limit_cycle(gg, gd, delta)
            aligned = align_squeeze_phase(lc, spec)
            coh, pops = vdp_first_order_closed(aligned, gg, gd, delta)
            rho1 = first_order(lc, aligned)
            assert rho1[0, 1] == pytest.approx(coh[0], abs=1e-12)
            assert rho1[1, 2] == pytest.approx(coh[1], abs=1e-12)
            assert abs(rho1[0, 2]) == pytest.approx(abs(coh[2]), abs=1e-12)
            res = sync_measure(lc, aligned, 0.1)
            closed = sync_from_coherences(pops, coh, 0.1)
            assert res.value == pytest.approx(closed, rel=1e-10)

    def test_asymptotic_agreement_deep_in_quantum_regime(self):
        # finite-rate corrections scale like gamma_g/gamma_d with a coefficient
        # of a few, so the 1e-3 window needs a rate ratio of 1e4
        gg, gd = 1.0, 1e4
        lc = vdp_limit_cycle(gg, gd)
        for tau in (0.0, 30.0, vdp_optimal_squeeze_ratio(gg, gd), 4000.0):
            spec = align_squeeze_phase(
                lc, SignalSpec(1.0, 1.0 / SQRT2, tau / SQRT2)
            )
            res = sync_measure(lc, spec, 0.1)
            closed = vdp_squeeze_sync_closed(tau, gg, gd, 0.0, 0.1)
            assert res.value == pytest.approx(closed, rel=1e-3)

    def test_optimal_parameters_reach_reported_maximum(self):
        gg, gd = 1.0, 1000.0
        zeta, tau = vdp_optimal_params(gg, gd)
        lc = vdp_limit_cycle(gg, gd)
        spec = align_squeeze_phase(
            lc,
            SignalSpec(math.cos(zeta), math.sin(zeta) / SQRT2, tau / SQRT2),
        )
        res = sync_measure(lc, spec, 0.1)
        coh, pops = vdp_first_order_closed(spec, gg, gd)
        assert res.value == pytest.approx(
            sync_from_coherences(pops, coh, 0.1), rel=1e-10
        )
        assert res.value / 0.1 == pytest.approx(VDP_OPTIMAL_LIMIT, rel=1e-2)


class TestBlockade:
    def test_resonant_suppression(self):
        assert blockade_sync_closed(1.0, 100.0, 0.0) == 0.0

    def test_peak_at_geometric_mean(self):
        gg, gd = 1.0, 100.0
        star = math.sqrt(gg * gd)
        peak = blockade_sync_closed(gg, gd, star)
        for delta in (0.8 * star, 1.25 * star):
            assert blockade_sync_closed(gg, gd, delta) < peak

    def test_peak_value_from_lag_angle(self):
        gg, gd, delta = 1.0, 100.0, 10.0
        lag = math.atan((gd - gg) * delta / (gd * gg + delta**2))
        expected = 0.1 * (3 / 16) * math.sqrt(1 - math.cos(lag))
        assert blockade_sync_closed(gg, gd, delta) == pytest.approx(expected)

    def test_rate_swap_symmetry_and_even_detuning(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            gg = float(rng.uniform(0.2, 3.0))
            gd = float(rng.uniform(0.2, 30.0))
            delta = float(rng.normal() * 5)
            a = blockade_sync_closed(gg, gd, delta)
            assert blockade_sync_closed(gd, gg, delta) == pytest.approx(a)
            assert blockade_sync_closed(gg, gd, -delta) == pytest.approx(a)

    def test_closed_form_matches_mpmath(self):
        """Far off resonance the lag angle is small; the closed form keeps its
        digits there (a 50-digit reference)."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for gd in (3.0, 100.0, 1e4):
                for delta in np.geomspace(1e-2, 1e4, 61):
                    d = mp.mpf(delta)
                    lag = mp.atan2((gd - 1) * d, gd + d**2)
                    exact = mp.mpf(3) / 160 * mp.sqrt(1 - mp.cos(lag))
                    value = blockade_sync_closed(1.0, gd, delta)
                    assert abs(value - exact) <= 1e-15 * exact

    def test_stacked_pipeline_matches_points_and_closed_form(self):
        gg, eta = 1.0, 0.1
        gd = np.array([3.0, 100.0, 1e4])[:, None]
        deltas = np.geomspace(1e-2, 1e4, 13)
        values = blockade_sync(gg, gd, deltas, eta)
        assert values.shape == (3, 13)
        for (i, j), value in np.ndenumerate(values):
            r = equatorial_response_geometry(gg, gd[i, 0], deltas[j])[0]
            sig = from_equatorial_angles(np.arctan(r), 0.0)
            lc = equatorial_limit_cycle(gg, gd[i, 0], deltas[j])
            assert value == sync_measure(lc, sig, eta).value
        closed = blockade_sync_closed(gg, gd, deltas, eta)
        np.testing.assert_allclose(values, closed, rtol=1e-14, atol=0.0)

    def test_pipeline_agreement(self):
        gg, gd = 1.0, 100.0
        for delta in (1.0, 10.0, 40.0):
            zeta = math.atan(equatorial_response_geometry(gg, gd, delta)[0])
            lc = equatorial_limit_cycle(gg, gd, delta)
            res = sync_measure(lc, from_equatorial_angles(zeta, 0.0), 0.1)
            assert res.value == pytest.approx(
                blockade_sync_closed(gg, gd, delta, 0.1), abs=1e-10
            )


class TestBound:
    def test_pure_state_norm(self):
        norm_term, _, _ = bound_terms(BoundParams(1.0, 0.0, 1.0, 0.5), 0.1)
        assert norm_term == pytest.approx(0.1)

    def test_uniform_mixture_norm(self):
        norm_term, _, _ = bound_terms(BoundParams(1 / 3, 0.0, 1.0, 0.5), 0.1)
        assert norm_term == pytest.approx(0.1 / math.sqrt(3))

    def test_optimal_ratio_saturates_ceiling(self):
        params = BoundParams(1.0, 0.0, OPTIMAL_COHERENCE_RATIO, 1.0)
        _, _, product = bound_terms(params, 1.0)
        assert product == pytest.approx(SMAX_SPIN_COEFF, abs=1e-12)

    def test_without_double_quantum_coherence(self):
        _, coherence, _ = bound_terms(BoundParams(1.0, 0.0, 1.0, 0.0), 1.0)
        assert coherence == pytest.approx(3 / (8 * SQRT2))

    def test_unphysical_populations_rejected(self):
        with pytest.raises(ValueError):
            bound_terms(BoundParams(0.2, 0.9, 1.0, 0.0), 0.1)

    def test_ceilings(self):
        assert smax(0.1) == pytest.approx(0.1 * SMAX_SPIN_COEFF)
        assert smax(0.1, "oscillator") == pytest.approx(0.1 * SMAX_OSC_COEFF)
        assert smax(1.0) > smax(1.0, "oscillator")
        with pytest.raises(ValueError):
            smax(0.1, "torus")


class TestTightness:
    def test_closed_form_special_points(self):
        assert tightness_sync_closed(1.0, 1.0, 1.0) == pytest.approx(
            SMAX_SPIN_COEFF / math.sqrt(2)
        )
        assert tightness_sync_closed(1.0, 1e-3, 1.0) == pytest.approx(
            SMAX_SPIN_COEFF, abs=1e-3
        )

    def test_pipeline_follows_closed_form(self):
        # the closed form is the leading order in gamma_dp/gamma_g; the
        # pipeline approaches it quadratically in that ratio
        for gdp in (0.1, 1e-2, 1e-3):
            res = tightness_scenario(1.0, 1.0, gdp, eta=0.1)
            closed = tightness_sync_closed(1.0, gdp, 0.1)
            assert res.value == pytest.approx(closed, rel=0.5 * gdp**2)

    def test_converges_to_ceiling(self):
        res = tightness_scenario(1.0, 1.0, 1e-3, eta=0.1)
        assert res.value >= 0.999 * smax(0.1)

    def test_detuned_construction_still_converges(self):
        res = tightness_scenario(1.0, 2.0, 1e-3, delta=0.5, eta=0.1)
        assert res.value >= 0.998 * smax(0.1)


#: the four scenarios, from three rate exponents and a detuning
RANDOM_CYCLES = {
    "equatorial": lambda e, d: equatorial_limit_cycle(1.0, 10 ** e[0], d),
    "vdp": lambda e, d: vdp_limit_cycle(1.0, 10 ** e[0], d),
    "asymmetric_equatorial": lambda e, d: asymmetric_equatorial_limit_cycle(
        1.0, 10 ** e[0], 10 ** (e[1] / 2.0 - 1.0), d
    ),
    "cooperativity": lambda e, d: cooperativity_limit_cycle(
        10 ** (e[0] - 1.0), 10 ** (e[1] / 3.0), 10 ** (e[2] / 3.0), d
    ),
}


def _grid_max(lc, family, report, eta=0.1):
    """Largest aligned measure of the signal family on a grid of (zeta, chi,
    tau in [0, 1e4]): a global grid, dense near zeta = 0, and a fine grid
    around the reported optimum (chi taken around the circle, tau relative
    to the reported one)."""
    vdp = family == "vdp_general"
    zeta0, chi0 = report.params["zeta"], report.params["chi"]
    tau0 = report.params.get("tau_ratio", 0.0)
    local = np.linspace(-1.0, 1.0, 41)
    grids = [
        (
            np.concatenate(
                [np.linspace(0.0, 0.5 * math.pi, 121), np.geomspace(1e-5, 0.1, 61)]
            ),
            np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False),
            np.r_[0.0, np.geomspace(1e-2, 1e4, 37)] if vdp else np.zeros(1),
        ),
        (
            np.clip(zeta0 + 0.05 * local, 0.0, 0.5 * math.pi),
            chi0 + 0.1 * local,
            np.maximum(tau0 + 0.05 * max(tau0, 1.0) * local, 0.0)
            if vdp
            else np.zeros(1),
        ),
    ]
    rho0, map1, map2 = coherence_response(lc)
    best = 0.0
    for zetas, chis, taus in grids:
        zeta, chi, tau = np.meshgrid(zetas, chis, taus, indexing="ij", sparse=True)
        t01 = np.cos(zeta) * np.exp(1j * chi)
        tm10 = np.sin(zeta) / (SQRT2 if vdp else 1.0)
        r_10 = map1[0, 0] * t01 + map1[0, 1] * tm10
        r_0m1 = map1[1, 0] * t01 + map1[1, 1] * tm10
        coherences = (r_10, r_0m1, abs(map2) * tau / SQRT2)
        values = sync_from_coherences(rho0.diagonal().real, coherences, eta)
        best = max(best, float(values.max()))
    return best


class TestOptimizer:
    def test_equatorial_balanced(self):
        report = optimize_signal(equatorial_limit_cycle(1.0, 1.0), "equatorial_angles")
        assert report.value / 0.1 == pytest.approx(
            EQUATORIAL_OPTIMAL_VALUE, abs=1e-8
        )
        assert report.params["zeta"] == pytest.approx(math.pi / 4, abs=1e-5)
        assert report.params["chi"] == pytest.approx(math.pi, abs=1e-5)

    @pytest.mark.parametrize("gg, gd", [(1.0, 5.0), (1.0, 1.0), (3.0, 0.2), (1.0, 1e4)])
    @pytest.mark.parametrize("delta", [0.0, 1.0, -2.5, 10.0, 300.0])
    def test_equatorial_optimum_detuning_independent(self, gg, gd, delta):
        report = optimize_signal(
            equatorial_limit_cycle(gg, gd, delta), "equatorial_angles"
        )
        assert report.value / 0.1 == pytest.approx(
            EQUATORIAL_OPTIMAL_VALUE, rel=1e-13
        )
        zeta, chi = equatorial_optimal_angles(gg, gd, delta)
        assert report.params["zeta"] == pytest.approx(zeta, rel=1e-12)
        wrapped = math.remainder(report.params["chi"] - chi, 2.0 * math.pi)
        assert abs(wrapped) < 1e-12
        assert 0.0 <= report.params["chi"] < 2.0 * math.pi

    def test_vdp_general(self):
        gg, gd = 1.0, 100.0
        report = optimize_signal(vdp_limit_cycle(gg, gd), "vdp_general")
        zeta_ref, tau_ref = vdp_optimal_params(gg, gd)
        assert report.params["tau_ratio"] == pytest.approx(tau_ref, abs=0.02)
        assert report.params["zeta"] == pytest.approx(zeta_ref, abs=5e-3)
        assert report.params["chi"] == pytest.approx(0.0, abs=1e-5)
        # optimizer must not fall below the benchmark parameter choice
        lc = vdp_limit_cycle(gg, gd)
        bench = align_squeeze_phase(
            lc,
            SignalSpec(
                math.cos(zeta_ref), math.sin(zeta_ref) / SQRT2, tau_ref / SQRT2
            ),
        )
        assert report.value >= sync_measure(lc, bench, 0.1).value - 1e-10

    @pytest.mark.parametrize(
        "gamma_d, zeta_ref", [(10.0, 0.1965960711), (1000.0, 0.0021200740)]
    )
    def test_vdp_general_arg_max(self, gamma_d, zeta_ref):
        # zeta_ref: the three-coordinate search (zeta, chi, tau) run to a
        # sweep tolerance of 1e-15
        lc = vdp_limit_cycle(1.0, gamma_d)
        report = optimize_signal(lc, "vdp_general")
        zeta, chi = report.params["zeta"], report.params["chi"]
        assert zeta == pytest.approx(zeta_ref, rel=1e-6)
        # the squeezing ratio is the stationary point of the measure in tau
        _, map1, map2 = coherence_response(lc)
        tones = [math.cos(zeta) * np.exp(1j * chi), math.sin(zeta) / SQRT2]
        r_10, r_0m1 = map1 @ tones
        tau_star = (
            COS2_WEIGHT
            * 2.0
            * (abs(r_10) ** 2 + abs(r_0m1) ** 2)
            / (SQRT2 * COS1_WEIGHT * abs(r_10 + r_0m1) * abs(map2))
        )
        assert report.params["tau_ratio"] == pytest.approx(tau_star, rel=1e-12)

    @pytest.mark.parametrize(
        "lc",
        [
            vdp_limit_cycle(1.0, 57.89, 0.043),
            asymmetric_equatorial_limit_cycle(1.0, 677.69, 0.2073, 0.073),
        ],
        ids=["optimum-below-2pi", "peak-inside-first-grid-step"],
    )
    def test_no_family_point_beats_the_optimum(self, lc):
        report = optimize_signal(lc, "vdp_general")
        # the reported signal reaches the reported value ...
        assert sync_measure(lc, report.signal, 0.1).value == pytest.approx(
            report.value, rel=1e-13
        )
        # ... and no point of a dense grid around or away from it does better
        assert report.value >= _grid_max(lc, "vdp_general", report) * (1 - 1e-13)

    @pytest.mark.parametrize(
        "lc",
        [
            vdp_limit_cycle(1.0, 57.89, 0.043),
            vdp_limit_cycle(1.0, 10.0, 1.5),
            vdp_limit_cycle(1.0, 1000.0),
            asymmetric_equatorial_limit_cycle(1.0, 20.0, 0.5, -0.4),
            cooperativity_limit_cycle(0.3, 1.0, 2.0, 0.7),
        ],
    )
    def test_interior_optimum_closed_value(self, lc):
        # with map1 invertible, |r10 + r0m1| / ||(r10, r0m1)|| peaks at sqrt 2
        # on s ~ (1, 1), so the family values are eta ||rho0|| C1 and
        # eta ||rho0|| sqrt(C1^2 + C2^2 / 2), the latter wherever map2 != 0
        rho0 = steady_state(build_liouvillian(lc))
        norm0 = np.linalg.norm(rho0)
        report = optimize_signal(lc, "equatorial_angles")
        assert report.value == pytest.approx(0.1 * norm0 * COS1_WEIGHT, rel=1e-13)
        report = optimize_signal(lc, "vdp_general")
        assert report.params["tau_ratio"] < 2.0
        closed = 0.1 * norm0 * math.sqrt(COS1_WEIGHT**2 + COS2_WEIGHT**2 / 2.0)
        assert report.value == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("delta", [0.0, 0.3, -2.0])
    def test_degenerate_optimum_is_the_minimum_norm_point(self, delta):
        # p0 = p+: t01 does not couple, and every zeta > 0 with its
        # stationary squeezing ratio gives the same value
        lc = vdp_limit_cycle(1.5, 1.5, delta)
        report = optimize_signal(lc, "vdp_general")
        assert report.params["zeta"] == 0.5 * math.pi
        assert report.params["chi"] == 0.0
        _, map1, map2 = coherence_response(lc)
        assert not map1[:, 0].any()
        for zeta in (0.3, 1.0):
            r_10, r_0m1 = map1[:, 1] * math.sin(zeta) / SQRT2
            tau = COS2_WEIGHT * 2.0 * (abs(r_10) ** 2 + abs(r_0m1) ** 2) / (
                SQRT2 * COS1_WEIGHT * abs(r_10 + r_0m1) * abs(map2)
            )
            sig = align_squeeze_phase(
                lc, SignalSpec(math.cos(zeta), math.sin(zeta) / SQRT2, tau / SQRT2)
            )
            assert sync_measure(lc, sig, 0.1).value == pytest.approx(
                report.value, rel=1e-13
            )

    @pytest.mark.parametrize("family", ["equatorial_angles", "vdp_general"])
    def test_no_response_reports_zero(self, family):
        # equal populations: no tone drives a coherence at first order
        lc = LimitCycleSpec(((SP, 1.0), (SM, 1.0)))
        report = optimize_signal(lc, family)
        assert report.value == 0.0
        assert set(report.params.values()) == {0.0}

    @settings(max_examples=60, deadline=None)
    @given(
        scenario=st.sampled_from(sorted(RANDOM_CYCLES)),
        exponents=st.lists(
            st.floats(min_value=-2.0, max_value=4.0), min_size=3, max_size=3
        ),
        detuning=st.sampled_from([0.0, 0.3, -2.0, 25.0]),
        family=st.sampled_from(["equatorial_angles", "vdp_general"]),
    )
    # chi of the optimum just below 2 pi, on both families
    @example("vdp", [math.log10(1.1961122636557853), 0.0, 0.0], -0.0658, "vdp_general")
    # vdp_limit_cycle(1, 1 + 2 ulp): map1 is singular to rounding, and
    # a default lstsq cutoff reported a ridge point below the optimum
    @example("vdp", [math.log10(1 + 4e-16), 0.0, 0.0], 0.0, "equatorial_angles")
    @example("vdp", [math.log10(1 + 4e-16), 0.0, 0.0], 0.0, "vdp_general")
    @example(
        "cooperativity",
        [1.0 + math.log10(0.0132216), *(3.0 * np.log10([0.293584, 0.892027]))],
        2.740666,
        "equatorial_angles",
    )
    def test_optimum_tops_a_dense_grid(self, scenario, exponents, detuning, family):
        lc = RANDOM_CYCLES[scenario](exponents, detuning)
        report = optimize_signal(lc, family)
        assert report.value >= _grid_max(lc, family, report) * (1 - 1e-13)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            optimize_signal(equatorial_limit_cycle(1.0, 1.0), "fourier")

    @settings(max_examples=100, deadline=None)
    @given(
        scenario=st.sampled_from(sorted(RANDOM_CYCLES)),
        exponents=st.lists(
            st.floats(min_value=-2.0, max_value=4.0), min_size=3, max_size=3
        ),
        detuning=st.sampled_from([0.0, 0.3, -2.0, 25.0]),
    )
    # vdp_limit_cycle(1, 1 + 2 ulp): map1 is singular to rounding only
    @example("vdp", [math.log10(1 + 4e-16), 0.0, 0.0], 0.0)
    def test_vdp_general_reaches_the_ceiling(self, scenario, exponents, detuning):
        # with map1 t* = (1, 1) and tau_ratio unbounded, Cauchy-Schwarz is
        # saturated: the cycle enters only through ||rho0||
        lc = RANDOM_CYCLES[scenario](exponents, detuning)
        rho0, map1, map2 = coherence_response(lc)
        if np.linalg.det(map1) == 0.0 or map2 == 0.0:
            return
        report = optimize_signal(lc, "vdp_general")
        ceiling = smax(0.1) * np.linalg.norm(rho0)
        assert abs(report.value - ceiling) <= 1e-15 * ceiling

    @pytest.mark.parametrize("gamma_dp", [1e-3, 0.1, 1e-300])
    def test_vdp_general_equals_the_tightness_construction(self, gamma_dp):
        # ||rho0|| of the asymmetric equatorial cycle is sqrt(g^2 + g'^2) / (g + g')
        lc = asymmetric_equatorial_limit_cycle(1.0, 1.0, gamma_dp)
        report = optimize_signal(lc, "vdp_general")
        closed = tightness_sync_closed(1.0, gamma_dp)
        assert report.value == pytest.approx(closed, rel=1e-15, abs=0.0)

    # tones of a nearly singular map1 that overflowed their norm, and a
    # squeezing ratio past the double range: no warning, no squeezing tone
    @pytest.mark.parametrize("gamma_g", [1e300, 1e3])
    @pytest.mark.parametrize("family", ["equatorial_angles", "vdp_general"])
    def test_extreme_cycles_finite(self, gamma_g, family):
        lc = asymmetric_equatorial_limit_cycle(gamma_g, 1.0, 3e-308)
        report = optimize_signal(lc, family)
        assert math.isfinite(report.value) and report.value > 0.0
        tones = [report.signal.t01, report.signal.tm10, report.signal.tm11]
        assert np.isfinite(tones).all()
        assert report.params.get("tau_ratio", 0.0) == 0.0


def _stacked_maps(cycles):
    """The populations and response maps of single cycles, stacked."""
    maps = [_response_maps(build_liouvillian(lc)) for lc in cycles]
    return tuple(np.stack(x) for x in zip(*maps))


def _cell(report, i):
    """The parameters of cell ``i`` of a stacked report."""
    return SimpleNamespace(params={k: v[i] for k, v in report.params.items()})


class TestStackedOptimum:
    """One ``_optimum`` call on a stack of cycles against one call per cycle."""

    @pytest.mark.parametrize("family", ["equatorial_angles", "vdp_general"])
    def test_stack_matches_single_cycles(self, family):
        rng = np.random.default_rng(20)
        names = sorted(RANDOM_CYCLES)
        cycles = [
            RANDOM_CYCLES[names[i % 4]](
                rng.uniform(-2.0, 4.0, 3), rng.choice([0.0, 0.3, -2.0, 25.0])
            )
            for i in range(240)
        ]
        # a (120, 2) stack: the cells of every scenario side by side
        pops, map1, map2 = _stacked_maps(cycles)
        report = _optimum(
            pops.reshape(120, 2, 3), map1.reshape(120, 2, 2, 2),
            map2.reshape(120, 2), family, 0.1,
        )
        assert report.value.shape == (120, 2)
        values = report.value.ravel()
        params = {k: v.ravel() for k, v in report.params.items()}
        tau = params.get("tau_ratio", np.zeros(240))
        if family == "vdp_general":  # ratios on both sides of 2 in one stack
            assert 0 < np.count_nonzero(tau > 2.0) < 240
        for i, lc in enumerate(cycles):
            single = optimize_signal(lc, family)
            assert abs(values[i] - single.value) <= 1e-15 * single.value
            assert params["zeta"][i] == pytest.approx(single.params["zeta"], abs=1e-9)
            wrapped = math.remainder(params["chi"][i] - single.params["chi"], math.tau)
            assert abs(wrapped) <= 1e-9
            single_tau = single.params.get("tau_ratio", 0.0)
            assert tau[i] == pytest.approx(single_tau, abs=1e-9)
            for name in ("t01", "tm10", "tm11"):
                cell = getattr(report.signal, name)
                cell = np.ravel(cell)[i] if np.ndim(cell) else cell
                assert abs(cell - getattr(single.signal, name)) <= 1e-9

    def test_degenerate_cells_in_a_stack(self):
        # a ridge of maxima (map1 singular), no response, an ordinary cycle,
        # a squeezing response 1e-200 times that cycle's, whose ratio tau is
        # 1e200 times larger, and one 1e-310 times it, whose ratio passes the
        # double range
        cycles = [
            vdp_limit_cycle(1.5, 1.5),
            LimitCycleSpec(((SP, 1.0), (SM, 1.0))),
            vdp_limit_cycle(1.0, 100.0),
            vdp_limit_cycle(1.0, 100.0),
            vdp_limit_cycle(1.0, 100.0),
        ]
        pops, map1, map2 = _stacked_maps(cycles)
        map2[3] *= 1e-200
        map2[4] *= 1e-310
        report = _optimum(pops, map1, map2, "vdp_general", 0.1)
        ridge = optimize_signal(cycles[0], "vdp_general")
        assert report.params["zeta"][0] == 0.5 * math.pi
        assert report.params["chi"][0] == 0.0
        assert abs(report.value[0] - ridge.value) <= 1e-15 * ridge.value
        assert report.value[1] == 0.0
        assert [report.params[k][1] for k in ("zeta", "chi", "tau_ratio")] == [0.0] * 3
        norm0 = np.linalg.norm(pops[3])
        # a tiny squeezing response still reaches the ceiling, at a huge ratio
        tau = report.params["tau_ratio"]
        assert 1e199 < tau[3] < math.inf
        assert report.value[3] == pytest.approx(smax(0.1) * norm0, rel=1e-15)
        assert report.value[2] == pytest.approx(report.value[3], rel=1e-15)
        # past the double range: no squeezing tone, the single-quantum optimum C1
        assert tau[4] == 0.0
        closed = 0.1 * norm0 * COS1_WEIGHT
        assert report.value[4] == pytest.approx(closed, rel=1e-13, abs=0.0)
        assert np.isfinite(report.signal.tm11).all()

    @settings(max_examples=15, deadline=None)
    @given(
        cycles=st.lists(
            st.tuples(
                st.sampled_from(sorted(RANDOM_CYCLES)),
                st.lists(st.floats(-2.0, 4.0), min_size=3, max_size=3),
                st.sampled_from([0.0, 0.3, -2.0, 25.0]),
            ),
            min_size=2,
            max_size=4,
        ),
        family=st.sampled_from(["equatorial_angles", "vdp_general"]),
    )
    def test_stacked_optimum_tops_a_dense_grid(self, cycles, family):
        cycles = [RANDOM_CYCLES[name](e, d) for name, e, d in cycles]
        report = _optimum(*_stacked_maps(cycles), family, 0.1)
        for i, lc in enumerate(cycles):
            best = _grid_max(lc, family, _cell(report, i))
            assert report.value[i] >= best * (1 - 1e-13)


class TestArnoldTongue:
    def test_boundary_formula_and_masking(self):
        gg, gd, eta = 1.0, 100.0, 0.1
        detunings = np.linspace(-15.0, 15.0, 31)
        strengths = np.linspace(0.0, 1.5, 16)
        grid = arnold_tongue(
            equatorial_limit_cycle(gg, gd), semiclassical(0.0), detunings, strengths, eta
        )
        formula = eta / np.sqrt(
            1.0 / (gd**2 + detunings**2) + 1.0 / (gg**2 + detunings**2)
        )
        assert np.abs(grid.eps_max - formula).max() < 1e-12
        assert np.all(grid.masked == (strengths[:, None] > grid.eps_max[None, :]))
        assert np.isnan(grid.value[grid.masked]).all()
        assert (grid.eps_max >= grid.eps_max[detunings == 0.0]).all()

    @pytest.mark.parametrize(
        "strengths, message",
        [
            ([0.5, -0.1, 1.0], r"got \[-0\.1\] at stack index \[1\]"),
            ([0.0, math.nan, math.inf], r"got \[nan, inf\] at stack index \[1, 2\]"),
        ],
    )
    def test_negative_or_non_finite_strengths_refused(self, strengths, message):
        # a negative strength would write a negative measure in an unmasked cell
        with pytest.raises(InvalidValueError, match="non-negative and finite, " + message):
            arnold_tongue(
                equatorial_limit_cycle(1.0, 100.0),
                semiclassical(0.0),
                np.linspace(-5.0, 5.0, 3),
                np.array(strengths),
            )

    def test_value_decreases_with_detuning_below_boundary(self):
        gg, gd = 1.0, 100.0
        detunings = np.linspace(0.0, 10.0, 21)
        strengths = np.array([0.05])
        grid = arnold_tongue(
            equatorial_limit_cycle(gg, gd),
            semiclassical(0.0),
            detunings,
            strengths,
            0.1,
        )
        row = grid.value[0]
        assert not np.isnan(row).any()
        assert (np.diff(row) <= 1e-15).all()


class TestDeformationSweep:
    def test_failure_window(self):
        strengths = np.logspace(-2, 3, 51)
        sweep = pmax_failure_sweep([0.5, 2.5], strengths, 1.0, 100.0)
        assert not sweep[0.5]["analysis"]["has_interior_peak"]
        report = sweep[2.5]["analysis"]
        assert report["has_interior_peak"]
        assert report["dips_below_fraction"]
        assert report["rises_after_dip"]

    def test_plateau_at_large_strength(self):
        strengths = np.logspace(2, 4, 9)
        sweep = pmax_failure_sweep([2.5], strengths, 1.0, 100.0)
        curve = sweep[2.5]["curve"]
        assert curve[-1] == pytest.approx(curve[-2], rel=1e-3)

    def test_detector_on_synthetic_curve(self):
        eps = np.linspace(0, 1, 9)
        curve = np.array([0.0, 0.3, 0.6, 0.4, 0.1, 0.05, 0.2, 0.5, 0.7])
        report = detect_interior_peak(eps, curve)
        assert report["has_interior_peak"]
        assert report["peak_index"] == 2
        assert report["dips_below_fraction"]
        assert report["rises_after_dip"]
        flat = detect_interior_peak(eps, np.linspace(0, 1, 9))
        assert not flat["has_interior_peak"]


class TestClosedFormHelpers:
    def test_equatorial_first_order_closed_matches_pipeline(self):
        gg, gd, gdp, delta = 1.0, 2.0, 0.3, 0.6
        spec = SignalSpec(0.5, 0.4, 0.7)
        lc = asymmetric_equatorial_limit_cycle(gg, gd, gdp, delta)
        rho1 = first_order(lc, spec)
        coh, pops = equatorial_first_order_closed(spec, gg, gd, gdp, delta)
        assert rho1[0, 1] == pytest.approx(coh[0], abs=1e-13)
        assert rho1[1, 2] == pytest.approx(coh[1], abs=1e-13)
        assert rho1[0, 2] == pytest.approx(coh[2], abs=1e-13)
        rho0 = steady_state(build_liouvillian(lc))
        assert np.allclose(rho0.diagonal().real, pops, atol=1e-13)

    # the optimizer calls it on numpy scalars and fig5 on a stack: builtin
    # abs (hypot) and ** (pow) on a scalar can differ from the array loops in
    # the last bit
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_squeeze_ratio_scalar_equals_stacked_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        coh = rng.normal(size=(3, 20)) + 1j * rng.normal(size=(3, 20))
        stacked = stationary_squeeze_ratio(*coh)
        for k in range(coh.shape[1]):
            one = stationary_squeeze_ratio(*(np.complex128(x) for x in coh[:, k]))
            assert one.tobytes() == stacked[k].tobytes()

    def test_squeeze_ratio_past_the_double_range_is_inf(self):
        # 4.2 / 1e-320 overflows: inf without an overflow warning
        ratio = stationary_squeeze_ratio(np.array([1.0, 1.0]), 1.0, [1e-320, 1e-300])
        assert ratio[0] == math.inf and math.isfinite(ratio[1])


# rate ratios gamma_d / gamma_g from 1e-6 to 1e15 in half decades
RATE_RATIOS = [10.0 ** (k / 2) for k in range(-12, 31)]
RANGE_SIGNAL = SignalSpec(0.6 + 0.2j, 0.5 - 0.3j, 0.4j)


def _cycle_and_closed(cycle, ratio, delta, spec):
    if cycle == "equatorial":
        lc = equatorial_limit_cycle(1.0, ratio, delta)
        return lc, equatorial_first_order_closed(spec, 1.0, ratio, 0.0, delta)
    if cycle == "vdp":
        lc = vdp_limit_cycle(1.0, ratio, delta)
        return lc, vdp_first_order_closed(spec, 1.0, ratio, delta)
    lc = asymmetric_equatorial_limit_cycle(1.0, ratio, 0.5, delta)
    return lc, equatorial_first_order_closed(spec, 1.0, ratio, 0.5, delta)


RANGE_DETUNINGS = [0.0, 0.3, 50.0, 1e6]


def _check_pipeline_against_closed_form(cycle, delta, ratio, rtol):
    lc, (coh, pops) = _cycle_and_closed(cycle, ratio, delta, RANGE_SIGNAL)
    rho0 = steady_state(build_liouvillian(lc))
    assert np.abs(rho0.diagonal().real - pops).max() <= 1e-14
    rho1 = first_order(lc, RANGE_SIGNAL)
    got = np.array([rho1[0, 1], rho1[1, 2], rho1[0, 2]])
    assert np.abs(got - np.array(coh)).max() <= rtol * np.abs(coh).max()
    aligned = align_squeeze_phase(lc, RANGE_SIGNAL)
    coh, pops = _cycle_and_closed(cycle, ratio, delta, aligned)[1]
    assert sync_measure(lc, aligned).value == pytest.approx(
        sync_from_coherences(pops, coh), rel=1e-9
    )


RANGE_CYCLES = ["equatorial", "vdp", "asymmetric"]


class TestDynamicRange:
    # the grid up to 1e15 and far beyond, where the sector rank test once
    # compared the slow rate with the fast one and called the block singular
    @pytest.mark.parametrize("ratio", RATE_RATIOS + [1e16, 1e20, 1e50, 1e100, 1e300])
    @pytest.mark.parametrize("delta", RANGE_DETUNINGS)
    @pytest.mark.parametrize("cycle", RANGE_CYCLES)
    def test_pipeline_matches_closed_form(self, cycle, delta, ratio):
        _check_pipeline_against_closed_form(cycle, delta, ratio, 1e-15)

    # rate ratios log-uniform over the whole range, detunings off the grid;
    # the worst of 30000 such draws was 8.8e-16
    @settings(max_examples=100, deadline=None)
    @given(
        cycle=st.sampled_from(RANGE_CYCLES),
        delta=st.floats(-20.0, 20.0),
        log_ratio=st.floats(-6.0, 300.0),
    )
    def test_pipeline_matches_closed_form_anywhere(self, cycle, delta, log_ratio):
        _check_pipeline_against_closed_form(cycle, delta, 10.0**log_ratio, 2e-15)

    def test_equatorial_measure_at_rate_ratio_1e12(self):
        res = sync_measure(equatorial_limit_cycle(1.0, 1e12, 0.3), semiclassical(0.0))
        closed = equatorial_sync_closed(math.pi / 4.0, 0.0, 1.0, 1e12, 0.3)
        assert res.value == pytest.approx(closed, rel=1e-9)


# every scenario with its characteristic rate ratio set to ``ratio``
SCENARIOS_AT_RATIO = {
    "equatorial": lambda ratio: equatorial_limit_cycle(1.0, ratio),
    "vdp": lambda ratio: vdp_limit_cycle(1.0, ratio),
    "asymmetric_equatorial": lambda ratio: asymmetric_equatorial_limit_cycle(
        1.0, ratio, 0.5
    ),
    "cooperativity": lambda ratio: cooperativity_limit_cycle(1.0, 1.0, ratio),
}


class TestBatchedKernel:
    @pytest.mark.parametrize("ratio", RATE_RATIOS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS_AT_RATIO))
    def test_stack_equals_one_build_per_cell(self, scenario, ratio):
        # a rate axis pairing each ratio with its mirror in the range, against
        # the detuning axis: cells of both ends of the range in one stack
        ratios = [ratio, RATE_RATIOS[::-1][RATE_RATIOS.index(ratio)]]
        stack = SCENARIOS_AT_RATIO[scenario](np.array(ratios)[:, None])
        stack = stack.with_detuning(RANGE_DETUNINGS)
        pops, map1, map2 = _response_maps(build_liouvillian(stack))
        shape = (len(ratios), len(RANGE_DETUNINGS))
        assert pops.shape == shape + (3,)
        assert map1.shape == shape + (2, 2)
        assert map2.shape == shape
        for i, r in enumerate(ratios):
            for j, delta in enumerate(RANGE_DETUNINGS):
                lc = SCENARIOS_AT_RATIO[scenario](r).with_detuning(delta)
                one = _response_maps(build_liouvillian(lc))
                assert one[0].tobytes() == pops[i, j].tobytes()
                assert one[1].tobytes() == map1[i, j].tobytes()
                assert one[2].tobytes() == map2[i, j].tobytes()


def _rates_times(lc: LimitCycleSpec, k: int) -> LimitCycleSpec:
    """``lc`` with every rate and the detuning multiplied by 2^k."""
    return LimitCycleSpec(
        tuple((op, math.ldexp(rate, k)) for op, rate in lc.dissipators),
        math.ldexp(lc.detuning, k),
    )


def _measure_and_tongue(lc, signal, detunings, strengths):
    res = sync_measure(lc, signal)
    grid = arnold_tongue(lc, signal, detunings, strengths)
    return res, grid


def _assert_same_outputs(one, other, k_eps):
    """The measure, its locked phase and flag, and the tongue grid of ``one``
    and ``other`` agree bit for bit; their strengths differ by 2^k_eps."""
    (res, grid), (res_k, grid_k) = one, other
    assert np.float64(res_k.value).tobytes() == np.float64(res.value).tobytes()
    assert (
        np.float64(res_k.locked_phase).tobytes()
        == np.float64(res.locked_phase).tobytes()
    )
    assert res_k.zero_response == res.zero_response
    assert res_k.epsilon == math.ldexp(res.epsilon, k_eps)
    assert grid_k.value.tobytes() == grid.value.tobytes()
    assert np.array_equal(grid_k.masked, grid.masked)
    assert np.array_equal(grid_k.eps_max, np.ldexp(grid.eps_max, k_eps))


SCALE_EXPONENTS = st.integers(min_value=-900, max_value=900)
# the smallest tone part drawn: a normal double, and still one at 2^-900
SMALLEST_PART = math.ldexp(sys.float_info.min, 900)


def _tone(modulus: float, phase: float) -> complex:
    """The tone of a modulus and a phase, with a part below SMALLEST_PART
    (the imaginary part at a phase within about 1e-37 of zero) drawn as
    zero."""
    tone = modulus * complex(math.cos(phase), math.sin(phase))
    parts = (x if abs(x) >= SMALLEST_PART else 0.0 for x in (tone.real, tone.imag))
    return complex(*parts)


# three tones, each zero or of modulus 1e-3 to 1 at any phase, with each
# part zero or at least SMALLEST_PART
TONES = st.lists(
    st.builds(
        _tone,
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    ),
    min_size=3,
    max_size=3,
).filter(any)
CYCLE_DRAWS = {
    "scenario": st.sampled_from(sorted(RANDOM_CYCLES)),
    "exponents": st.lists(
        st.floats(min_value=-2.0, max_value=4.0), min_size=3, max_size=3
    ),
    "detuning": st.floats(min_value=-20.0, max_value=20.0),
}


class TestScaleInvariance:
    """S depends on the limit cycle and the signal only through ratios: the
    outputs stay bit for bit the same when every rate and the detuning, or
    every tone, are multiplied by a power of two far beyond the range where
    squares of the rates or of the first-order response stay normal.

    Precondition: each nonzero real or imaginary part of a tone is a normal
    double, and stays one times 2^-900, the smallest factor drawn.  A
    subnormal part, or a product of a part with a scaled response that falls
    below the normal range, keeps fewer bits than the rest and does not
    scale bit for bit: a tone of 0.75 + 8.3e-309j moved ``eps_max`` in its
    last bits under rates times 2^43, and masked one tongue cell on one side
    only under 2^44; a part of 1e-60 fails the same way at 2^900."""

    @staticmethod
    def _axes(lc, signal):
        # detunings around the cycle's own, strengths up to twice the largest
        # validity boundary, so that some cells are masked
        detunings = float(lc.detuning) + np.linspace(-5.0, 5.0, 5)
        eps_max = arnold_tongue(lc, signal, detunings, [0.0]).eps_max
        finite = eps_max[np.isfinite(eps_max)]
        top = 2.0 * finite.max() if finite.size else 1.0
        return detunings, np.linspace(0.0, top, 5)

    @settings(max_examples=100, deadline=None)
    @given(**CYCLE_DRAWS, tones=TONES, k=SCALE_EXPONENTS)
    # the equatorial cycle at 1e13 and 3e13: ||rho1|| is 2.6e-14 ||rho0||, which
    # a relative cutoff of 1e-12 once called a vanishing response
    @example("equatorial", [math.log10(3.0), 0.0, 0.0], 0.0, [1.0, 1.0, 0.0], 43)
    # two fast rates at 2^600: the tree products overflowed to nan
    @example("asymmetric_equatorial", [0.0, 2.0, 0.0], 0.0, [1.0, 0.5, 0.3j], 600)
    # every rate at 2^-600: the tree products underflowed to a degenerate cycle
    @example("vdp", [math.log10(32.0), 0.0, 0.0], 0.0, [1.0, 0.0, 0.0], -600)
    def test_rates_times_power_of_two(
        self, scenario, exponents, detuning, tones, k
    ):
        lc, signal = RANDOM_CYCLES[scenario](exponents, detuning), SignalSpec(*tones)
        detunings, strengths = self._axes(lc, signal)
        _assert_same_outputs(
            _measure_and_tongue(lc, signal, detunings, strengths),
            _measure_and_tongue(
                _rates_times(lc, k), signal, np.ldexp(detunings, k),
                np.ldexp(strengths, k),
            ),
            k,
        )

    @settings(max_examples=100, deadline=None)
    @given(**CYCLE_DRAWS, tones=TONES, k=SCALE_EXPONENTS)
    # tones of 5e-14 on gamma = (1, 3) read as a vanishing response once
    @example("equatorial", [math.log10(3.0), 0.0, 0.0], 0.0, [1.0, 1.0, 0.0], -44)
    def test_tones_times_power_of_two(
        self, scenario, exponents, detuning, tones, k
    ):
        lc, signal = RANDOM_CYCLES[scenario](exponents, detuning), SignalSpec(*tones)
        detunings, strengths = self._axes(lc, signal)
        scaled = SignalSpec(*(math.ldexp(1.0, k) * t for t in tones))
        _assert_same_outputs(
            _measure_and_tongue(lc, signal, detunings, strengths),
            _measure_and_tongue(lc, scaled, detunings, np.ldexp(strengths, -k)),
            -k,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        **CYCLE_DRAWS,
        family=st.sampled_from(["equatorial_angles", "vdp_general"]),
        k=SCALE_EXPONENTS,
    )
    # rates at 2^600: the squares of the response maps underflowed, and
    # LAPACK's least-squares solve raised LinAlgError
    @example("vdp", [math.log10(30.0), 0.0, 0.0], 0.0, "vdp_general", 600)
    def test_optimum_under_rates_times_power_of_two(
        self, scenario, exponents, detuning, family, k
    ):
        lc = RANDOM_CYCLES[scenario](exponents, detuning)
        report = optimize_signal(lc, family)
        scaled = optimize_signal(_rates_times(lc, k), family)
        assert np.float64(scaled.value).tobytes() == np.float64(report.value).tobytes()
        assert scaled.params == report.params
