import math

import numpy as np
import pytest

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
    align_squeeze_phase,
    arnold_tongue,
    asymmetric_equatorial_limit_cycle,
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
from spinsync.lindblad import build_liouvillian, steady_state
from spinsync.perturbation import coherence_response, first_order, sync_measure
from spinsync.signals import SignalSpec, from_equatorial_angles, semiclassical
from spinsync.spin import COS1_WEIGHT, COS2_WEIGHT, SQRT2


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
        assert equatorial_sync_closed(math.pi / 4, 0.0, 1.0, 1.0, 0.0, 1.0) == 0.0


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


class TestOptimizer:
    def test_equatorial_balanced(self):
        report = optimize_signal(equatorial_limit_cycle(1.0, 1.0), "equatorial_angles")
        assert report.value / 0.1 == pytest.approx(
            EQUATORIAL_OPTIMAL_VALUE, abs=1e-8
        )
        assert report.params["zeta"] == pytest.approx(math.pi / 4, abs=1e-5)
        assert report.params["chi"] == pytest.approx(math.pi, abs=1e-5)

    def test_equatorial_optimum_detuning_independent(self):
        values = []
        for delta in (0.0, 1.0, 10.0):
            report = optimize_signal(
                equatorial_limit_cycle(1.0, 5.0, delta), "equatorial_angles"
            )
            values.append(report.value / 0.1)
        assert np.allclose(values, EQUATORIAL_OPTIMAL_VALUE, atol=1e-8)

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

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            optimize_signal(equatorial_limit_cycle(1.0, 1.0), "fourier")


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


class TestDynamicRange:
    @pytest.mark.parametrize("ratio", RATE_RATIOS)
    @pytest.mark.parametrize("delta", [0.0, 0.3, 50.0, 1e6])
    @pytest.mark.parametrize("cycle", ["equatorial", "vdp", "asymmetric"])
    def test_pipeline_matches_closed_form(self, cycle, delta, ratio):
        lc, (coh, pops) = _cycle_and_closed(cycle, ratio, delta, RANGE_SIGNAL)
        rho0 = steady_state(build_liouvillian(lc))
        assert np.abs(rho0.diagonal().real - pops).max() <= 1e-14
        rho1 = first_order(lc, RANGE_SIGNAL)
        got = np.array([rho1[0, 1], rho1[1, 2], rho1[0, 2]])
        assert np.abs(got - np.array(coh)).max() <= 1e-12 * np.abs(coh).max()
        aligned = align_squeeze_phase(lc, RANGE_SIGNAL)
        coh, pops = _cycle_and_closed(cycle, ratio, delta, aligned)[1]
        assert sync_measure(lc, aligned).value == pytest.approx(
            sync_from_coherences(pops, coh), rel=1e-9
        )

    def test_equatorial_measure_at_rate_ratio_1e12(self):
        res = sync_measure(equatorial_limit_cycle(1.0, 1e12, 0.3), semiclassical(0.0))
        closed = equatorial_sync_closed(math.pi / 4.0, 0.0, 1.0, 1e12, 0.3)
        assert res.value == pytest.approx(closed, rel=1e-9)
