import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsync.catalog import (
    SMAX_SPIN_COEFF,
    asymmetric_equatorial_limit_cycle,
    cooperativity_limit_cycle,
    equatorial_limit_cycle,
    vdp_limit_cycle,
)
from spinsync.lindblad import build_liouvillian, steady_state
from spinsync.perturbation import (
    NonDiagonalizableError,
    SingularCoherenceBlockError,
    ZeroResponseError,
    _response_maps,
    coherence_response,
    eigencoherences,
    epsilon_for_threshold,
    first_order,
    full_steady_state,
    hs_norm,
    kth_order,
    p_avg,
    p_max,
    perturbation_result,
    perturbative_orders,
    sync_measure,
)
from spinsync.signals import SignalSpec, build_hext, semiclassical
from spinsync.spin import SQRT2, phase_distribution_terms

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

CATALOG = [
    equatorial_limit_cycle(1.0, 10.0, 0.3),
    vdp_limit_cycle(1.0, 10.0, 0.3),
    asymmetric_equatorial_limit_cycle(1.0, 1.0, 0.5, 0.3),
    cooperativity_limit_cycle(1.0, 1.0, 1.0, 0.3),
]


class TestFirstOrder:
    def test_equatorial_coherences(self):
        gg, gd, delta = 1.0, 3.0, 0.8
        t01, tm10 = 0.6, 0.3 - 0.2j
        rho1 = first_order(
            equatorial_limit_cycle(gg, gd, delta), SignalSpec(t01, tm10, 0.0)
        )
        assert rho1[0, 1] == pytest.approx(-1j * SQRT2 * t01 / (gd + 1j * delta))
        assert rho1[1, 2] == pytest.approx(1j * SQRT2 * tm10 / (gg + 1j * delta))
        assert rho1[0, 2] == 0.0

    def test_squeezing_blind_equatorial_cycle(self):
        rho1 = first_order(equatorial_limit_cycle(1.0, 2.0), SignalSpec(0, 0, 1.0))
        assert np.abs(rho1).max() < 1e-14

    def test_zero_signal(self):
        rho1 = first_order(equatorial_limit_cycle(1.0, 2.0), SignalSpec(0, 0, 0))
        assert np.abs(rho1).max() == 0.0

    def test_structure(self):
        rho1 = first_order(vdp_limit_cycle(1.0, 5.0, 0.2), SignalSpec(1, 1, 1))
        assert np.abs(rho1.diagonal()).max() == 0.0
        assert np.abs(rho1 - rho1.conj().T).max() < 1e-14

    def test_singular_sector_detected(self):
        liou = build_liouvillian(equatorial_limit_cycle(1.0, 1.0))
        broken = dataclasses.replace(
            liou, sector_blocks={1: np.zeros((2, 2)), 2: liou.sector_blocks[2]}
        )
        with pytest.raises(SingularCoherenceBlockError):
            _response_maps(broken)

    def test_singular_detuning_named_in_batch(self):
        liou = build_liouvillian(equatorial_limit_cycle(1.0, 1.0))
        # an undamped mode rotating at frequency 1: the block at detuning 1
        # is singular, every other one regular
        broken = dataclasses.replace(
            liou,
            relaxation_blocks={
                1: np.diag([1j, -1.0]),
                2: liou.relaxation_blocks[2],
            },
        )
        with pytest.raises(SingularCoherenceBlockError, match=r"detuning \[1\.0\]"):
            _response_maps(broken, [0.0, 1.0, 2.0])
        _, map1, _ = _response_maps(broken, [0.0, 2.0])
        assert np.isfinite(map1).all()

    def test_matches_linear_response_maps(self):
        lc = vdp_limit_cycle(1.0, 7.0, 0.4)
        spec = SignalSpec(0.3 + 0.1j, 0.8, 0.2 - 0.5j)
        rho0, map1, map2 = coherence_response(lc)
        rho1 = first_order(lc, spec)
        pair = map1 @ np.array([spec.t01, spec.tm10])
        assert rho1[0, 1] == pytest.approx(pair[0])
        assert rho1[1, 2] == pytest.approx(pair[1])
        assert rho1[0, 2] == pytest.approx(map2 * spec.tm11)


class TestEpsilonRule:
    def test_balanced_equatorial_value(self):
        lc = equatorial_limit_cycle(1.0, 1.0)
        rho0 = steady_state(build_liouvillian(lc))
        rho1 = first_order(lc, semiclassical(0.0))
        eps = epsilon_for_threshold(rho0, rho1, 0.1)
        assert eps == pytest.approx(0.1 / math.sqrt(2.0), abs=1e-12)

    def test_imbalanced_value(self):
        lc = equatorial_limit_cycle(1.0, 10.0)
        rho0 = steady_state(build_liouvillian(lc))
        rho1 = first_order(lc, semiclassical(0.0))
        eps = epsilon_for_threshold(rho0, rho1, 0.1)
        assert eps == pytest.approx(0.1 * 10.0 / math.sqrt(101.0), abs=1e-12)

    def test_homogeneity(self):
        lc = equatorial_limit_cycle(1.0, 4.0)
        rho0 = steady_state(build_liouvillian(lc))
        rho1 = first_order(lc, semiclassical(0.0))
        rho1_doubled = first_order(lc, semiclassical(0.0).scaled(2.0))
        eps = epsilon_for_threshold(rho0, rho1, 0.1)
        eps2 = epsilon_for_threshold(rho0, rho1_doubled, 0.1)
        assert eps2 == pytest.approx(eps / 2.0)
        assert eps2 * hs_norm(rho1_doubled) == pytest.approx(eps * hs_norm(rho1))

    def test_zero_response_raises(self):
        lc = equatorial_limit_cycle(1.0, 2.0)
        rho0 = steady_state(build_liouvillian(lc))
        with pytest.raises(ZeroResponseError):
            epsilon_for_threshold(rho0, np.zeros((3, 3)), 0.1)

    def test_norm_band(self):
        for lc in CATALOG:
            res = perturbation_result(lc, semiclassical(0.0))
            assert 1.0 / math.sqrt(3.0) - 1e-12 <= res.norm0 <= 1.0 + 1e-12


class TestSyncMeasure:
    def test_balanced_semiclassical_vanishes(self):
        res = sync_measure(equatorial_limit_cycle(1.0, 1.0), semiclassical(0.0))
        assert res.value == 0.0
        assert not res.zero_response

    def test_imbalanced_closed_value(self):
        res = sync_measure(equatorial_limit_cycle(1.0, 10.0), semiclassical(0.0))
        assert res.value / 0.1 == pytest.approx(27.0 / (16.0 * math.sqrt(101.0)))

    def test_strong_imbalance_approaches_limit(self):
        res = sync_measure(equatorial_limit_cycle(1.0, 1e6), semiclassical(0.0))
        assert res.value / 0.1 == pytest.approx(3.0 / 16.0, rel=1e-5)

    def test_zero_response_flag(self):
        res = sync_measure(equatorial_limit_cycle(1.0, 2.0), SignalSpec(0, 0, 1.0))
        assert res.zero_response
        assert res.value == 0.0
        assert math.isinf(res.epsilon)

    def test_anti_aligned_squeezing_on_resonance(self):
        # on resonance the coherence blocks are real, so a squeezing tone
        # 0.2j puts the two harmonics exactly half a turn out of step
        lc = vdp_limit_cycle(1.0, 30.0)
        spec = SignalSpec(0.6, 0.3, 0.2j)
        res = sync_measure(lc, spec)
        t = res.terms
        assert abs((t.phase2 - 2 * t.phase1) % (2 * math.pi) - math.pi) < 1e-15
        pert = perturbation_result(lc, spec)
        grid = np.linspace(0.0, 2 * np.pi, 200001)
        dense = phase_distribution_terms(pert.rho1).evaluate(grid).max()
        assert res.value == pytest.approx(pert.epsilon * dense, rel=1e-9)
        assert res.value < 0.99 * res.epsilon * (t.amp1 + t.amp2)

    def test_below_spin_ceiling(self):
        for lc in CATALOG:
            res = sync_measure(lc, semiclassical(0.0))
            assert res.value <= 0.1 * SMAX_SPIN_COEFF + 1e-12

    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_without_squeezing(self, seed):
        rng = np.random.default_rng(seed)
        lc = equatorial_limit_cycle(1.0, float(rng.uniform(1.0, 20.0)), 0.5)
        spec = SignalSpec(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            0.0,
        )
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-2:
            lam = 1.0 + 0.5j
        a = sync_measure(lc, spec)
        b = sync_measure(lc, spec.scaled(lam))
        assert abs(a.value - b.value) < 1e-12

    def test_rotation_covariance(self):
        lc = asymmetric_equatorial_limit_cycle(1.0, 2.0, 0.4, 0.3)
        spec = SignalSpec(0.4, 0.6, 0.2)
        alpha = 1.1
        a = sync_measure(lc, spec)
        b = sync_measure(lc, spec.rotated(alpha))
        assert b.value == pytest.approx(a.value, abs=1e-13)
        shift = (a.locked_phase - b.locked_phase - alpha) % (2 * math.pi)
        assert min(shift, 2 * math.pi - shift) < 1e-9


class TestHigherOrders:
    def test_traces(self):
        lc = vdp_limit_cycle(1.0, 5.0)
        orders = perturbative_orders(lc, semiclassical(0.0), 4)
        assert orders[0].trace().real == pytest.approx(1.0, abs=1e-13)
        for rho_k in orders[1:]:
            assert abs(rho_k.trace()) < 1e-13

    def test_symmetric_population_transfer(self):
        # balanced cycle and tones push population evenly to the extremes
        lc = equatorial_limit_cycle(1.0, 1.0)
        rho2 = kth_order(lc, semiclassical(0.0), 2)
        diag = rho2.diagonal().real
        assert diag[0] == pytest.approx(diag[2], abs=1e-13)
        assert diag[0] > 0.0
        assert diag[1] == pytest.approx(-2 * diag[0], abs=1e-13)

    def test_partial_sums_converge_at_expected_rate(self):
        lc = vdp_limit_cycle(1.0, 5.0, 0.2)
        spec = semiclassical(0.0)
        kmax = 3
        orders = perturbative_orders(lc, spec, kmax)
        eps_values = np.array([3e-2, 1e-2, 3e-3])
        residuals = []
        for eps in eps_values:
            partial = sum(eps**k * rho for k, rho in enumerate(orders))
            residuals.append(hs_norm(full_steady_state(lc, spec, eps) - partial))
        slope = np.polyfit(np.log(eps_values), np.log(residuals), 1)[0]
        assert slope == pytest.approx(kmax + 1, abs=0.3)


class TestFullSteadyState:
    def test_zero_strength_recovers_target(self):
        lc = cooperativity_limit_cycle(2.0)
        rho0 = steady_state(build_liouvillian(lc))
        rho = full_steady_state(lc, semiclassical(0.0), 0.0)
        assert np.abs(rho - rho0).max() < 1e-13

    def test_physicality_and_residual(self):
        from spinsync.lindblad import hamiltonian_superop, vec

        for lc in CATALOG:
            rho = full_steady_state(lc, semiclassical(0.0), 0.05)
            assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-11
            liou = build_liouvillian(lc)
            gen = liou.full + 0.05 * hamiltonian_superop(
                build_hext(semiclassical(0.0))
            )
            assert np.linalg.norm(gen @ vec(rho)) < 1e-11

    def test_balanced_forcing_keeps_average_occupation(self):
        lc = equatorial_limit_cycle(1.0, 1.0)
        rho0 = steady_state(build_liouvillian(lc))
        rho = full_steady_state(lc, semiclassical(0.0), 2.0)
        assert abs(p_avg(rho, rho0)) < 1e-10
        assert p_max(rho, rho0) > 0.05
        # deep in the forcing regime the distribution grows two peaks
        terms = phase_distribution_terms(rho)
        assert terms.amp2 > 10 * terms.amp1

    def test_quadratic_departure_from_linearization(self):
        lc = equatorial_limit_cycle(1.0, 10.0)
        spec = semiclassical(0.0)
        rho0 = steady_state(build_liouvillian(lc))
        rho1 = first_order(lc, spec)
        ratios = []
        for eps in (1e-3, 1e-4):
            resid = hs_norm(full_steady_state(lc, spec, eps) - rho0 - eps * rho1)
            ratios.append(resid / eps**2)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.05)


class TestDeformationMeasures:
    def test_identical_states(self):
        rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
        assert p_avg(rho0, rho0) == 0.0
        assert p_max(rho0, rho0) == 0.0

    def test_off_diagonal_correction_invisible(self):
        lc = equatorial_limit_cycle(1.0, 5.0)
        rho0 = steady_state(build_liouvillian(lc))
        rho1 = first_order(lc, semiclassical(0.0))
        perturbed = rho0 + 0.05 * rho1
        assert p_avg(perturbed, rho0) == 0.0
        assert p_max(perturbed, rho0) == 0.0

    def test_symmetric_transfer(self):
        rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
        shift = 0.04
        rho = rho0 + np.diag([shift, -2 * shift, shift])
        assert p_avg(rho, rho0) == pytest.approx(0.0, abs=1e-15)
        assert p_max(rho, rho0) == pytest.approx(2 * shift)


class TestEigencoherences:
    def test_equatorial_decay_rates(self):
        gg, gd, delta = 1.0, 3.0, 0.7
        modes = eigencoherences(
            equatorial_limit_cycle(gg, gd, delta), semiclassical(0.0)
        )
        single_quantum = sorted(
            (m.decay for m in modes[:2]), key=lambda z: z.real
        )
        assert single_quantum[0] == pytest.approx(-gd - 1j * delta)
        assert single_quantum[1] == pytest.approx(-gg - 1j * delta)

    def test_reconstruction(self):
        for lc in CATALOG:
            spec = SignalSpec(0.4 + 0.2j, 0.7, 0.3j)
            modes = eigencoherences(lc, spec)
            recon = -sum(m.mode * (m.drive / m.decay) for m in modes)
            assert np.abs(recon - first_order(lc, spec)).max() < 1e-10

    def test_norm_identity_for_orthonormal_modes(self):
        # the equatorial blocks are diagonal, so the eigenbasis is orthonormal
        lc = equatorial_limit_cycle(1.0, 4.0, 0.5)
        spec = semiclassical(0.3)
        modes = eigencoherences(lc, spec)
        total = sum(abs(m.drive / m.decay) ** 2 for m in modes)
        assert total == pytest.approx(hs_norm(first_order(lc, spec)) ** 2)

    def test_zero_signal_drives_nothing(self):
        modes = eigencoherences(equatorial_limit_cycle(1.0, 2.0), SignalSpec(0, 0, 0))
        assert all(m.drive == 0 for m in modes)

    def test_defective_block_rejected(self):
        # equal diagonal entries with the gain cross-coupling form a Jordan block
        with pytest.raises(NonDiagonalizableError):
            eigencoherences(vdp_limit_cycle(1.0, 0.5), semiclassical(0.0))
