import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsync import perturbation
from spinsync.catalog import (
    SMAX_SPIN_COEFF,
    BoundParams,
    arnold_tongue,
    asymmetric_equatorial_limit_cycle,
    bound_terms,
    cooperativity_limit_cycle,
    equatorial_limit_cycle,
    optimize_signal,
    pmax_forcing_curve,
    vdp_limit_cycle,
)
from spinsync.errors import InvalidValueError
from spinsync.lindblad import (
    SECTOR_SLOTS,
    LimitCycleSpec,
    build_liouvillian,
    hamiltonian_superop,
    steady_state,
    vec,
)
from spinsync.perturbation import (
    DegenerateSteadyStateError,
    NonDiagonalizableError,
    SingularCoherenceBlockError,
    SyncResult,
    ZeroResponseError,
    _driven_steady_state,
    _norms,
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
    sync_from_coherences,
    sync_measure,
)
from spinsync.signals import SignalSpec, build_hext, semiclassical
from spinsync.spin import SQRT2, SZ, phase_distribution_terms

from conftest import exact_driven_state

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

CATALOG = [
    equatorial_limit_cycle(1.0, 10.0, 0.3),
    vdp_limit_cycle(1.0, 10.0, 0.3),
    asymmetric_equatorial_limit_cycle(1.0, 1.0, 0.5, 0.3),
    cooperativity_limit_cycle(1.0, 1.0, 1.0, 0.3),
]
CATALOG_IDS = ["equatorial", "vdp", "asymmetric_equatorial", "cooperativity"]


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
        def rotating(gamma_g, detunings):
            # an undamped mode rotating at frequency 1: the block at detuning
            # 1 is singular, every other one regular
            lc = equatorial_limit_cycle(gamma_g, 1.0, np.array(detunings))
            liou = build_liouvillian(lc)
            delta = np.broadcast_to(lc.detuning, lc.shape)[..., None, None]
            block = np.diag([1j, -1.0]) - 1j * delta * np.eye(2)
            return dataclasses.replace(
                liou, sector_blocks={1: block, 2: liou.sector_blocks[2]}
            )

        with pytest.raises(
            SingularCoherenceBlockError,
            match=r"detuning \[1\.0\] at stack index \[1\]$",
        ):
            _response_maps(rotating(1.0, [0.0, 1.0, 2.0]))
        # over a (2, 3) stack the cells are named by row-major index
        with pytest.raises(
            SingularCoherenceBlockError,
            match=r"detuning \[1\.0, 1\.0\] at stack index \[1, 4\]$",
        ):
            _response_maps(rotating(np.array([[1.0], [2.0]]), [0.0, 1.0, 2.0]))
        _, map1, _ = _response_maps(rotating(1.0, [0.0, 2.0]))
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

    # perturb reads epsilon from the coherences as the measure does, not
    # from the norms of rebuilt 3x3 matrices, which round differently
    @given(seed=SEEDS, vdp=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_perturbation_result_epsilon_is_the_measures(self, seed, vdp):
        rng = np.random.default_rng(seed)
        build = vdp_limit_cycle if vdp else equatorial_limit_cycle
        lc = build(*10.0 ** rng.uniform(-2.0, 2.0, 2), rng.normal())
        spec = SignalSpec(*(complex(*rng.normal(size=2)) for _ in range(3)))
        assert perturbation_result(lc, spec).epsilon == sync_measure(lc, spec).epsilon

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

    # a scalar must round as one cell of a stack: builtin abs (hypot) and **
    # (pow) on Python scalars differ from numpy's array loops in the last bit
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_scalar_calls_equal_stacked_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        pops = rng.dirichlet(np.ones(3))
        coh = rng.normal(size=(3, 20)) + 1j * rng.normal(size=(3, 20))
        values = sync_from_coherences(pops, coh)
        norm1 = _norms(pops, coh)[1]
        b, c = coh[0], coh[2]
        coherence_terms = sync_from_coherences(np.ones(1), (b, b, c), 1.0)
        for k in range(coh.shape[1]):
            one = tuple(complex(x) for x in coh[:, k])
            assert sync_from_coherences(pops, one) == values[k]
            assert _norms(pops, one)[1] == norm1[k]
            params = BoundParams(1.0, 0.0, one[0], one[2])
            assert bound_terms(params, 1.0)[1] == coherence_terms[k]

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

    @pytest.mark.parametrize("kmax", [0, 1])
    def test_low_orders_make_no_9x9_solve(self, monkeypatch, kmax):
        lc, spec = vdp_limit_cycle(1.0, 5.0, 0.2), SignalSpec(0.4, 0.6, 0.2)
        want = perturbative_orders(lc, spec, 3)[: kmax + 1]

        def unused(liou):
            raise AssertionError("the 9x9 anchored generator was built")

        monkeypatch.setattr(perturbation, "_anchored", unused)
        got = perturbative_orders(lc, spec, kmax)
        assert len(got) == kmax + 1
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

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


def _orders_by_lstsq(lc, signal, kmax):
    """Oracle: each order k >= 2 from a least-squares solve on the
    trace-augmented population block and a block solve per coherence sector."""
    liou = build_liouvillian(lc)
    orders = [steady_state(liou), first_order(lc, signal)]
    h = build_hext(signal)
    aug = np.vstack([liou.diag_block, np.ones((1, 3))])
    for _ in range(2, kmax + 1):
        rhs_mat = 1j * (h @ orders[-1] - orders[-1] @ h)  # -L_ext rho^(k-1)
        pop_rhs = np.concatenate([rhs_mat.diagonal().real, [0.0]])
        rho_k = np.diag(np.linalg.lstsq(aug, pop_rhs, rcond=None)[0]).astype(complex)
        for k in (1, 2):
            slots = SECTOR_SLOTS[k]
            rhs = np.array([rhs_mat[s] for s in slots])
            sol = np.linalg.solve(liou.sector_blocks[k], rhs)
            for slot, x in zip(slots, sol):
                rho_k[slot], rho_k[slot[::-1]] = x, np.conj(x)
        orders.append(rho_k)
    return orders


TONES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
# tones with a single-quantum part, so that every order responds
DRIVING_TONES = st.tuples(TONES, TONES, TONES).filter(
    lambda t: abs(t[0]) + abs(t[1]) > 0.1
)


class TestAnchoredOrders:
    # every order from the anchored generator L0 - vec(I/3) tr(.) against the
    # per-order least-squares oracle, and the exact state at small strengths
    # against the partial sums of the series
    @settings(max_examples=40, deadline=None)
    @given(
        lc=st.sampled_from(CATALOG),
        tones=DRIVING_TONES,
    )
    def test_orders_match_lstsq_oracle(self, lc, tones):
        signal = SignalSpec(*tones)
        orders = perturbative_orders(lc, signal, 4)
        for got, want in zip(orders, _orders_by_lstsq(lc, signal, 4)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        liou, h = build_liouvillian(lc), build_hext(signal)
        # scale^k bounds the size of rho_k for k <= 4
        scale = max(np.abs(rho).max() ** (1 / k) for k, rho in enumerate(orders[1:], 1))
        for eps in 10.0 ** np.array([-2.5, -3.0]) / scale:
            partial = sum(eps**k * rho for k, rho in enumerate(orders))
            rho = _driven_steady_state(liou, h, eps)
            assert np.abs(rho - partial).max() <= 1e-15 + 10.0 * (scale * eps) ** 5


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


STRENGTHS = np.logspace(-3.0, 3.0, 25)
DRIVES = [semiclassical(0.0), SignalSpec(0.6 + 0.2j, 0.5 - 0.3j, 0.4j)]


def _driven_state_alone(liou, h, eps, dps=50):
    """Reference: the exact driven state of one strength, from a ``dps``-digit
    solve of the generator's float entries."""
    return exact_driven_state(liou.full, hamiltonian_superop(h), eps, dps)


# each CATALOG scenario with its characteristic rate ratio set to ``ratio``
CATALOG_AT_RATIO = [
    lambda ratio: equatorial_limit_cycle(1.0, ratio, 0.3),
    lambda ratio: vdp_limit_cycle(1.0, ratio, 0.3),
    lambda ratio: asymmetric_equatorial_limit_cycle(1.0, ratio, 0.5, 0.3),
    lambda ratio: cooperativity_limit_cycle(ratio, 1.0, 1.0, 0.3),
]


class TestStackedDrivenState:
    @pytest.mark.parametrize("signal", DRIVES, ids=["semiclassical", "squeezed"])
    @pytest.mark.parametrize("lc", CATALOG, ids=CATALOG_IDS)
    def test_stack_equals_one_solve_per_strength(self, lc, signal):
        liou, h = build_liouvillian(lc), build_hext(signal)
        stack = full_steady_state(lc, signal, STRENGTHS)
        assert stack.shape == (len(STRENGTHS), 3, 3)
        for rho, eps in zip(stack, STRENGTHS):
            one = full_steady_state(lc, signal, eps)
            assert one.shape == (3, 3)
            assert np.abs(rho - one).max() <= 1e-15
            assert np.abs(rho - _driven_state_alone(liou, h, eps)).max() <= 1e-15

    # the exact state as the reference, over the whole dynamic range of rates
    # and strengths: every point is well defined, so none may raise.  The
    # first two examples are where one SVD-based correction step was 2e-13
    # and 5e-12 off; the next three, at rate ratios of 1e11, 1e14 and 1e100,
    # raised a spurious DegenerateSteadyStateError from a condition test
    # relative to the largest rate.  The reference carries more digits as
    # the rates spread, since mpmath itself finds the 1e100 system singular
    # at 60 digits
    @settings(max_examples=100, deadline=None)
    @example(CATALOG_AT_RATIO[2], DRIVES[0], 9.6875, [-2.0])
    @example(CATALOG_AT_RATIO[2], DRIVES[0], 9.577254241268793, [-2.446503218777714])
    @example(CATALOG_AT_RATIO[3], DRIVES[1], 11.0, [-4.0, -1.0, 2.0, 4.0])
    @example(CATALOG_AT_RATIO[3], DRIVES[1], 14.0, [-4.0, 0.0, 4.0])
    @example(CATALOG_AT_RATIO[0], DRIVES[0], 100.0, [-4.0, 0.0, 4.0])
    @given(
        cycle=st.sampled_from(CATALOG_AT_RATIO),
        signal=st.sampled_from(DRIVES),
        log_ratio=st.floats(-6.0, 100.0),
        log_strengths=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6),
    )
    def test_stack_matches_reference_anywhere(
        self, cycle, signal, log_ratio, log_strengths
    ):
        liou, h = build_liouvillian(cycle(10.0**log_ratio)), build_hext(signal)
        strengths = 10.0 ** np.array(log_strengths)
        stack = _driven_steady_state(liou, h, strengths)
        gen = liou.full + strengths[:, None, None] * hamiltonian_superop(h)
        resid = np.linalg.norm(gen @ vec(stack)[..., None], axis=(-2, -1))
        assert np.all(resid <= 1e-15 * np.linalg.norm(gen, axis=(-2, -1)))
        assert np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0).max() <= 1e-15
        assert np.array_equal(stack, np.swapaxes(stack, -1, -2).conj())
        dps = 40 + 3 * math.ceil(abs(log_ratio))
        refs = [_driven_state_alone(liou, h, eps, dps) for eps in strengths]
        assert np.abs(stack - np.array(refs)).max() <= 1e-14

    # diagonal generators and no drive: the smallest singular value is
    # exactly 0.0 (a kernel, the population of |+1>) or 1.0 (no kernel, and
    # the generator does not preserve the trace, so there is no stationary
    # state: the result is the solution of the anchored system
    # (L - vec(I/3) tr(.)) x = -vec(I/3), a diagonal in closed form)
    @pytest.mark.parametrize("smallest", [0.0, 1.0])
    def test_diagonal_generator(self, smallest):
        liou = build_liouvillian(equatorial_limit_cycle(1.0, 1.0))
        liou.__dict__["full"] = -np.diag(np.arange(9.0) + smallest).astype(complex)
        h = np.zeros((3, 3), dtype=complex)
        assert np.linalg.svd(liou.full, compute_uv=False)[-1] == smallest
        stack = _driven_steady_state(liou, h, np.array([0.0, 0.5, 2.0]))
        if smallest == 0.0:
            expected = np.diag([1.0, 0.0, 0.0])
        else:
            # -rates x_i - tr(x) / 3 = -1/3 on the populations, 0 elsewhere
            rates = np.array([1.0, 5.0, 9.0])
            weight = np.sum(1.0 / rates) / 3.0
            expected = np.diag((1.0 - weight / (1.0 + weight)) / (3.0 * rates))
        assert np.abs(stack - expected).max() <= 1e-15

    def test_degenerate_cell_named(self):
        # pure dephasing leaves every population stationary until driven
        liou = build_liouvillian(LimitCycleSpec(((SZ, 1.0),)))
        h = build_hext(semiclassical(0.0))
        assert _driven_steady_state(liou, h, 0.5) == pytest.approx(np.eye(3) / 3)
        with pytest.raises(
            DegenerateSteadyStateError,
            match=r"degenerate kernel at epsilon, got \[0.0\] at stack index \[2\]$",
        ):
            _driven_steady_state(liou, h, np.array([0.5, 1.0, 0.0, 2.0]))

    def test_traceless_cell_named(self):
        # a generator whose kernel is S_z alone, with a drive that mixes the
        # trace in: only the undriven cell's stationary direction is traceless
        liou = build_liouvillian(equatorial_limit_cycle(1.0, 1.0))
        h = build_hext(semiclassical(0.0))
        unit = [x / np.linalg.norm(x) for x in (vec(SZ), vec(np.eye(3)))]
        push = hamiltonian_superop(h) @ unit[0]
        push = push / np.linalg.norm(push)
        liou.__dict__["full"] = (
            np.eye(9) - np.outer(unit[0], unit[0]) + np.outer(unit[1], push.conj())
        )
        with pytest.raises(
            DegenerateSteadyStateError,
            match=r"traceless at epsilon, got \[0.0\] at stack index \[1\]$",
        ):
            _driven_steady_state(liou, h, np.array([0.3, 0.0, 1.0]))

    @pytest.mark.parametrize("lc", CATALOG, ids=CATALOG_IDS)
    def test_deformation_measures_per_state(self, lc):
        rho0 = steady_state(build_liouvillian(lc))
        stack = full_steady_state(lc, DRIVES[1], STRENGTHS)
        for measure in (p_avg, p_max):
            values = measure(stack, rho0)
            assert values.shape == STRENGTHS.shape
            for value, rho in zip(values, stack):
                one = measure(rho, rho0)
                assert type(one) is float
                assert value == one


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


# a (2, 3) stack: two damping rates against three detunings
STACK = vdp_limit_cycle(1.0, np.array([[5.0], [50.0]]), np.array([0.0, 0.3, -1.0]))
STACK_SIGNAL = SignalSpec(0.6 + 0.2j, 0.5 - 0.3j, 0.4j)


def _cells(lc):
    """Each index of a stacked spec with the single cycle there."""
    for index in np.ndindex(lc.shape):
        rates = [np.broadcast_to(rate, lc.shape)[index] for _, rate in lc.dissipators]
        ops = [op for op, _ in lc.dissipators]
        detuning = np.broadcast_to(lc.detuning, lc.shape)[index]
        yield index, LimitCycleSpec(tuple(zip(ops, rates)), detuning)


class TestStackedSpecs:
    """Single-cycle public functions either work cell by cell on a stacked
    spec or reject it with InvalidValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda lc: steady_state(build_liouvillian(lc)),
            lambda lc: coherence_response(lc),
            lambda lc: first_order(lc, STACK_SIGNAL),
            lambda lc: sync_measure(lc, STACK_SIGNAL),
        ],
        ids=["steady_state", "coherence_response", "first_order", "sync_measure"],
    )
    def test_works_per_cell(self, call):
        def parts(out):
            if isinstance(out, SyncResult):
                terms = dataclasses.astuple(out.terms)
                out = (out.value, out.locked_phase, out.epsilon, *terms)
            return [np.asarray(x) for x in out] if isinstance(out, tuple) else [out]

        stacked = parts(call(STACK))
        for index, lc in _cells(STACK):
            for got, one in zip(stacked, parts(call(lc))):
                assert got[index].tobytes() == one.tobytes()

    @pytest.mark.parametrize(
        "call",
        [
            lambda lc: build_liouvillian(lc).full,
            lambda lc: perturbation_result(lc, STACK_SIGNAL),
            lambda lc: arnold_tongue(lc, STACK_SIGNAL, np.zeros(3), np.ones(2)),
            lambda lc: full_steady_state(lc, STACK_SIGNAL, 0.01),
            lambda lc: perturbative_orders(lc, STACK_SIGNAL, 2),
            lambda lc: eigencoherences(lc, STACK_SIGNAL),
            lambda lc: optimize_signal(lc, "vdp_general"),
            lambda lc: pmax_forcing_curve(lc, STACK_SIGNAL, np.array([0.1, 1.0])),
        ],
        ids=[
            "full",
            "perturbation_result",
            "arnold_tongue",
            "full_steady_state",
            "perturbative_orders",
            "eigencoherences",
            "optimize_signal",
            "pmax_forcing_curve",
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(InvalidValueError, match=r"one limit cycle, not \(2, 3\)"):
            call(STACK)
