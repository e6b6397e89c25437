import dataclasses
import math
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsync import catalog, perturbation
from spinsync.catalog import (
    SMAX_SPIN_COEFF,
    BoundParams,
    align_squeeze_phase,
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
    Liouvillian,
    build_liouvillian,
    steady_state,
    vec,
)
from spinsync.perturbation import (
    DegenerateSteadyStateError,
    SingularCoherenceBlockError,
    SyncResult,
    ZeroResponseError,
    _driven_steady_state,
    _norms,
    _response_maps,
    coherence_response,
    epsilon_for_threshold,
    first_order,
    full_steady_state,
    hs_norm,
    p_avg,
    p_max,
    perturbation_result,
    perturbative_orders,
    sync_from_coherences,
    sync_measure,
)
from spinsync.signals import SignalSpec, build_hext, semiclassical
from spinsync.spin import SQRT2, SZ, phase_distribution_terms

from conftest import (
    exact_driven_state,
    kronecker_build,
    kronecker_commutator,
    random_hermitian,
    real_form,
)

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda lc, s: first_order(lc, s),
            lambda lc, s: sync_measure(lc, s),
            lambda lc, s: perturbation_result(lc, s),
            lambda lc, s: perturbative_orders(lc, s, 2),
            lambda lc, s: align_squeeze_phase(lc, s),
            lambda lc, s: arnold_tongue(lc, s, np.zeros(3), np.ones(2)),
            lambda lc, s: full_steady_state(lc, s, 0.1),
        ],
        ids=[
            "first_order",
            "sync_measure",
            "perturbation_result",
            "perturbative_orders",
            "align_squeeze_phase",
            "arnold_tongue",
            "full_steady_state",
        ],
    )
    @pytest.mark.parametrize(
        "signal, name",
        [(SignalSpec(math.nan, 1.0), "t01"), (SignalSpec(1.0, 1.0, math.inf), "tm11")],
        ids=["nan", "inf"],
    )
    def test_non_finite_tones_refused(self, call, signal, name):
        message = f"signal tones must be finite: {name}$"
        with pytest.raises(InvalidValueError, match=message):
            call(vdp_limit_cycle(1.0, 5.0), signal)

    @pytest.mark.parametrize(
        "call", [first_order, sync_measure, align_squeeze_phase],
        ids=["first_order", "sync_measure", "align_squeeze_phase"],
    )
    def test_non_finite_array_tone_refused(self, call):
        signal = SignalSpec(np.array([0.5, 1.0]), np.array([1.0, math.nan]), 1.0)
        message = "signal tones must be finite: tm10$"
        with pytest.raises(InvalidValueError, match=message):
            call(vdp_limit_cycle(1.0, 5.0), signal)


def _random_blocks(rng, count):
    """``count`` random complex 2x2 blocks U diag(1, 1/cond) V^H, cond from 1 to
    1e12, their rows scaled by 1e-300 to 1e300 (every fourth left unscaled),
    with real column scales that keep B^-1 diag(scale) in range."""
    def unitary():
        gauss = rng.normal(size=(2, count, 2, 2))
        return np.linalg.qr(gauss[0] + 1j * gauss[1])[0]

    cond = 10.0 ** rng.uniform(0.0, 12.0, size=count)
    sigma = np.zeros((count, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 1] = 1.0, 1.0 / cond
    rows = 10.0 ** rng.uniform(-300.0, 300.0, size=(count, 2))
    rows[::4] = 1.0
    blocks = rows[..., None] * (unitary() @ sigma @ unitary())
    return blocks, rng.normal(size=(count, 2)) * np.sqrt(rows)


class TestClosedFormSectors:
    """The k = 1 solve and the k = 2 quotient of ``_response_maps``, which are
    closed form, against an exact oracle and through the rank tests."""

    def test_sector1_solve_against_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        blocks, scale = _random_blocks(np.random.default_rng(28), 300)
        got = perturbation._solve_sector1(blocks, scale, 0.0)
        worst = 0.0
        for block, cols, x in zip(blocks, scale, got):
            with mpmath.workdps(60):
                b = [[mpmath.mpc(complex(z)) for z in row] for row in block]
                det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
                adj = [[b[1][1], -b[0][1]], [-b[1][0], b[0][0]]]
                exact = np.array(
                    [[complex(adj[i][j] * float(cols[j]) / det) for j in range(2)]
                     for i in range(2)]
                )
                # cond_2 of the row-normalized block N = R^-1 B
                rows = [max(abs(b[i][0]), abs(b[i][1])) for i in range(2)]
                n = mpmath.matrix(
                    [[b[i][j] / rows[i] for j in range(2)] for i in range(2)]
                )
                svals = mpmath.svd_c(n, compute_uv=False)
                cond = float(max(svals) / min(svals))
            # each column's error relative to its largest entry, in units of
            # cond u: 0.88 here, where np.linalg.solve on N reaches 1.18 (1.52
            # and 1.56 on 3000 other draws); on B, whose rows span up to 600
            # decades, LAPACK's error is unbounded
            err = np.abs(x - exact).max(axis=0) / np.abs(exact).max(axis=0)
            worst = max(worst, err.max() / (cond * np.finfo(float).eps))
        assert worst <= 2.0

    def test_zero_sector2_block_refused(self):
        lc = vdp_limit_cycle(1.0, 5.0, np.array([0.0, 0.3, -1.0]))
        liou = build_liouvillian(lc)
        blocks2 = liou.sector_blocks[2].copy()
        blocks2[1] = 0.0
        broken = dataclasses.replace(
            liou, sector_blocks={1: liou.sector_blocks[1], 2: blocks2}
        )
        with pytest.raises(
            SingularCoherenceBlockError,
            match=r"^driven coherence sector 2 has an \(almost\) undamped mode "
            r"at detuning \[0\.3\] at stack index \[1\]$",
        ):
            _response_maps(broken)

    def test_zero_sector2_block_without_population_gap(self):
        # equal extremal populations leave sector 2 undriven: map2 = 0
        liou = build_liouvillian(equatorial_limit_cycle(1.0, 1.0))
        blocks = {1: liou.sector_blocks[1], 2: np.zeros_like(liou.sector_blocks[2])}
        pops, _, map2 = _response_maps(dataclasses.replace(liou, sector_blocks=blocks))
        assert pops[0] == pops[2]
        assert map2 == 0.0

    def test_sector2_quotient_near_overflow(self):
        # |b| overflows although both parts are finite: the quotient is
        # scaled by a power of two, so it neither warns nor loses the value
        # (a subnormal one, of about 2^-1022 / 4)
        liou = build_liouvillian(vdp_limit_cycle(1.0, 5.0))
        blocks = {1: liou.sector_blocks[1], 2: np.full((1, 1), -1.5e308 - 1.5e308j)}
        pops, _, map2 = _response_maps(dataclasses.replace(liou, sector_blocks=blocks))
        exact = 2j * (pops[2] - pops[0]) / (-1.5 - 1.5j) * 1e-308
        assert map2 == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "block",
        [np.array([[-1.0, -1.0], [-2.0, -2.0]]), np.array([[-1e300, 0.0], [0.0, 0.0]])],
        ids=["rank_one", "zero_row"],
    )
    def test_undamped_sector1_block_refused(self, block):
        liou = build_liouvillian(vdp_limit_cycle(1.0, 5.0, 0.3))
        broken = dataclasses.replace(
            liou, sector_blocks={1: block + 0j, 2: liou.sector_blocks[2]}
        )
        with pytest.raises(
            SingularCoherenceBlockError,
            match=r"^driven coherence sector 1 has an \(almost\) undamped mode "
            r"at detuning \[0\.3\]$",
        ):
            _response_maps(broken)

    @pytest.mark.parametrize("lc", CATALOG, ids=CATALOG_IDS)
    def test_sweep_stack_equals_cells_bitwise(self, lc):
        # a 48-cell sync sweep: 8 rate ratios over 18 decades by 6 detunings
        ops = [op for op, _ in lc.dissipators]
        rates = [rate * np.logspace(-6.0, 12.0, 8)[:, None] ** (k % 2)
                 for k, (_, rate) in enumerate(lc.dissipators)]
        stack = LimitCycleSpec(tuple(zip(ops, rates)), np.linspace(-15.0, 19.0, 6))
        stacked = _response_maps(build_liouvillian(stack))
        assert stacked[1].shape == (8, 6, 2, 2)
        for index, cell in _cells(stack):
            for got, one in zip(stacked, _response_maps(build_liouvillian(cell))):
                assert got[index].tobytes() == one.tobytes()


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
        rho2 = perturbative_orders(lc, semiclassical(0.0), 2)[2]
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
        for lc in CATALOG:
            rho = full_steady_state(lc, semiclassical(0.0), 0.05)
            assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-11
            gen = kronecker_build(lc) + 0.05 * kronecker_commutator(
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
    solve of the float entries of the Kronecker generator."""
    gen, l1 = kronecker_build(liou.spec), kronecker_commutator(h)
    return exact_driven_state(gen, l1, eps, dps)


# each CATALOG scenario with its characteristic rate ratio set to ``ratio``
CATALOG_AT_RATIO = [
    lambda ratio: equatorial_limit_cycle(1.0, ratio, 0.3),
    lambda ratio: vdp_limit_cycle(1.0, ratio, 0.3),
    lambda ratio: asymmetric_equatorial_limit_cycle(1.0, ratio, 0.5, 0.3),
    lambda ratio: cooperativity_limit_cycle(ratio, 1.0, 1.0, 0.3),
]
# every catalog cycle at rate ratios 1e-6 to 1e100, both drives, and up to
# six strengths from 1e-4 to 1e4
REFERENCE_DOMAIN = {
    "cycle": st.sampled_from(CATALOG_AT_RATIO),
    "signal": st.sampled_from(DRIVES),
    "log_ratio": st.floats(-6.0, 100.0),
    "log_strengths": st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6),
}
#: driven-state error bound against the high-precision reference
REFERENCE_BOUND = 1e-14


def _reference_states(liou, h, log_ratio, strengths):
    """The exact driven states at ``strengths``, with more digits as the rates
    spread, since mpmath itself finds the 1e100 system singular at 60."""
    dps = 40 + 3 * math.ceil(abs(log_ratio))
    return np.array([_driven_state_alone(liou, h, eps, dps) for eps in strengths])


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
    # relative to the largest rate
    @settings(max_examples=100, deadline=None)
    @example(CATALOG_AT_RATIO[2], DRIVES[0], 9.6875, [-2.0])
    @example(CATALOG_AT_RATIO[2], DRIVES[0], 9.577254241268793, [-2.446503218777714])
    @example(CATALOG_AT_RATIO[3], DRIVES[1], 11.0, [-4.0, -1.0, 2.0, 4.0])
    @example(CATALOG_AT_RATIO[3], DRIVES[1], 14.0, [-4.0, 0.0, 4.0])
    @example(CATALOG_AT_RATIO[0], DRIVES[0], 100.0, [-4.0, 0.0, 4.0])
    @given(**REFERENCE_DOMAIN)
    def test_stack_matches_reference_anywhere(
        self, cycle, signal, log_ratio, log_strengths
    ):
        liou, h = build_liouvillian(cycle(10.0**log_ratio)), build_hext(signal)
        strengths = 10.0 ** np.array(log_strengths)
        stack = _driven_steady_state(liou, h, strengths)
        l1 = kronecker_commutator(h)
        gen = kronecker_build(liou.spec) + strengths[:, None, None] * l1
        resid = np.linalg.norm(gen @ vec(stack)[..., None], axis=(-2, -1))
        assert np.all(resid <= 1e-15 * np.linalg.norm(gen, axis=(-2, -1)))
        assert np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0).max() <= 1e-15
        assert np.array_equal(stack, np.swapaxes(stack, -1, -2).conj())
        refs = _reference_states(liou, h, log_ratio, strengths)
        assert np.abs(stack - refs).max() <= REFERENCE_BOUND

    # the refinement with its residual compensated in plain double, as where
    # long double is double, and checked to run that path: over 900 draws of
    # this domain the error was at most 3.6e-43 (1.3e-15 with x86-64's
    # np.longdouble).  The second example
    # was 1.0e-12 off when that residual was summed in plain double alone.
    # The last four, at rate ratio 1e300, have rates from 2^996 up, where
    # (2^27 + 1) times a rate overflows unless the split rescales it: they
    # were nan, with an overflow warning
    @settings(max_examples=50, deadline=None)
    @example(
        CATALOG_AT_RATIO[0],
        DRIVES[1],
        3.5917745017492493,
        [1.1477286421587332, 3.525876177992, -0.8761715908886147],
    )
    @example(CATALOG_AT_RATIO[2], DRIVES[0], -6.0, [-3.0])
    @example(CATALOG_AT_RATIO[0], DRIVES[0], 300.0, [-3.0, 0.0, 3.0])
    @example(CATALOG_AT_RATIO[1], DRIVES[1], 300.0, [-3.0, 0.0, 3.0])
    @example(CATALOG_AT_RATIO[2], DRIVES[1], 300.0, [-3.0, 0.0, 3.0])
    @example(CATALOG_AT_RATIO[3], DRIVES[0], 300.0, [-3.0, 0.0, 3.0])
    @given(**REFERENCE_DOMAIN)
    def test_plain_double_refinement(self, cycle, signal, log_ratio, log_strengths):
        liou, h = build_liouvillian(cycle(10.0**log_ratio)), build_hext(signal)
        strengths = 10.0 ** np.array(log_strengths)
        compensated = unittest.mock.Mock(wraps=perturbation._compensated_residual)
        with unittest.mock.patch.multiple(
            perturbation, _EXTENDED=float, _compensated_residual=compensated
        ):
            stack = _driven_steady_state(liou, h, strengths)
        assert compensated.call_count == 1
        refs = _reference_states(liou, h, log_ratio, strengths)
        assert np.abs(stack - refs).max() <= REFERENCE_BOUND

    # the compensated residual against the exact residual of the same
    # doubles: off by one rounding of the result and a second-order term of
    # the summands, in every row, the anchor's P x = fl(1/3) tr(x) included
    @pytest.mark.parametrize("lc", CATALOG, ids=CATALOG_IDS)
    def test_compensated_residual_is_error_free(self, lc):
        import mpmath

        liou, h = build_liouvillian(lc), build_hext(DRIVES[1])
        l0 = real_form(kronecker_build(lc))
        l1 = real_form(kronecker_commutator(h))
        strengths = np.array([1e-3, 0.7, 1e3])
        x = perturbation._coordinates(_driven_steady_state(liou, h, strengths))
        got = perturbation._compensated_residual(x, l0, l1, strengths)
        third, populations = 1.0 / 3.0, range(3)
        with mpmath.workdps(80):
            for xk, eps, rk in zip(x.tolist(), strengths.tolist(), got.tolist()):
                for i, ri in enumerate(rk):
                    terms = [
                        -(mpmath.mpf(l0[i, j]) + mpmath.mpf(eps) * mpmath.mpf(l1[i, j]))
                        * mpmath.mpf(xk[j])
                        for j in range(9)
                    ]
                    if i in populations:
                        terms += [mpmath.mpf(third) * mpmath.mpf(xk[j])
                                  for j in populations]
                        terms.append(-mpmath.mpf(third))
                    exact = mpmath.fsum(terms)
                    size = sum(abs(t) for t in terms)
                    assert abs(ri - exact) <= 2.0**-51 * abs(exact) + 2.0**-90 * size

    # no overflow warning (an error under this suite's filter) at extreme
    # rates and strengths, only a state or DegenerateSteadyStateError.  At
    # rates of 1e300 and a strength of 1e296 the real inverse overflows (the
    # complex one did not, and its Skeel product overflowed); in the other
    # two cases |A^-1| times the Skeel bound overflows unless it is formed
    # on scaled copies
    @pytest.mark.parametrize(
        "lc, signal, epsilon",
        [
            (cooperativity_limit_cycle(1e300, 1.0, 1.0, 0.3), DRIVES[0], 1e296),
            (cooperativity_limit_cycle(1e100, 1.0, 1.0, 0.3), DRIVES[0], 1e61),
            (equatorial_limit_cycle(1.0, 1e300, 0.3), DRIVES[1], 1e17),
        ],
        ids=["inverse", "skeel-semiclassical", "skeel-squeezed"],
    )
    def test_no_overflow_at_extreme_rates(self, lc, signal, epsilon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rho = full_steady_state(lc, signal, epsilon)
            except DegenerateSteadyStateError as err:
                assert str(err).endswith(f"[{epsilon!r}]")
            else:
                assert np.isfinite(rho).all()

    # diagonal generators and no drive: the smallest singular value is
    # exactly 0.0 (a kernel, the population of |+1>) or 1.0 (no kernel, and
    # the generator does not preserve the trace, so there is no stationary
    # state: the result is the solution of the anchored system
    # (L - vec(I/3) tr(.)) x = -vec(I/3), a diagonal in closed form)
    @pytest.mark.parametrize("smallest", [0.0, 1.0])
    def test_diagonal_generator(self, smallest):
        # decay rates k + smallest at the vec positions k = i + 3 j
        rates = np.arange(9.0) + smallest
        liou = Liouvillian(
            equatorial_limit_cycle(1.0, 1.0),
            -np.diag(rates[[0, 4, 8]]),
            {1: -np.diag(rates[[3, 7]]) + 0j, 2: -rates[[6]][:, None] + 0j},
        )
        h = np.zeros((3, 3), dtype=complex)
        gen = perturbation._generator_form(liou)
        assert np.linalg.svd(gen, compute_uv=False)[-1] == smallest
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
        # a generator whose kernel is S_z alone and that does not preserve
        # the trace (the middle population doubles): only the undriven
        # cell's stationary direction is traceless
        liou = Liouvillian(
            equatorial_limit_cycle(1.0, 1.0),
            np.array([[0.5, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 0.5]]),
            {1: np.eye(2) + 0j, 2: np.eye(1) + 0j},
        )
        h = build_hext(semiclassical(0.0))
        with pytest.raises(
            DegenerateSteadyStateError,
            match=r"traceless at epsilon, got \[0.0\] at stack index \[1\]$",
        ):
            _driven_steady_state(liou, h, np.array([0.3, 0.0, 1.0]))

    # a nan or an overflowed form reached the degeneracy SVD, which raised
    # LinAlgError
    @pytest.mark.parametrize(
        "signal, epsilon, message",
        [
            (SignalSpec(math.nan, 1.0), 0.1, "signal tones must be finite: t01"),
            (SignalSpec(1.0, 1.0, math.inf), 0.1, "signal tones must be finite: tm11"),
            # finite tones whose signal form overflows
            (
                SignalSpec(1e308, 1.0),
                0.1,
                "signal tones overflow the driven generator: t01$",
            ),
            (
                SignalSpec(1.0, 1e308j, 5e307),
                np.array([0.1, 0.2]),
                "signal tones overflow the driven generator: tm10, tm11$",
            ),
            (semiclassical(0.0), math.nan, r"epsilon must be finite, got \[nan\]$"),
            (
                semiclassical(0.0),
                np.array([0.1, math.nan, math.inf]),
                r"epsilon must be finite, got \[nan, inf\] at stack index \[1, 2\]$",
            ),
        ],
    )
    def test_non_finite_input_named(self, signal, epsilon, message):
        lc = equatorial_limit_cycle(1.0, 2.0)
        with pytest.raises(InvalidValueError, match=message):
            full_steady_state(lc, signal, epsilon)

    def test_overflowing_signal_form_named_by_the_orders(self):
        lc, signal = equatorial_limit_cycle(1.0, 2.0), SignalSpec(1e308, 1.0)
        message = "signal tones overflow the driven generator: t01$"
        with pytest.raises(InvalidValueError, match=message):
            perturbative_orders(lc, signal, 2)

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


    # the populations the forcing figures read from the solve's coordinates
    # (fig3a and fig3b through _population_shifts, fig8app through
    # _pmax_curves), with no 3x3 state built, are p_avg and p_max of
    # full_steady_state's states bit for bit
    @pytest.mark.parametrize("signal", DRIVES, ids=["semiclassical", "squeezed"])
    @pytest.mark.parametrize("lc", CATALOG, ids=CATALOG_IDS)
    def test_figure_populations_equal_full_states(self, lc, signal):
        strengths = np.r_[0.0, np.logspace(-4.0, 3.0, 43)]
        liou = build_liouvillian(lc)
        rho0 = steady_state(liou)
        states = full_steady_state(lc, signal, strengths)
        shift = perturbation._population_shifts(
            liou, rho0.diagonal().real, [signal], strengths
        )[0]
        assert (shift[:, 0] - shift[:, 2]).tobytes() == p_avg(states, rho0).tobytes()
        want = p_max(states, rho0).tobytes()
        assert np.abs(shift).max(axis=-1).tobytes() == want
        assert catalog._pmax_curves(liou, [signal], strengths)[0].tobytes() == want


class TestRealForm:
    # the four catalog cycles, whose operators are real, each with a random
    # signal: both real forms equal the Kronecker oracle's by value (the
    # signs of zero entries may differ)
    @given(
        cycle=st.sampled_from(range(4)),
        log_ratio=st.floats(-6.0, 15.0),
        detuning=st.floats(-20.0, 20.0),
        seed=SEEDS,
    )
    @settings(max_examples=50, deadline=None)
    def test_forms_equal_kronecker_oracle(self, cycle, log_ratio, detuning, seed):
        ratio = 10.0**log_ratio
        spec = [
            equatorial_limit_cycle(1.0, ratio, detuning),
            vdp_limit_cycle(1.0, ratio, detuning),
            asymmetric_equatorial_limit_cycle(1.0, ratio, 0.5, detuning),
            cooperativity_limit_cycle(ratio, 1.0, 1.0, detuning),
        ][cycle]
        form = perturbation._generator_form(build_liouvillian(spec))
        assert np.array_equal(form, real_form(kronecker_build(spec)))
        rng = np.random.default_rng(seed)
        parts = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 3))
        h = build_hext(SignalSpec(*(parts[0] + 1j * parts[1])))
        form = perturbation._signal_form(h)
        assert np.array_equal(form, real_form(kronecker_commutator(h)))

    # each entry of the real form of every catalog generator and of both
    # drives' commutators is, in exact rational arithmetic, the coordinate
    # of the Kronecker operator applied to the matrix of one unit
    # coordinate; that matrix is exactly Hermitian, and so is its image
    @pytest.mark.parametrize("signal", DRIVES, ids=["semiclassical", "squeezed"])
    @pytest.mark.parametrize("lc", CATALOG, ids=CATALOG_IDS)
    def test_entries_exact(self, lc, signal):
        from fractions import Fraction

        def exact(z):
            return Fraction(z.real), Fraction(z.imag)

        def product(a, b):
            return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

        mirror = vec(np.arange(9).reshape(3, 3)).real.astype(int)  # (i, j) -> (j, i)
        h = build_hext(signal)
        for op, form in (
            (kronecker_build(lc), perturbation._generator_form(build_liouvillian(lc))),
            (kronecker_commutator(h), perturbation._signal_form(h)),
        ):
            for c, unit in enumerate(np.eye(9)):
                basis = vec(perturbation._from_coordinates(unit))
                image = [
                    tuple(map(sum, zip(*(product(exact(a), exact(b))
                                         for a, b in zip(row, basis)))))
                    for row in op
                ]
                assert all(image[p] == (image[q][0], -image[q][1])
                           for p, q in enumerate(mirror))
                want = [image[p][0] for p in (0, 4, 8, 3, 7, 6)]
                want += [image[p][1] for p in (3, 7, 6)]
                assert [Fraction(v) for v in form[:, c]] == want

    # the Kronecker oracle's form of -i[h, .] for any Hermitian h, with
    # diagonal entries too, is the signal form bit for bit
    def test_signal_form_equals_kronecker_oracle(self, rng):
        for _ in range(200):
            h = random_hermitian(rng)
            form = perturbation._signal_form(h)
            assert np.array_equal(form, real_form(kronecker_commutator(h)))

    # the table form of -i[h, .] is -i[h, X_c] formed directly, bit for bit
    # up to the sign of a zero (adding +0.0 makes every zero +0), for any
    # Hermitian h, diagonal included, with parts from 1e-300 to 1e300
    @given(
        parts=st.lists(
            st.one_of(
                st.just(0.0),
                st.builds(
                    lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
                    st.floats(1.0, 9.999999999999998),
                    st.integers(-300, 299),
                    st.sampled_from([1.0, -1.0]),
                ),
            ),
            min_size=9,
            max_size=9,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_signal_table_equals_direct_commutator(self, parts):
        h = perturbation._from_coordinates(np.array(parts))
        basis = perturbation._BASIS
        direct = perturbation._coordinates(-1j * (h @ basis - basis @ h)).T
        form = perturbation._signal_form(h)
        assert (form + 0.0).tobytes() == (direct + 0.0).tobytes()

    def test_signal_form_applies_the_commutator(self, rng):
        for _ in range(20):
            h, rho = random_hermitian(rng), random_hermitian(rng, trace_one=True)
            expected = perturbation._coordinates(-1j * (h @ rho - rho @ h))
            got = perturbation._signal_form(h) @ perturbation._coordinates(rho)
            err = np.abs(got - expected).max()
            assert err <= 1e-14 * np.abs(h).max() * np.abs(rho).max()

    def test_coordinates_round_trip(self, rng):
        x = rng.normal(size=(5, 9)) * 10.0 ** rng.integers(-300, 300, size=(5, 9))
        rho = perturbation._from_coordinates(x)
        assert np.array_equal(rho, np.swapaxes(rho, -1, -2).conj())
        assert np.array_equal(perturbation._coordinates(rho), x)
        assert np.array_equal(rho.diagonal(axis1=-2, axis2=-1).real, x[:, :3])
        assert np.array_equal(rho[:, 0, 1], x[:, 3] + 1j * x[:, 6])
        assert np.array_equal(rho[:, 1, 2], x[:, 4] + 1j * x[:, 7])
        assert np.array_equal(rho[:, 0, 2], x[:, 5] + 1j * x[:, 8])


def _coherence_modes(lc, signal):
    """The first-order response mode by mode: for each coherence sector k,
    the eigenvalues (decays) and eigenvectors (modes) of its block, and the
    coefficients of the drive -i[h, rho0] on the sector's slots in that
    eigenbasis, so that rho1 = -sum(mode * drive / decay).  Also returns the
    largest condition number of an eigenbasis."""
    liou = build_liouvillian(lc)
    rho0, h = steady_state(liou), build_hext(signal)
    drive = -1j * (h @ rho0 - rho0 @ h)
    modes, cond = [], 1.0
    for k in (1, 2, -1, -2):
        block = liou.sector_blocks[abs(k)]
        decays, vecs = np.linalg.eig(block if k > 0 else block.conj())
        cond = max(cond, np.linalg.cond(vecs))
        coeffs = np.linalg.solve(vecs, [drive[s] for s in SECTOR_SLOTS[k]])
        for decay, column, coeff in zip(decays, vecs.T, coeffs):
            mode = np.zeros((3, 3), dtype=complex)
            for s, x in zip(SECTOR_SLOTS[k], column):
                mode[s] = x
            modes.append((decay, mode, coeff))
    return modes, cond


# the eigendecomposition of the coherence blocks, against the first order
# that solves the blocks directly
class TestCoherenceModes:
    def test_equatorial_decay_rates(self):
        gg, gd, delta = 1.0, 3.0, 0.7
        liou = build_liouvillian(equatorial_limit_cycle(gg, gd, delta))
        decays = sorted(np.linalg.eigvals(liou.sector_blocks[1]), key=lambda z: z.real)
        assert decays[0] == pytest.approx(-gd - 1j * delta)
        assert decays[1] == pytest.approx(-gg - 1j * delta)

    def test_reconstruction(self):
        for lc in CATALOG:
            modes, _ = _coherence_modes(lc, SignalSpec(0.4 + 0.2j, 0.7, 0.3j))
            recon = -sum(mode * (drive / decay) for decay, mode, drive in modes)
            first = first_order(lc, SignalSpec(0.4 + 0.2j, 0.7, 0.3j))
            assert np.abs(recon - first).max() < 1e-10

    def test_norm_identity_for_orthonormal_modes(self):
        # the equatorial blocks are diagonal, so the eigenbasis is orthonormal
        lc, signal = equatorial_limit_cycle(1.0, 4.0, 0.5), semiclassical(0.3)
        modes, cond = _coherence_modes(lc, signal)
        assert cond == pytest.approx(1.0)
        total = sum(abs(drive / decay) ** 2 for decay, _, drive in modes)
        assert total == pytest.approx(hs_norm(first_order(lc, signal)) ** 2)

    def test_zero_signal_drives_nothing(self):
        lc = equatorial_limit_cycle(1.0, 2.0)
        modes, _ = _coherence_modes(lc, SignalSpec(0, 0, 0))
        assert all(drive == 0 for _, _, drive in modes)
        assert not first_order(lc, SignalSpec(0, 0, 0)).any()

    def test_defective_block_solved(self):
        # equal diagonal entries with the gain cross-coupling form a Jordan
        # block, which has no eigenbasis; the first order solves the block
        lc, signal = vdp_limit_cycle(1.0, 0.5), semiclassical(0.0)
        _, cond = _coherence_modes(lc, signal)
        assert cond >= 1e8
        liou = build_liouvillian(lc)
        rho0, h = steady_state(liou), build_hext(signal)
        drive = -1j * (h @ rho0 - rho0 @ h)
        rho1 = first_order(lc, signal)
        for k in (1, 2):
            slots = tuple(zip(*SECTOR_SLOTS[k]))
            resid = liou.sector_blocks[k] @ rho1[slots] + drive[slots]
            assert np.abs(resid).max() <= 1e-15 * np.abs(drive).max()


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
            lambda lc: perturbation_result(lc, STACK_SIGNAL),
            lambda lc: arnold_tongue(lc, STACK_SIGNAL, np.zeros(3), np.ones(2)),
            lambda lc: full_steady_state(lc, STACK_SIGNAL, 0.01),
            lambda lc: perturbative_orders(lc, STACK_SIGNAL, 2),
            lambda lc: optimize_signal(lc, "vdp_general"),
            lambda lc: pmax_forcing_curve(lc, STACK_SIGNAL, np.array([0.1, 1.0])),
        ],
        ids=[
            "perturbation_result",
            "arnold_tongue",
            "full_steady_state",
            "perturbative_orders",
            "optimize_signal",
            "pmax_forcing_curve",
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(InvalidValueError, match=r"one limit cycle, not \(2, 3\)"):
            call(STACK)
