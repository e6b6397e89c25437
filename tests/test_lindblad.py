import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsync.catalog import (
    asymmetric_equatorial_limit_cycle,
    cooperativity_limit_cycle,
    equatorial_limit_cycle,
    vdp_limit_cycle,
)
from spinsync.errors import InvalidValueError
from spinsync.lindblad import (
    SECTOR_SLOTS,
    DegenerateLimitCycleError,
    LimitCycleSpec,
    MixedSectorError,
    apply_liouvillian,
    build_liouvillian,
    dissipator_apply,
    dissipator_superop,
    hamiltonian_superop,
    sector_block,
    sector_of,
    steady_state,
    unvec,
    vec,
)
from spinsync.spin import SM, SP, SQRT2, SX, SZ, rotation_z

from conftest import random_hermitian

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _kronecker_dissipator(op):
    """Oracle: D[O] as a sum of np.kron superoperators."""
    eye, odo = np.eye(3, dtype=complex), op.conj().T @ op
    return np.kron(op.conj(), op) - 0.5 * np.kron(eye, odo) - 0.5 * np.kron(odo.T, eye)


def _kronecker_build(spec):
    """Oracle: the 9x9 generator of one cycle as a sum of Kronecker-product
    superoperators."""
    full = np.zeros((9, 9), dtype=complex)
    for op, rate in spec.dissipators:
        if float(rate) > 0.0:
            full += float(rate) * _kronecker_dissipator(np.asarray(op, dtype=complex))
    if spec.detuning != 0.0:
        eye, sz = np.eye(3, dtype=complex), SZ.astype(complex)
        full += spec.detuning * (-1j * (np.kron(eye, sz) - np.kron(sz.T, eye)))
    return full


def _kronecker_term_sizes(spec):
    """The sum, at each entry of the 9x9 generator, of the moduli of the
    products that :func:`_kronecker_build` adds there: a bound on what its
    rounding errors can scale with."""
    eye, sizes = np.eye(3), np.zeros((9, 9))
    for op, rate in spec.dissipators:
        mag = np.abs(np.asarray(op, dtype=complex))
        odo = mag.T @ mag  # |O^dag O| for an operator on a single diagonal
        sizes += float(rate) * (
            np.kron(mag, mag) + 0.5 * np.kron(eye, odo) + 0.5 * np.kron(odo.T, eye)
        )
    return sizes + abs(spec.detuning) * np.abs(np.kron(eye, SZ) - np.kron(SZ.T, eye))


def random_sector_spec(rng, detuning=None):
    dissipators = []
    for _ in range(rng.integers(2, 4)):
        k = int(rng.integers(-2, 3))
        op = np.zeros((3, 3), complex)
        for i in range(3):
            if 0 <= i + k < 3:
                op[i, i + k] = rng.normal() + 1j * rng.normal()
        if not op.any():
            continue
        dissipators.append((op, float(rng.uniform(0.2, 2.0))))
    if len(dissipators) < 2:
        return random_sector_spec(rng, detuning)
    if detuning is None:
        detuning = float(rng.normal())
    return LimitCycleSpec(tuple(dissipators), detuning)


class TestSectorOf:
    def test_gain_operator(self):
        assert sector_of(SP @ SZ) == 1

    def test_double_lowering(self):
        assert sector_of(SM @ SM) == -2

    def test_dephasing_is_sector_zero(self):
        assert sector_of(SZ) == 0

    def test_transverse_operator_rejected(self):
        with pytest.raises(MixedSectorError):
            sector_of(SX)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            sector_of(np.zeros((3, 3)))

    def test_non_finite_operator_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sector_of(np.diag([1.0, math.nan, 0.0]))


class TestDissipatorApply:
    def test_gain_on_ground_state(self):
        rho = np.diag([0.0, 0.0, 1.0]).astype(complex)
        expected = 2.0 * np.diag([0.0, 1.0, -1.0])
        assert np.allclose(dissipator_apply(SP @ SZ, rho), expected)

    def test_damping_annihilates_equatorial_state(self):
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert np.allclose(dissipator_apply(SM @ SZ, rho), 0.0)

    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_trace_free(self, seed):
        rng = np.random.default_rng(seed)
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = random_hermitian(rng)
        out = dissipator_apply(op, rho)
        assert abs(out.trace()) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


class TestBuildLiouvillian:
    def test_equatorial_single_quantum_block(self):
        liou = build_liouvillian(equatorial_limit_cycle(2.0, 5.0))
        assert np.allclose(liou.sector_blocks[1], np.diag([-5.0, -2.0]))

    def test_detuning_shifts_blocks(self):
        base = build_liouvillian(equatorial_limit_cycle(1.0, 3.0))
        shifted = build_liouvillian(equatorial_limit_cycle(1.0, 3.0, 0.7))
        for k in (1, 2):
            diff = shifted.sector_blocks[k] - base.sector_blocks[k]
            assert np.allclose(diff, -1j * k * 0.7 * np.eye(diff.shape[0]))

    def test_vdp_gain_couples_coherences(self):
        liou = build_liouvillian(vdp_limit_cycle(1.0, 4.0))
        block = liou.sector_blocks[1]
        assert block[0, 1] == pytest.approx(SQRT2 * 1.0)
        assert block[1, 0] == 0.0
        assert block[0, 0] == pytest.approx(-5.0)
        assert block[1, 1] == pytest.approx(-1.5)

    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_trace_and_hermiticity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        liou = build_liouvillian(random_sector_spec(rng))
        for _ in range(4):
            rho = random_hermitian(rng)
            out = apply_liouvillian(liou, rho)
            assert abs(out.trace()) < 1e-13 * max(1.0, np.abs(out).max())
            assert np.abs(out - out.conj().T).max() < 1e-12

    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_sector_preservation(self, seed):
        rng = np.random.default_rng(seed)
        liou = build_liouvillian(random_sector_spec(rng))
        scale = np.abs(liou.full).max()
        slot_index = {}
        for k, slots in SECTOR_SLOTS.items():
            for i, j in slots:
                slot_index[i + 3 * j] = k
        for i in range(3):
            slot_index[i + 3 * i] = 0
        for row in range(9):
            for col in range(9):
                if slot_index[row] != slot_index[col]:
                    assert abs(liou.full[row, col]) < 1e-14 * scale

    @given(seed=SEEDS, alpha=st.floats(min_value=0.0, max_value=6.28))
    @settings(max_examples=25, deadline=None)
    def test_rotational_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        spec = random_sector_spec(rng)
        rot = rotation_z(alpha)
        conjugated = LimitCycleSpec(
            tuple((rot @ op @ rot.conj().T, rate) for op, rate in spec.dissipators),
            spec.detuning,
        )
        a = build_liouvillian(spec).full
        b = build_liouvillian(conjugated).full
        assert np.abs(a - b).max() < 1e-13 * max(1.0, np.abs(a).max())

    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_negative_sector_is_conjugate(self, seed):
        rng = np.random.default_rng(seed)
        liou = build_liouvillian(random_sector_spec(rng))
        for k in (1, 2):
            assert np.allclose(
                sector_block(liou, -k), sector_block(liou, k).conj()
            )

    @given(
        seed=SEEDS,
        detuning=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    @example(seed=359, detuning=0.0)
    @example(seed=818227, detuning=0.0)
    def test_direct_blocks_match_kronecker_build(self, seed, detuning):
        rng = np.random.default_rng(seed)
        spec = random_sector_spec(rng, detuning)
        spec = LimitCycleSpec(
            tuple((op, 10.0 ** rng.uniform(-6.0, 15.0)) for op, _ in spec.dissipators),
            detuning,
        )
        liou = build_liouvillian(spec)
        kron = _kronecker_build(spec)
        assert liou.full.tobytes() == kron.tobytes()

        def sliced(mat, k):
            slots = SECTOR_SLOTS[k] if k else ((0, 0), (1, 1), (2, 2))
            idx = [i + 3 * j for i, j in slots]
            return mat[np.ix_(idx, idx)]

        assert liou.diag_block.tobytes() == sliced(kron, 0).real.tobytes()
        for k in (1, 2):
            assert sector_block(liou, k).tobytes() == sliced(kron, k).tobytes()
        # the k < 0 blocks are the conjugates of the k > 0 blocks, while the
        # oracle sums other products there, which can cancel: each entry
        # (at most 10 rounded terms) is bounded by the moduli of its terms
        sizes = _kronecker_term_sizes(spec)
        for k in (-1, -2):
            err = np.abs(sector_block(liou, k) - sliced(kron, k))
            assert (err <= 10 * np.finfo(float).eps * sliced(sizes, k)).all()

    # the four catalog cycles, whose operators are real
    @given(
        cycle=st.sampled_from(range(4)),
        log_ratio=st.floats(-6.0, 12.0),
        detuning=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_catalog_full_equals_kronecker_bitwise(self, cycle, log_ratio, detuning):
        ratio = 10.0**log_ratio
        spec = [
            equatorial_limit_cycle(1.0, ratio, detuning),
            vdp_limit_cycle(1.0, ratio, detuning),
            asymmetric_equatorial_limit_cycle(1.0, ratio, 0.5, detuning),
            cooperativity_limit_cycle(ratio, 1.0, 1.0, detuning),
        ][cycle]
        full = build_liouvillian(spec).full
        assert full.tobytes() == _kronecker_build(spec).tobytes()

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            build_liouvillian(LimitCycleSpec(((SP @ SZ, -1.0),), 0.0))

    def test_rejects_all_zero_rates(self):
        with pytest.raises(ValueError):
            build_liouvillian(LimitCycleSpec(((SP @ SZ, 0.0),), 0.0))

    def test_rejects_mixed_sector_dissipator(self):
        with pytest.raises(MixedSectorError):
            build_liouvillian(LimitCycleSpec(((SX, 1.0),), 0.0))

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_rate(self, rate):
        spec = LimitCycleSpec(((SP @ SZ, 1.0), (SM @ SZ, rate)), 0.0)
        with pytest.raises(ValueError, match="rate"):
            build_liouvillian(spec)

    @pytest.mark.parametrize("detuning", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_detuning(self, detuning):
        with pytest.raises(ValueError, match="detuning"):
            build_liouvillian(equatorial_limit_cycle(1.0, 2.0, detuning))

    @given(
        seed=SEEDS,
        exponents=st.lists(
            st.floats(min_value=-6.0, max_value=15.0), min_size=2, max_size=8
        ),
        detunings=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_stacked_build_equals_one_build_per_cell(self, seed, exponents, detunings):
        # random operators, each dissipator with its own column of rates
        rng = np.random.default_rng(seed)
        ops = [op for op, _ in random_sector_spec(rng).dissipators]
        rates = 10.0 ** np.resize(exponents, (len(ops), len(exponents)))
        rng.shuffle(rates, axis=1)
        spec = LimitCycleSpec(
            tuple(zip(ops, rates[:, :, None])), np.array(detunings)
        )
        stack = build_liouvillian(spec)
        assert spec.shape == (len(exponents), len(detunings))
        for i, j in np.ndindex(spec.shape):
            one = build_liouvillian(
                LimitCycleSpec(tuple(zip(ops, rates[:, i])), detunings[j])
            )
            assert one.diag_block.tobytes() == stack.diag_block[i, j].tobytes()
            for k in (1, 2):
                assert (
                    one.sector_blocks[k].tobytes()
                    == stack.sector_blocks[k][i, j].tobytes()
                )

    def test_stacked_checks_name_the_failing_cells(self):
        gain, loss = SP @ SZ, SM @ SZ
        rates = np.array([1.0, -2.0, math.nan])
        bad_rate = LimitCycleSpec(((gain, 1.0), (loss, rates)))
        with pytest.raises(
            InvalidValueError, match=r"got \[-2\.0, nan\] at stack index \[1, 2\]"
        ):
            build_liouvillian(bad_rate)
        no_rate = LimitCycleSpec(((gain, np.array([[1.0], [0.0]])), (loss, 0.0)))
        with pytest.raises(InvalidValueError, match=r"rate at stack index \[1\]"):
            build_liouvillian(no_rate)
        # row-major indices over a (2, 2) stack
        detuning = np.array([[0.0, math.inf], [1.0, 2.0]])
        with pytest.raises(
            InvalidValueError, match=r"got \[inf\] at stack index \[1\]"
        ):
            build_liouvillian(equatorial_limit_cycle(1.0, 2.0, detuning))

    def test_rates_that_do_not_broadcast_rejected(self):
        spec = LimitCycleSpec(
            ((SP @ SZ, np.ones(2)), (SM @ SZ, np.ones(3))), 0.0
        )
        with pytest.raises(InvalidValueError, match="broadcast"):
            build_liouvillian(spec)

    def test_checks_run_in_dissipator_order_on_every_build(self):
        # each dissipator's rate is checked before its operator, and the
        # first failing dissipator decides the error, on repeated builds too
        gain = SP @ SZ
        mixed_first = LimitCycleSpec(((SX, 1.0), (gain, -1.0)))
        rate_first = LimitCycleSpec(((gain, -1.0), (SX, 1.0)))
        for _ in range(2):
            with pytest.raises(MixedSectorError):
                build_liouvillian(mixed_first)
            with pytest.raises(InvalidValueError, match="rates must be finite"):
                build_liouvillian(rate_first)

    def test_operators_checked_once_per_spec(self, monkeypatch):
        import spinsync.lindblad as lindblad

        calls = []
        monkeypatch.setattr(
            lindblad, "sector_of", lambda op: calls.append(op) or sector_of(op)
        )
        spec = vdp_limit_cycle(1.0, 2.0)
        first = build_liouvillian(spec)
        again = build_liouvillian(spec)
        assert len(calls) == len(spec.dissipators)
        assert again.diag_block.tobytes() == first.diag_block.tobytes()
        build_liouvillian(spec.with_detuning(1.0))  # a new spec checks again
        assert len(calls) == 2 * len(spec.dissipators)


class TestSteadyState:
    def test_equatorial_target(self):
        rho0 = steady_state(build_liouvillian(equatorial_limit_cycle(1.0, 1.0)))
        assert np.allclose(rho0, np.diag([0.0, 1.0, 0.0]))

    def test_vdp_populations(self):
        gg, gd = 0.7, 4.0
        rho0 = steady_state(build_liouvillian(vdp_limit_cycle(gg, gd)))
        total = 3 * gd + gg
        expected = np.array([gg, gd, 2 * gd]) / total
        assert np.allclose(rho0.diagonal().real, expected, atol=1e-13)

    def test_vdp_deep_quantum_limit(self):
        rho0 = steady_state(build_liouvillian(vdp_limit_cycle(1.0, 1e6)))
        assert np.allclose(
            rho0.diagonal().real, [0.0, 1 / 3, 2 / 3], atol=1e-5
        )

    def test_degenerate_cycle_rejected(self):
        # double raising alone leaves the equatorial population untouched
        spec = LimitCycleSpec(((SP @ SP, 1.0),), 0.0)
        with pytest.raises(DegenerateLimitCycleError):
            steady_state(build_liouvillian(spec))

    def test_degenerate_cell_named_in_stack(self):
        # no gain in the middle cell: damping alone leaves |0> and |-1> both
        # stationary there
        spec = LimitCycleSpec(
            ((SP @ SZ, np.array([1.0, 0.0, 2.0])), (SM @ SZ, 1.0)), 0.0
        )
        with pytest.raises(DegenerateLimitCycleError, match=r"stack index \[1\]$"):
            steady_state(build_liouvillian(spec))

    def test_stacked_target_states(self):
        gd = np.array([0.5, 4.0, 1e6])
        stack = steady_state(build_liouvillian(vdp_limit_cycle(1.0, gd, 0.3)))
        assert stack.shape == (3, 3, 3)
        for i, g in enumerate(gd):
            one = steady_state(build_liouvillian(vdp_limit_cycle(1.0, g, 0.3)))
            assert one.tobytes() == stack[i].tobytes()

    def test_residual_small(self):
        for lc in (
            equatorial_limit_cycle(1.0, 100.0),
            vdp_limit_cycle(1.0, 100.0),
            asymmetric_equatorial_limit_cycle(1.0, 1.0, 1e-3),
            cooperativity_limit_cycle(3.0),
        ):
            liou = build_liouvillian(lc)
            rho0 = steady_state(liou)
            assert np.linalg.norm(liou.diag_block @ rho0.diagonal().real) < 1e-12
            off = rho0 - np.diag(rho0.diagonal())
            assert np.abs(off).max() == 0.0
            assert rho0.trace().real == pytest.approx(1.0, abs=1e-14)

    def test_coherence_sectors_decay(self):
        for lc in (
            equatorial_limit_cycle(1.0, 10.0, 0.5),
            vdp_limit_cycle(1.0, 10.0, 0.5),
            asymmetric_equatorial_limit_cycle(1.0, 2.0, 0.3, 0.5),
            cooperativity_limit_cycle(1.0, 1.0, 1.0, 0.5),
        ):
            liou = build_liouvillian(lc)
            for k in (1, 2, -1, -2):
                evals = np.linalg.eigvals(sector_block(liou, k))
                assert evals.real.max() < 0.0


class TestSpecIdentity:
    """Specs and generators hold arrays, so they compare and hash by identity."""

    @pytest.mark.parametrize(
        "gamma_d, detuning",
        [(2.0, 0.3), (np.array([[2.0], [3.0]]), np.array([0.0, 0.5]))],
        ids=["single", "stack"],
    )
    def test_equality_and_hash(self, gamma_d, detuning):
        lc = vdp_limit_cycle(1.0, gamma_d, detuning)
        twin = vdp_limit_cycle(1.0, gamma_d, detuning)
        liou = build_liouvillian(lc)
        for obj, other in ((lc, twin), (liou, build_liouvillian(twin))):
            assert obj == obj
            assert obj != other
            assert hash(obj) == hash(obj)
            assert {obj: 1, other: 2}[obj] == 1


class TestDissipatorSuperop:
    def test_equals_kronecker_form_bitwise(self, rng):
        for _ in range(200):
            op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert dissipator_superop(op).tobytes() == _kronecker_dissipator(op).tobytes()

    def test_applies_the_dissipator(self, rng):
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = random_hermitian(rng, trace_one=True)
        expected = vec(dissipator_apply(op, rho))
        got = dissipator_superop(op) @ vec(rho)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class TestHamiltonianSuperop:
    def test_equals_kronecker_form_bitwise(self, rng):
        eye = np.eye(3, dtype=complex)
        for _ in range(200):
            h = random_hermitian(rng)
            kronecker = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
            assert hamiltonian_superop(h).tobytes() == kronecker.tobytes()

    def test_applies_the_commutator(self, rng):
        h, rho = random_hermitian(rng), random_hermitian(rng, trace_one=True)
        expected = vec(-1j * (h @ rho - rho @ h))
        np.testing.assert_allclose(hamiltonian_superop(h) @ vec(rho), expected, atol=1e-14)


class TestVec:
    def test_stack_column_stacks_each_matrix(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(2, 4, 3, 3)) + 1j * rng.normal(size=(2, 4, 3, 3))
        flat = vec(stack)
        assert flat.shape == (2, 4, 9)
        for index in np.ndindex(2, 4):
            assert flat[index].tobytes() == stack[index].flatten(order="F").tobytes()
        assert unvec(flat).tobytes() == stack.tobytes()
