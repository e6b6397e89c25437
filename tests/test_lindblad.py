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
    _sector_and_scale,
    build_liouvillian,
    steady_state,
    unvec,
    vec,
)
from spinsync.perturbation import _TRACE_ROW, _coordinates, _generator_form
from spinsync.spin import SM, SP, SQRT2, SZ

from conftest import SX, kronecker_build, random_hermitian, rotation_z

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _kronecker_term_sizes(spec):
    """The sum, at each entry of the 9x9 generator, of the moduli of the
    products that :func:`kronecker_build` adds there: a bound on what its
    rounding errors can scale with."""
    eye, sizes = np.eye(3), np.zeros((9, 9))
    for op, rate in spec.dissipators:
        mag = np.abs(np.asarray(op, dtype=complex))
        odo = mag.T @ mag  # |O^dag O| for an operator on a single diagonal
        sizes += float(rate) * (
            np.kron(mag, mag) + 0.5 * np.kron(eye, odo) + 0.5 * np.kron(odo.T, eye)
        )
    return sizes + abs(spec.detuning) * np.abs(np.kron(eye, SZ) - np.kron(SZ.T, eye))


def _sliced(mat, k):
    """The block of a 9x9 superoperator on the slots of sector k (0 for the
    populations)."""
    slots = SECTOR_SLOTS[k] if k else ((0, 0), (1, 1), (2, 2))
    idx = [i + 3 * j for i, j in slots]
    return mat[np.ix_(idx, idx)]


def random_sector_op(rng):
    """A complex operator on one random diagonal k = -2 .. 2."""
    k = int(rng.integers(-2, 3))
    op = np.zeros((3, 3), complex)
    for i in range(3):
        if 0 <= i + k < 3:
            op[i, i + k] = rng.normal() + 1j * rng.normal()
    return op


def random_sector_spec(rng, detuning=None):
    dissipators = []
    for _ in range(rng.integers(2, 4)):
        op = random_sector_op(rng)
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
        assert _sector_and_scale(SP @ SZ) == (1, SQRT2)

    def test_double_lowering(self):
        assert _sector_and_scale(SM @ SM)[0] == -2

    def test_dephasing_is_sector_zero(self):
        assert _sector_and_scale(SZ) == (0, 1.0)

    def test_transverse_operator_rejected(self):
        with pytest.raises(MixedSectorError):
            _sector_and_scale(SX)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            _sector_and_scale(np.zeros((3, 3)))

    def test_non_finite_operator_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _sector_and_scale(np.diag([1.0, math.nan, 0.0]))


class TestDissipator:
    """One dissipator D[O] as the blocks of a cycle of unit rate."""

    def test_gain_on_ground_state(self):
        pops = build_liouvillian(LimitCycleSpec(((SP @ SZ, 1.0),))).diag_block
        assert np.allclose(pops @ [0.0, 0.0, 1.0], [0.0, 2.0, -2.0])

    def test_damping_annihilates_equatorial_state(self):
        pops = build_liouvillian(LimitCycleSpec(((SM @ SZ, 1.0),))).diag_block
        assert np.allclose(pops @ [0.0, 1.0, 0.0], 0.0)

    # D[O] keeps the trace for an operator on any one diagonal
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_trace_free(self, seed):
        rng = np.random.default_rng(seed)
        spec = LimitCycleSpec(((random_sector_op(rng), 1.0),))
        gen = _generator_form(build_liouvillian(spec))
        assert np.abs(_TRACE_ROW @ gen).max() < 1e-14 * np.abs(gen).max()

    # the real form of a one-dissipator cycle applies
    # rate (O rho O^+ - {O^+ O, rho} / 2) to the coordinates of rho
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_applies_the_dissipator(self, seed):
        rng = np.random.default_rng(seed)
        op, rate = random_sector_op(rng), float(rng.uniform(0.2, 2.0))
        rho = random_hermitian(rng, trace_one=True)
        odo = op.conj().T @ op
        expected = rate * (op @ rho @ op.conj().T - 0.5 * (odo @ rho + rho @ odo))
        gen = _generator_form(build_liouvillian(LimitCycleSpec(((op, rate),))))
        err = np.abs(gen @ _coordinates(rho) - _coordinates(expected)).max()
        assert err <= 1e-14 * rate * np.abs(odo).max() * np.abs(rho).max()


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

    # the real form acts on the coordinates of a Hermitian matrix, so it
    # keeps matrices Hermitian by construction; the trace of the image is
    # the trace row times the form
    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_trace_and_hermiticity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        gen = _generator_form(build_liouvillian(random_sector_spec(rng)))
        assert np.abs(_TRACE_ROW @ gen).max() < 1e-14 * max(1.0, np.abs(gen).max())

    # the blocks are the whole generator: the Kronecker sum has no entry
    # between two sectors, and neither has the real form the solves use
    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_sector_preservation(self, seed):
        spec = random_sector_spec(np.random.default_rng(seed))
        kron = kronecker_build(spec)
        slot_sector = np.zeros(9, dtype=int)
        for k, slots in SECTOR_SLOTS.items():
            for i, j in slots:
                slot_sector[i + 3 * j] = k
        cross = slot_sector[:, None] != slot_sector[None, :]
        assert (np.abs(kron[cross]) < 1e-14 * np.abs(kron).max()).all()
        # coordinates: populations, then the real and the imaginary parts of
        # the k = 1, 1, 2 coherences
        coordinate_sector = np.array([0, 0, 0, 1, 1, 2, 1, 1, 2])
        cross = coordinate_sector[:, None] != coordinate_sector[None, :]
        assert (_generator_form(build_liouvillian(spec))[cross] == 0.0).all()

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
        a, b = build_liouvillian(spec), build_liouvillian(conjugated)
        pairs = [(a.diag_block, b.diag_block)]
        pairs += [(a.sector_blocks[k], b.sector_blocks[k]) for k in (1, 2)]
        scale = max(1.0, *(np.abs(one).max() for one, _ in pairs))
        for one, other in pairs:
            assert np.abs(one - other).max() < 1e-13 * scale

    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_negative_sector_is_conjugate(self, seed):
        spec = random_sector_spec(np.random.default_rng(seed))
        liou, kron = build_liouvillian(spec), kronecker_build(spec)
        for k in (1, 2):
            assert np.allclose(_sliced(kron, -k), liou.sector_blocks[k].conj())

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
        kron = kronecker_build(spec)
        assert liou.diag_block.tobytes() == _sliced(kron, 0).real.tobytes()
        for k in (1, 2):
            assert liou.sector_blocks[k].tobytes() == _sliced(kron, k).tobytes()
        # the k < 0 blocks are the conjugates of the k > 0 blocks, while the
        # oracle sums other products there, which can cancel: each entry
        # (at most 10 rounded terms) is bounded by the moduli of its terms
        sizes = _kronecker_term_sizes(spec)
        for k in (1, 2):
            err = np.abs(liou.sector_blocks[k].conj() - _sliced(kron, -k))
            assert (err <= 10 * np.finfo(float).eps * _sliced(sizes, -k)).all()

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

    # past five failing cells a message names the first five and the count;
    # up to five it names every one, as before
    @pytest.mark.parametrize(
        "failing, message",
        [
            (5, r"got \[-1\.0, -2\.0, -3\.0, -4\.0, -5\.0\] at stack index "
                r"\[0, 1, 2, 3, 4\]$"),
            (7, r"got \[-1\.0, -2\.0, -3\.0, -4\.0, -5\.0, \.\.\.\] at stack "
                r"index \[0, 1, 2, 3, 4, \.\.\.\] \(7 cells\)$"),
        ],
    )
    def test_many_failing_cells_named_by_count(self, failing, message):
        rates = np.r_[-1.0 - np.arange(failing), np.ones(3)]
        spec = LimitCycleSpec(((SP @ SZ, 1.0), (SM @ SZ, rates)))
        with pytest.raises(InvalidValueError, match=message):
            build_liouvillian(spec)

    # the sector solves scale by the rates: a subnormal one overflowed them
    # to a LinAlgError, and rates of 1e308 overflowed the generator itself
    @pytest.mark.parametrize("rate", [1e-310, 5e-324, float(np.nextafter(2.0**-1022, 0.0))])
    def test_subnormal_rate_rejected(self, rate):
        spec = LimitCycleSpec(((SP @ SZ, 1.0), (SM @ SZ, rate)))
        with pytest.raises(InvalidValueError, match=rf"smallest normal double, got \[{rate!r}\]$"):
            build_liouvillian(spec)

    def test_subnormal_cells_named_in_stack(self):
        # zero and the smallest normal double are valid rates
        rates = np.array([1.0, 1e-310, 0.0, 2.0**-1022, 5e-324])
        spec = LimitCycleSpec(((SP @ SZ, 1.0), (SM @ SZ, rates)))
        message = r"got \[1e-310, 5e-324\] at stack index \[1, 4\]$"
        with pytest.raises(InvalidValueError, match=message):
            build_liouvillian(spec)
        valid = LimitCycleSpec(((SP @ SZ, 1.0), (SM @ SZ, rates[[0, 2, 3]])))
        assert np.isfinite(build_liouvillian(valid).diag_block).all()

    def test_negative_rate_reported_before_subnormal_one(self):
        spec = LimitCycleSpec(((SP @ SZ, 1.0), (SM @ SZ, np.array([1e-310, -1.0]))))
        with pytest.raises(InvalidValueError, match=r"finite and >= 0, got \[-1.0\] at stack index \[1\]$"):
            build_liouvillian(spec)

    @pytest.mark.parametrize(
        "spec, where",
        [
            (vdp_limit_cycle(1e308, 1e308), ""),
            (vdp_limit_cycle(np.array([1.0, 1e308, 1e300]), 1.0), " at stack index [1]"),
            (equatorial_limit_cycle(1.0, 1.0).with_detuning(np.array([1.0, 1e308])), " at stack index [1]"),
        ],
    )
    def test_overflowing_generator_rejected(self, spec, where):
        # no RuntimeWarning either: the suite turns warnings into errors
        with pytest.raises(InvalidValueError) as raised:
            build_liouvillian(spec)
        assert str(raised.value) == "rates or detuning too large: the generator overflows" + where

    @pytest.mark.parametrize("gamma_g", [1e306, 1e307, 8e307])
    def test_largest_rates_that_fit_still_build(self, gamma_g):
        # from about 1e307 the build is checked for overflow; a generator
        # that fits is the same as at rates scaled down by a power of two
        liou = build_liouvillian(vdp_limit_cycle(gamma_g, 1.0))
        small = build_liouvillian(vdp_limit_cycle(gamma_g * 2.0**-600, 2.0**-600))
        assert np.array_equal(liou.diag_block, np.ldexp(small.diag_block, 600))
        for k in (1, 2):
            block = small.sector_blocks[k]
            scaled = np.ldexp(block.real, 600) + 1j * np.ldexp(block.imag, 600)
            assert np.array_equal(liou.sector_blocks[k], scaled)

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

    def test_populations_at_any_size_of_the_rates(self):
        # the tree products once overflowed to nan populations at two rates
        # of 1e160, and underflowed to a spurious degenerate cycle at 2^-600
        lc = asymmetric_equatorial_limit_cycle(1.0, 1e160, 1e160)
        pops = steady_state(build_liouvillian(lc)).diagonal().real
        assert pops[0] == 0.0 and pops[2] == 1.0
        assert pops[1] == pytest.approx(1e-160, rel=1e-15)
        ref = steady_state(build_liouvillian(vdp_limit_cycle(1.0, 32.0)))
        for k in (-600, 600):
            lc = vdp_limit_cycle(math.ldexp(1.0, k), math.ldexp(32.0, k))
            assert steady_state(build_liouvillian(lc)).tobytes() == ref.tobytes()

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
            # the k < 0 blocks are the conjugates, with the same decay rates
            for k in (1, 2):
                evals = np.linalg.eigvals(liou.sector_blocks[k])
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


class TestVec:
    def test_stack_column_stacks_each_matrix(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(2, 4, 3, 3)) + 1j * rng.normal(size=(2, 4, 3, 3))
        flat = vec(stack)
        assert flat.shape == (2, 4, 9)
        for index in np.ndindex(2, 4):
            assert flat[index].tobytes() == stack[index].flatten(order="F").tobytes()
        assert unvec(flat).tobytes() == stack.tobytes()
