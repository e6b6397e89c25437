import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsync.errors import InvalidValueError
from spinsync.spin import (
    COS1_WEIGHT,
    COS2_WEIGHT,
    SM,
    SP,
    SQRT2,
    SX,
    SY,
    SZ,
    PhaseDistributionTerms,
    coherent_state,
    husimi_q,
    _max_shifted_phase,
    max_shifted_phase,
    oscillator_phase_terms,
    phase_distribution_terms,
    rotation_z,
    spin_operators,
)
from spinsync.validate import shifted_phase_by_quadrature

from conftest import random_density, random_hermitian

ANGLES = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestOperators:
    def test_raising_matrix_element(self):
        assert SP[0, 1] == pytest.approx(SQRT2)
        assert SP[1, 2] == pytest.approx(SQRT2)

    def test_commutators(self):
        assert np.allclose(SZ @ SP - SP @ SZ, SP)
        assert np.allclose(SZ @ SM - SM @ SZ, -SM)

    def test_casimir(self):
        total = SX @ SX + SY @ SY + SZ @ SZ
        assert np.allclose(total, 2.0 * np.eye(3))

    def test_spin_operators_returns_copies(self):
        ops = spin_operators()
        ops["sz"][0, 0] = 99.0
        assert SZ[0, 0] == 1.0
        assert np.allclose(ops["sx"], (ops["sp"] + ops["sm"]) / 2)


class TestCoherentState:
    def test_north_pole(self):
        state = coherent_state(0.0, 1.3)
        # the highest-weight state, up to the azimuthal global phase
        assert abs(np.vdot([1.0, 0.0, 0.0], state.amplitudes)) == pytest.approx(1.0)
        assert np.allclose(np.abs(state.amplitudes), [1.0, 0.0, 0.0])

    def test_equator(self):
        state = coherent_state(math.pi / 2, 0.0)
        assert np.allclose(state.amplitudes, [0.5, 1.0 / SQRT2, 0.5])

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            coherent_state(3.5, 0.0)

    @given(theta=st.floats(min_value=0.0, max_value=math.pi), phi=ANGLES)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm(self, theta, phi):
        amps = coherent_state(theta, phi).amplitudes
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=ANGLES,
        alpha=ANGLES,
    )
    @settings(max_examples=50, deadline=None)
    def test_rotation_shifts_azimuth(self, theta, phi, alpha):
        rotated = rotation_z(alpha) @ coherent_state(theta, phi).amplitudes
        target = coherent_state(theta, (phi + alpha) % (2 * math.pi)).amplitudes
        overlap = abs(np.vdot(target, rotated))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestHusimi:
    def test_equatorial_state_on_equator(self):
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert husimi_q(rho, math.pi / 2, 0.7) == pytest.approx(
            (3 / (4 * math.pi)) * 0.5
        )

    def test_maximally_mixed_is_uniform(self):
        rho = np.eye(3, dtype=complex) / 3.0
        for theta, phi in [(0.3, 0.1), (1.5, 2.0), (2.8, 5.0)]:
            assert husimi_q(rho, theta, phi) == pytest.approx(1 / (4 * math.pi))

    def test_pole_overlap(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert husimi_q(rho, 0.0, 0.0) == pytest.approx(3 / (4 * math.pi))

    def test_rejects_non_hermitian(self):
        bad = np.zeros((3, 3), complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            husimi_q(bad, 0.1, 0.2)

    def test_positive_and_normalized(self, rng):
        nodes, phis = 64, 64
        x, w = np.polynomial.legendre.leggauss(nodes)
        theta = 0.5 * np.pi * (x + 1.0)
        wt = 0.5 * np.pi * w
        phi = np.linspace(0.0, 2.0 * np.pi, phis, endpoint=False)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        for _ in range(10):
            rho = random_density(rng)
            q = husimi_q(rho, th, ph)
            assert q.min() >= -1e-12
            integral = (wt[:, None] * np.sin(theta)[:, None] * q).sum() * (
                2.0 * np.pi / phis
            )
            assert integral == pytest.approx(1.0, abs=1e-9)


class TestPhaseDistribution:
    def test_diagonal_state_is_uniform(self):
        terms = phase_distribution_terms(np.diag([0.2, 0.5, 0.3]).astype(complex))
        assert terms.amp1 == 0.0
        assert terms.amp2 == 0.0

    def test_equal_coherences_add(self):
        x = 0.17
        rho = np.zeros((3, 3), complex)
        rho[0, 1] = rho[1, 0] = x
        rho[1, 2] = rho[2, 1] = x
        terms = phase_distribution_terms(rho)
        assert terms.amp1 == pytest.approx(COS1_WEIGHT * 2 * x)
        assert terms.phase1 == pytest.approx(0.0)
        assert terms.amp2 == 0.0

    def test_opposite_coherences_cancel(self):
        rho = np.zeros((3, 3), complex)
        rho[0, 1] = rho[1, 0] = 0.4
        rho[1, 2] = rho[2, 1] = -0.4
        assert phase_distribution_terms(rho).amp1 == 0.0

    def test_prefactors_pinned_by_quadrature(self):
        phis = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        # single-quantum coherence probes the cos(phi) weight
        rho = np.diag([1 / 3.0] * 3).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.1
        quad = shifted_phase_by_quadrature(rho, phis)
        assert np.allclose(quad, COS1_WEIGHT * 0.1 * np.cos(phis), atol=1e-12)
        # double-quantum coherence probes the cos(2 phi) weight
        rho2 = np.diag([1 / 3.0] * 3).astype(complex)
        rho2[0, 2] = rho2[2, 0] = 0.1
        quad2 = shifted_phase_by_quadrature(rho2, phis)
        assert np.allclose(quad2, COS2_WEIGHT * 0.1 * np.cos(2 * phis), atol=1e-12)

    def test_stacked_quadrature_matches_single_states(self):
        rng = np.random.default_rng(5)
        states = np.array([random_hermitian(rng, trace_one=True) for _ in range(12)])
        states = states.reshape(3, 4, 3, 3)
        phis = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        stacked = shifted_phase_by_quadrature(states, phis)
        assert stacked.shape == (3, 4, 16)
        for idx in np.ndindex(3, 4):
            single = shifted_phase_by_quadrature(states[idx], phis)
            assert np.array_equal(stacked[idx], single)

    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_hermitian(rng, trace_one=True)
        phis = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        closed = phase_distribution_terms(rho).evaluate(phis)
        quad = shifted_phase_by_quadrature(rho, phis)
        assert np.abs(closed - quad).max() < 1e-10

    @given(seed=SEEDS, alpha=ANGLES)
    @settings(max_examples=25, deadline=None)
    def test_rotation_covariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        rho = random_hermitian(rng, trace_one=True)
        rot = rotation_z(alpha)
        before = phase_distribution_terms(rho)
        after = phase_distribution_terms(rot @ rho @ rot.conj().T)
        assert after.amp1 == pytest.approx(before.amp1, abs=1e-12)
        assert after.amp2 == pytest.approx(before.amp2, abs=1e-12)
        if before.amp1 > 1e-9:
            shift1 = (after.phase1 - before.phase1 + alpha) % (2 * np.pi)
            assert min(shift1, 2 * np.pi - shift1) < 1e-9
        if before.amp2 > 1e-9:
            shift2 = (after.phase2 - before.phase2 + 2 * alpha) % (2 * np.pi)
            assert min(shift2, 2 * np.pi - shift2) < 1e-9
        peak_before, _ = max_shifted_phase(before)
        peak_after, _ = max_shifted_phase(after)
        assert peak_after == pytest.approx(peak_before, abs=1e-11)


class TestMaxShiftedPhase:
    def test_single_harmonic(self):
        peak, phi = max_shifted_phase(PhaseDistributionTerms(1.0, 0.0, 0.0, 0.0))
        assert (peak, phi) == (1.0, 0.0)

    def test_pure_second_harmonic(self):
        terms = PhaseDistributionTerms(0.0, 0.0, 1.0, 0.0)
        peak, phi = max_shifted_phase(terms)
        assert (peak, phi) == (1.0, 0.0)
        # the distribution has an equal second peak half a turn away
        assert terms.evaluate(np.pi) == pytest.approx(peak)

    def test_aligned_peaks_add_exactly(self):
        peak, phi = max_shifted_phase(PhaseDistributionTerms(1.0, 0.0, 0.5, 0.0))
        assert peak == 1.5
        assert phi == 0.0

    def test_zero_terms(self):
        assert max_shifted_phase(PhaseDistributionTerms(0.0, 0.0, 0.0, 0.0)) == (
            0.0,
            0.0,
        )

    @given(
        amp1=st.floats(min_value=1e-8, max_value=2.0),
        amp2=st.floats(min_value=1e-8, max_value=2.0),
        phase1=ANGLES,
        phase2=ANGLES,
    )
    @settings(max_examples=100, deadline=None)
    # misaligned by 3.2e-13: phi = -phase1 is not stationary to 1e-12
    @example(amp1=1.0, amp2=2.0, phase1=1.6e-13, phase2=0.0)
    # anti-aligned: the slope at phi = -phase1 is zero, yet that is a minimum
    # of the second harmonic
    @example(amp1=1.0, amp2=0.5, phase1=0.0, phase2=math.pi)
    def test_against_dense_grid(self, amp1, amp2, phase1, phase2):
        terms = PhaseDistributionTerms(amp1, phase1, amp2, phase2)
        peak, phi_star = max_shifted_phase(terms)
        grid = np.linspace(0.0, 2 * np.pi, 100001)
        dense = terms.evaluate(grid).max()
        assert peak == pytest.approx(dense, abs=1e-7)
        assert peak >= terms.evaluate(phi_star) - 1e-12
        assert abs(terms.derivative(phi_star)) < 1e-12


    @pytest.mark.parametrize(
        "kind", ["generic", "near_aligned", "near_anti", "anti", "merge"]
    )
    @given(
        log_ratio=st.floats(min_value=-10.0, max_value=10.0),
        log_scale=st.floats(min_value=-320.0, max_value=3.0),
        phase1=st.one_of(st.just(0.0), ANGLES),
        t=st.floats(min_value=0.0, max_value=1.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=30, deadline=None)
    # the maxima merge: a Newton step on a rounding-level slope over a
    # vanishing curvature once left phi_star with dS/dphi = 2e-3
    @example(log_ratio=-4.74, log_scale=0.0, phase1=0.0, t=0.141, sign=1.0)
    # amplitudes near and in the subnormal range, where a1 cos(m/2) / 2 of the
    # unscaled secular equation is subnormal: the merge case once put the
    # peak 5e4 times the bound off at 1e-305
    @example(log_ratio=-10.0, log_scale=-305.0, phase1=0.0, t=0.0, sign=1.0)
    @example(log_ratio=0.0, log_scale=-310.0, phase1=0.0, t=0.5, sign=1.0)
    # amp2 = 1e-324 rounds to 0: the oracle's quartic loses its leading term
    @example(log_ratio=-4.0, log_scale=-320.0, phase1=0.0, t=0.0, sign=-1.0)
    def test_against_mpmath_oracle(self, kind, log_ratio, log_scale, phase1, t, sign):
        # kind sets the misalignment m = phase2 - 2 phase1: uniform, 10^[-12, -1]
        # from 0, 10^[-16, -1] from +-pi, pi exactly, or near pi with
        # amp2 = amp1 (1 + 10^[-12, -2]) / 4, where the two maxima of S merge
        amp1 = 10.0**log_scale
        amp2 = amp1 * 10.0**log_ratio
        if kind == "generic":
            m = 2.0 * math.pi * t
        elif kind == "near_aligned":
            m = sign * 10.0 ** (-12.0 + 11.0 * t)
        elif kind == "anti":
            m = math.pi
        else:
            m = sign * (math.pi - 10.0 ** (-16.0 + 15.0 * t))
        if kind == "merge":
            offset = 10.0 ** (-12.0 + 0.5 * (log_ratio + 10.0))
            amp2 = 0.25 * amp1 * (1.0 + sign * offset)
        terms = PhaseDistributionTerms(amp1, phase1, amp2, 2.0 * phase1 + m)
        peak, phi_star = max_shifted_phase(terms)
        exact = _oracle_peak(terms)
        bound = 4.0 * np.finfo(float).eps * (amp1 + amp2)
        assert abs(peak - exact) <= max(bound, np.finfo(float).smallest_subnormal)
        # the slope of S scaled, exactly, to a larger amplitude in [1/2, 1)
        a1, a2 = np.ldexp([amp1, amp2], -np.frexp(max(amp1, amp2))[1])
        scaled = PhaseDistributionTerms(a1, phase1, a2, terms.phase2)
        assert abs(scaled.derivative(phi_star)) <= 1e-12 * (a1 + 2.0 * a2)

    def test_tie_takes_the_maximum_past_the_first_harmonic_crest(self):
        # anti-aligned with amp1 < 4 amp2: S is even about phi = -phase1, with
        # equal maxima at -phase1 +- arccos(amp1 / (4 amp2)); the one returned
        # is the limit of the single maximum as phase2 - 2 phase1 -> pi+
        crest = math.acos(1.0 / (4.0 * 0.5))
        # (1, pi/2, 0.5, 0) is the resonant case: phi_star = 11 pi / 6
        for p1, p2 in ((0.0, math.pi), (0.5 * math.pi, 0.0), (2.0, 4.0 - math.pi)):
            peak, phi = max_shifted_phase(PhaseDistributionTerms(1.0, p1, 0.5, p2))
            assert peak == pytest.approx(0.75, abs=1e-15)
            assert phi == pytest.approx((crest - p1) % (2 * math.pi), abs=1e-14)
        for offset, side in ((1e-9, 1.0), (-1e-9, -1.0)):
            terms = PhaseDistributionTerms(1.0, 0.0, 0.5, math.pi + offset)
            _, phi = max_shifted_phase(terms)
            assert phi == pytest.approx(side * crest % (2 * math.pi), abs=1e-8)
        # equal subnormal amplitudes: the search scales them to 1/2 first
        _, phi = max_shifted_phase(PhaseDistributionTerms(1e-310, 0.0, 1e-310, math.pi))
        assert phi == pytest.approx(math.acos(0.25), abs=1e-12)
        # the hard case of the secular equation: amp1 cos(m / 2) / 2 underflows
        # at amp1 / amp2 = 1e-310 even after that scaling; the maxima sit at
        # -phase1 +- arccos(amp1 / (4 amp2)), which rounds to pi / 2
        _, phi = max_shifted_phase(PhaseDistributionTerms(1e-310, 0.0, 1.0, math.pi))
        assert phi == 0.5 * math.pi

    @pytest.mark.parametrize("field", ["amp1", "phase1", "amp2", "phase2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_term_rejected(self, field, bad):
        values = {"amp1": 1.0, "phase1": 0.1, "amp2": 0.5, "phase2": 1.0, field: bad}
        with pytest.raises(InvalidValueError, match=f"{field} must be finite"):
            max_shifted_phase(PhaseDistributionTerms(**values))

    def test_stack_equals_scalar_calls_bitwise(self, rng):
        terms = [
            (0.0, 1.0, 0.0, 2.0),  # no harmonic
            (0.7, 2.5, 0.0, 1.0),  # one harmonic
            (0.0, 0.3, 0.4, 2.5),  # pure second harmonic
            (1.0, 0.4, 0.5, 0.8),  # aligned
            (1.0, 1.6e-13, 2.0, 0.0),  # aligned to 3.2e-13 only
            (1.0, 0.0, 0.5, math.pi),  # anti-aligned
            (1.0, 0.5 * math.pi, 0.5, 0.0),  # anti-aligned, as on resonance
            (1.0, 0.0, 1e-10, 1.0),  # amp2 / amp1 = 1e-10
            (1e-10, 0.3, 1.0, 1.0),  # amp2 / amp1 = 1e10
            (1.0, 0.0, 0.5, 1e-12),  # misaligned by 1e-12
            (1.0, 0.0, 0.5, math.pi - 4.4e-16),  # one ulp off anti-aligned
            (1.0, 0.0, 0.25 * (1.0 + 1e-12), math.pi),  # the maxima merge
            (1.0, 0.0, 0.25 * (1.0 - 1e-12), math.pi - 1e-15),
            (1e-310, 0.0, 1e-310, math.pi),  # subnormal amplitudes
            (1e-310, 0.0, 1.0, math.pi),  # the hard case
        ]
        for _ in range(20):  # misaligned
            a1, a2 = rng.uniform(0.01, 2.0, 2)
            p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            terms.append((a1, p1, a2, p2))
        finite = len(terms)
        terms += [  # a non-finite term gives nan in both
            (math.nan, 0.1, 0.5, 1.0),
            (1.0, math.inf, 0.5, 1.0),
            (math.inf, 0.1, 0.0, 1.0),
            (0.0, 0.1, -math.inf, math.nan),
        ]
        peaks, phis = _max_shifted_phase(*np.array(terms).T)
        for i, (t, peak, phi) in enumerate(zip(terms, peaks, phis)):
            one = np.array(_max_shifted_phase(*t))
            assert np.array([peak, phi]).tobytes() == one.tobytes()
            if i < finite:
                assert (peak, phi) == max_shifted_phase(PhaseDistributionTerms(*t))
            else:
                assert np.isnan([peak, phi]).all()


def _oracle_peak(terms: PhaseDistributionTerms) -> float:
    """The maximum of S at 40 digits, with the float terms taken exactly: the
    largest S over the angles of the roots of the quartic
    -2 a2 e^{i p2} z^4 - a1 e^{i p1} z^3 + a1 e^{-i p1} z + 2 a2 e^{-i p2}
    (the stationary points, z = e^{i phi}), each polished by Newton on dS/dphi;
    a1 itself without a second harmonic, where the quartic has no leading term."""
    import mpmath

    if terms.amp2 == 0.0:
        return terms.amp1

    with mpmath.workdps(40):
        fields = (terms.amp1, terms.phase1, terms.amp2, terms.phase2)
        a1, p1, a2, p2 = (mpmath.mpf(x) for x in fields)
        w1, w2 = a1 * mpmath.expj(p1), 2 * a2 * mpmath.expj(p2)
        quartic = [-w2, -w1, 0, mpmath.conj(w1), mpmath.conj(w2)]
        best = -mpmath.inf
        for z in mpmath.polyroots(quartic, maxsteps=200, extraprec=160):
            x = mpmath.arg(z)
            for _ in range(8):
                slope = -a1 * mpmath.sin(x + p1) - 2 * a2 * mpmath.sin(2 * x + p2)
                curvature = -a1 * mpmath.cos(x + p1) - 4 * a2 * mpmath.cos(2 * x + p2)
                if curvature >= 0:
                    break
                x -= slope / curvature
            best = max(best, a1 * mpmath.cos(x + p1) + a2 * mpmath.cos(2 * x + p2))
        return float(best)


class TestOscillatorTerms:
    def test_diagonal_is_uniform(self):
        terms = oscillator_phase_terms(np.diag([0.1, 0.6, 0.3]).astype(complex))
        assert terms.amp1 == 0.0
        assert terms.amp2 == 0.0

    def test_weight_ratio_between_phase_spaces(self, rng):
        rho = random_hermitian(rng, trace_one=True)
        spin_terms = phase_distribution_terms(rho)
        osc_terms = oscillator_phase_terms(rho)
        assert spin_terms.amp2 == pytest.approx(osc_terms.amp2)
        if osc_terms.amp1 > 0:
            ratio = spin_terms.amp1 / osc_terms.amp1
            assert ratio == pytest.approx(3 * np.pi / (4 * SQRT2))

    def test_double_quantum_readoff(self):
        rho = np.diag([0.4, 0.3, 0.3]).astype(complex)
        rho[0, 2] = rho[2, 0] = 0.25
        assert oscillator_phase_terms(rho).amp2 == pytest.approx(0.25 / (2 * np.pi))
