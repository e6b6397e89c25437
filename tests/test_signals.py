import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsync.signals import (
    SignalSpec,
    VdpSignalParams,
    build_hext,
    from_equatorial_angles,
    from_vdp_params,
    semiclassical,
)
from spinsync.spin import SQRT2

from conftest import SX, SY

TONES = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


class TestBuildHext:
    def test_semiclassical_zero_phase_is_sx(self):
        assert np.allclose(build_hext(SignalSpec(0.5, 0.5, 0.0)), SX)

    def test_pure_squeezing(self):
        h = build_hext(SignalSpec(0.0, 0.0, 1.0))
        expected = np.zeros((3, 3), complex)
        expected[0, 2] = expected[2, 0] = 2.0
        assert np.allclose(h, expected)

    def test_matrix_elements(self):
        spec = SignalSpec(0.3 + 0.4j, -0.2j, 0.1 + 0.9j)
        h = build_hext(spec)
        assert h[0, 1] == pytest.approx(SQRT2 * spec.t01)
        assert h[1, 2] == pytest.approx(SQRT2 * spec.tm10)
        assert h[0, 2] == pytest.approx(2.0 * spec.tm11)

    @given(t01=TONES, tm10=TONES, tm11=TONES)
    @settings(max_examples=50, deadline=None)
    def test_hermitian_and_off_diagonal(self, t01, tm10, tm11):
        h = build_hext(SignalSpec(t01, tm10, tm11))
        assert np.abs(h - h.conj().T).max() < 1e-12
        assert np.abs(h.diagonal()).max() == 0.0


class TestSemiclassical:
    def test_zero_phase(self):
        spec = semiclassical(0.0)
        assert spec.t01 == pytest.approx(0.5)
        assert spec.tm10 == pytest.approx(0.5)
        assert spec.tm11 == 0.0

    def test_pi_flips_sign(self):
        spec = semiclassical(math.pi)
        assert spec.t01 == pytest.approx(-0.5)
        assert spec.tm10 == pytest.approx(-0.5)

    def test_quadrature_drive(self):
        assert np.allclose(build_hext(semiclassical(math.pi / 2)), SY, atol=1e-15)

    @given(phase=st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_general_phase(self, phase):
        h = build_hext(semiclassical(phase))
        assert np.allclose(
            h, math.cos(phase) * SX + math.sin(phase) * SY, atol=1e-13
        )


class TestVdpParams:
    def test_single_lower_tone(self):
        spec = from_vdp_params(VdpSignalParams(1.0, math.pi / 2, 0.0, 0.0))
        assert abs(spec.t01) < 1e-16
        assert spec.tm10 == pytest.approx(1 / SQRT2)
        assert spec.tm11 == 0.0

    def test_direct_map_with_squeezing(self):
        delta = 0.9
        spec = from_vdp_params(VdpSignalParams(1.0, 0.0, 0.0, 1.0), delta)
        assert spec.t01 == pytest.approx(1.0)
        assert spec.tm10 == 0.0
        assert spec.tm11 == pytest.approx(np.exp(1j * delta) / SQRT2)

    def test_equal_renormalized_tones(self):
        # equal renormalized amplitudes mean t01 = sqrt(2) tm10
        spec = from_vdp_params(VdpSignalParams(1.0, math.pi / 4, 0.0, 0.0))
        assert spec.t01 == pytest.approx(SQRT2 * spec.tm10)


class TestEquatorialAngles:
    def test_semiclassical_direction(self):
        spec = from_equatorial_angles(math.pi / 4, 0.0)
        ref = semiclassical(0.0)
        assert spec.t01 / ref.t01 == pytest.approx(spec.tm10 / ref.tm10)

    def test_constructive_phase(self):
        spec = from_equatorial_angles(math.pi / 4, math.pi)
        assert spec.t01 == pytest.approx(-1 / SQRT2)
        assert spec.tm10 == pytest.approx(1 / SQRT2)

    def test_single_tone(self):
        spec = from_equatorial_angles(0.0, 1.1)
        assert abs(spec.t01) == pytest.approx(1.0)
        assert spec.tm10 == 0.0


class TestHelpers:
    def test_scaled(self):
        spec = SignalSpec(1.0, 2.0, 3.0).scaled(2j)
        assert spec == SignalSpec(2j, 4j, 6j)
