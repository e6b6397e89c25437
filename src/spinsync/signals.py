"""Three-tone signal Hamiltonians and their named parametrizations.

A signal couples the three transitions of the spin through complex tone
amplitudes: ``t01`` on |0> <-> |+1>, ``tm10`` on |-1> <-> |0>, and the
squeezing tone ``tm11`` directly on |-1> <-> |+1>.  The operator built from
them is strictly off-diagonal,

    H_ext = t01 Sz S+ - tm10 S+ Sz + tm11 S+^2 + h.c.,

with matrix elements <+1|H|0> = sqrt(2) t01, <0|H|-1> = sqrt(2) tm10 and
<+1|H|-1> = 2 tm11.  Tones carry the dimensionless shape only; the overall
strength is always applied separately by the perturbation engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError
from .spin import SQRT2


@dataclass(frozen=True)
class SignalSpec:
    """Dimensionless tone amplitudes of a three-tone signal."""

    t01: complex
    tm10: complex
    tm11: complex = 0j

    def scaled(self, factor: complex) -> "SignalSpec":
        """Rescale every tone by a common complex factor."""
        return SignalSpec(
            self.t01 * factor, self.tm10 * factor, self.tm11 * factor
        )

    def rotated(self, alpha: float) -> "SignalSpec":
        """Shift the signal phase: single-quantum tones by e^{i alpha},
        the squeezing tone by e^{2 i alpha}."""
        w = np.exp(1j * alpha)
        return SignalSpec(self.t01 * w, self.tm10 * w, self.tm11 * w * w)


@dataclass(frozen=True)
class VdpSignalParams:
    """Angular parametrization of a general signal for the van der Pol cycle.

    ``c`` sets the scale of the two single-quantum tones, ``zeta`` their
    balance, ``chi`` their relative phase, and ``tau_ratio`` the squeezing
    amplitude relative to ``c``.
    """

    c: float
    zeta: float
    chi: float
    tau_ratio: float = 0.0


def require_finite(spec: SignalSpec) -> None:
    """Raise :class:`InvalidValueError` naming every tone of ``spec`` that is
    not finite; a tone may be an array, which fails if any entry does."""
    bad = [
        name
        for name in ("t01", "tm10", "tm11")
        if not np.isfinite(getattr(spec, name)).all()
    ]
    if bad:
        raise InvalidValueError(f"signal tones must be finite: {', '.join(bad)}")


def build_hext(spec: SignalSpec) -> np.ndarray:
    """Signal Hamiltonian for the given tones (strictly off-diagonal)."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = SQRT2 * spec.t01
    h[1, 2] = SQRT2 * spec.tm10
    h[0, 2] = 2.0 * spec.tm11
    return h + h.conj().T


def semiclassical(phase: float = 0.0) -> SignalSpec:
    """Semi-classical signal cos(phase) S_x + sin(phase) S_y.

    Both single-quantum transitions are driven equally (tone e^{-i phase}/2)
    and there is no squeezing tone.
    """
    tone = 0.5 * np.exp(-1j * phase)
    return SignalSpec(tone, tone, 0j)


def from_vdp_params(
    params: VdpSignalParams, squeeze_phase: float = 0.0
) -> SignalSpec:
    """Tones from the van der Pol parametrization.

    Applies the sqrt(2) renormalization that makes the tones act with the
    matrix elements of the truncated oscillator ladder; ``squeeze_phase``
    sets the phase of the squeezing tone.
    """
    tau01 = params.c * np.cos(params.zeta) * np.exp(1j * params.chi)
    tau10 = params.c * np.sin(params.zeta)
    tau11 = params.tau_ratio * params.c * np.exp(1j * squeeze_phase)
    return SignalSpec(tau01, tau10 / SQRT2, tau11 / SQRT2)


def from_equatorial_angles(zeta: float = 0.25 * np.pi, chi: float = 0.0) -> SignalSpec:
    """Two single-quantum tones (cos(zeta) e^{i chi}, sin(zeta)), no squeezing;
    balanced by default."""
    return SignalSpec(np.cos(zeta) * np.exp(1j * chi), np.sin(zeta) + 0j, 0j)
