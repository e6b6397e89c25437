"""Spin-1 operators and the spherical phase-space toolkit.

The matrix basis is fixed once and for all: the S_z eigenstates are ordered
(m=+1, m=0, m=-1), mapped to row/column indices (0, 1, 2).  Every matrix in
this package uses that ordering.  It doubles as a truncated harmonic-oscillator
ladder via n=2 <-> m=+1, n=1 <-> m=0, n=0 <-> m=-1, which is what
``OSC_COS1_WEIGHT`` and ``catalog.truncated_oscillator_ops`` rely on.

Phase-space conventions
-----------------------
Spin-coherent states are rotations of the highest-weight state,

    |theta, phi> = (e^{-i phi} cos^2(theta/2), sin(theta)/sqrt(2),
                    e^{+i phi} sin^2(theta/2)),

so that exp(-i alpha S_z) |theta, phi> = |theta, phi + alpha> up to a global
phase.  With this choice the theta-marginal of the Husimi function minus the
uniform background is a two-harmonic function of the azimuth,

    S(phi) = amp1 * cos(phi + phase1) + amp2 * cos(2 phi + phase2),

with amp1 = (3/8 sqrt(2)) |rho_{1,0} + rho_{0,-1}| and
amp2 = (1/2 pi) |rho_{1,-1}|.  The prefactors are pinned by quadrature tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError

SQRT2 = float(np.sqrt(2.0))

SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
SP = np.array([[0.0, SQRT2, 0.0], [0.0, 0.0, SQRT2], [0.0, 0.0, 0.0]], dtype=complex)
SM = SP.conj().T

#: weight of the cos(phi) harmonic in the spin phase distribution
COS1_WEIGHT = 3.0 / (8.0 * SQRT2)
#: weight of the cos(2 phi) harmonic (identical in both phase spaces)
COS2_WEIGHT = 1.0 / (2.0 * np.pi)
#: weight of the cos(phi) harmonic for the truncated-oscillator phase states
OSC_COS1_WEIGHT = 1.0 / (2.0 * np.pi)


def _require_hermitian(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise InvalidValueError(f"expected a 3x3 matrix, got shape {rho.shape}")
    scale = max(1.0, float(np.abs(rho).max()))
    if np.abs(rho - rho.conj().T).max() > 1e-12 * scale:
        raise InvalidValueError("matrix is not Hermitian")
    return rho


def _coherent_amplitudes(theta, phi) -> np.ndarray:
    """Amplitudes of |theta, phi>; broadcasts over array-valued angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    half = 0.5 * theta
    return np.stack(
        [
            np.exp(-1j * phi) * np.cos(half) ** 2,
            np.sin(theta) / SQRT2 + 0.0j,
            np.exp(1j * phi) * np.sin(half) ** 2,
        ],
        axis=-1,
    )


def husimi_q(rho: np.ndarray, theta, phi):
    """Husimi function Q(theta, phi) = <theta,phi|rho|theta,phi> * 3/(4 pi).

    ``theta`` and ``phi`` may be arrays (broadcast against each other); the
    result then has the broadcast shape.  Normalized so that the integral of
    Q sin(theta) dtheta dphi over the sphere is Tr[rho].
    """
    rho = _require_hermitian(rho)
    amps = _coherent_amplitudes(theta, phi)
    q = np.einsum("...i,ij,...j->...", amps.conj(), rho, amps).real
    q = q * (3.0 / (4.0 * np.pi))
    return float(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class PhaseDistributionTerms:
    """Two-harmonic content of a shifted phase distribution.

    Represents S(phi) = amp1 cos(phi + phase1) + amp2 cos(2 phi + phase2).
    """

    amp1: float
    phase1: float
    amp2: float
    phase2: float

    def evaluate(self, phi):
        phi = np.asarray(phi, dtype=float)
        val = self.amp1 * np.cos(phi + self.phase1) + self.amp2 * np.cos(
            2.0 * phi + self.phase2
        )
        return float(val) if val.ndim == 0 else val


def _phase_terms(single, double):
    """:class:`PhaseDistributionTerms` of the sum of the single-quantum
    coherences and of the double-quantum coherence, which broadcast against
    each other; the fields are arrays of the broadcast shape.  A vanishing
    coherence has phase 0.  ``np.abs`` rounds one cell as a stack's cells."""
    return PhaseDistributionTerms(
        amp1=COS1_WEIGHT * np.abs(single),
        phase1=np.where(single != 0, np.angle(single), 0.0),
        amp2=COS2_WEIGHT * np.abs(double),
        phase2=np.where(double != 0, np.angle(double), 0.0),
    )


def _scalar_terms(terms: PhaseDistributionTerms) -> PhaseDistributionTerms:
    """The float terms of one-element array terms."""
    fields = (terms.amp1, terms.phase1, terms.amp2, terms.phase2)
    return PhaseDistributionTerms(*(x.item() for x in fields))


def phase_distribution_terms(rho: np.ndarray) -> PhaseDistributionTerms:
    """Harmonics of the shifted phase distribution in the spin phase space.

    Only the single-quantum coherences (through their sum) and the
    double-quantum coherence enter; populations drop out against the uniform
    background.
    """
    rho = _require_hermitian(rho)
    return _scalar_terms(_phase_terms(rho[0, 1] + rho[1, 2], rho[0, 2]))


#: iteration cap of the secular solve; rows take at most about 35 iterations,
#: the most where the two maxima of S merge (a1 = 4 a2, anti-aligned)
_SECULAR_CAP = 64


def _max_shifted_phase(a1, p1, a2, p2):
    """:func:`max_shifted_phase` over broadcast arrays of the four terms.

    Returns arrays ``(peak, phi_star)``, nan in both for a row with a
    non-finite term.  Each row's amplitudes are first divided by the power
    of two of the larger one, which is exact, and its peak is multiplied
    back at the end.  The exact branches (no harmonic, one harmonic, a pure
    second harmonic, aligned harmonics) are chosen by mask.  The misaligned
    rest solves the secular equation of the 2-D trust-region problem
    (More and Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983)) with
    ufuncs, all rows at once.  With theta = phi + p1 and m = p2 - 2 p1
    wrapped into [-pi, pi), S = v^T A v + g^T v on the unit circle
    v = (cos theta, sin theta), where g = (a1, 0) and A has the eigenvalues
    +a2 and -a2 along the angles -m/2 and -m/2 + pi/2.  The global maximum
    is v = (lambda - A)^-1 g / 2 at lambda = a2 + u, with components
    v+ = G+ / u and v- = G- / (u + 2 a2) in that eigenbasis, where
    G+ = a1 cos(m/2) / 2 >= 0 and G- = a1 sin(m/2) / 2, and u >= 0 the root
    of v+^2 + v-^2 = 1.  Newton on 1 / |v| - 1 from
    u0 = max(G+, |G-| - 2 a2), left of the root, climbs to it monotonically;
    each row stops once its step no longer increases u, so a row never
    depends on the others.  The hard case G+ = 0, |G-| <= 2 a2 is u = 0 with
    v+ = sqrt(1 - v-^2).  Then phi* = atan2(v-, v+) - m/2 - p1.
    """
    a1, p1, a2, p2 = np.array(np.broadcast_arrays(a1, p1, a2, p2), dtype=float)
    finite = np.isfinite(a1) & np.isfinite(p1) & np.isfinite(a2) & np.isfinite(p2)
    if not finite.all():  # zeros take the no-harmonic branch; nan at the end
        a1, p1, a2, p2 = np.where(finite, (a1, p1, a2, p2), 0.0)
    # S is homogeneous in (a1, a2): solve with the larger in [1/2, 1), exact
    # power-of-two scalings that keep G+ out of the subnormal range
    exponent = np.frexp(np.maximum(a1, a2))[1]
    a1, a2 = np.ldexp(a1, -exponent), np.ldexp(a2, -exponent)
    tau = 2.0 * np.pi
    misalign = (p2 - 2.0 * p1 + np.pi) % tau - np.pi
    second = a1 == 0.0
    # aligned: the slope at phi = -p1 is at rounding level (exactly 0 when
    # a2 = 0); bounded through the angle, as its sine also vanishes when the
    # harmonics are anti-aligned
    slope = 2.0 * a2 * np.abs(misalign)
    rounding = 1e-14 * (a1 + 2.0 * a2)
    aligned = ~second & (slope <= rounding)
    peak = np.where(second, a2, a1 + a2)
    phi = np.where(
        second, np.where(a2 == 0.0, 0.0, (-0.5 * p2) % np.pi), (-p1) % tau
    )
    general = ~(second | aligned)
    if general.any():
        a1, p1, a2, p2 = a1[general], p1[general], a2[general], p2[general]
        half = 0.5 * misalign[general]
        g_plus, g_minus = 0.5 * a1 * np.cos(half), 0.5 * a1 * np.sin(half)
        gap = 2.0 * a2
        hard = (g_plus == 0.0) & (np.abs(g_minus) <= gap)
        u = np.maximum(g_plus, np.abs(g_minus) - gap)
        rows = np.flatnonzero(~hard)
        for _ in range(_SECULAR_CAP):
            if not rows.size:
                break
            ur, wr = u[rows], u[rows] + gap[rows]
            vp, vm = g_plus[rows] / ur, g_minus[rows] / wr
            vp2, vm2 = vp * vp, vm * vm
            norm2 = vp2 + vm2
            # the Newton step -f / f' on f(u) = 1 / |v| - 1, with numerator
            # and denominator multiplied by u so that neither overflows
            step = ur * norm2 * (np.sqrt(norm2) - 1.0) / (vp2 + vm2 * ur / wr)
            climbs = step > 0.0
            rows = rows[climbs]
            u[rows] = ur[climbs] + step[climbs]
        vm = g_minus / (u + gap)
        vp = g_plus / np.where(hard, 1.0, u)  # hard rows: u = g_plus = 0
        vp[hard] = np.sqrt(1.0 - vm[hard] * vm[hard])
        best = np.arctan2(vm, vp) - half - p1
        peak[general] = PhaseDistributionTerms(a1, p1, a2, p2).evaluate(best)
        phi[general] = best % tau
    np.ldexp(peak, exponent, out=peak)
    if not finite.all():
        peak[~finite] = phi[~finite] = np.nan
    return peak, phi


def max_shifted_phase(terms: PhaseDistributionTerms) -> tuple[float, float]:
    """Global maximum of the two-harmonic distribution and its location.

    Returns ``(peak, phi_star)`` with phi_star in [0, 2 pi).  When the two
    harmonics peak at a common azimuth (the slope of S there is at rounding
    level) the maximum is amp1 + amp2 exactly; otherwise it is the root of a
    secular equation, solved by Newton to rounding (see
    :func:`_max_shifted_phase`).  Scaling both amplitudes by a power of two
    leaves phi_star unchanged and scales the peak by that power, bit for bit
    while the amplitudes and the peak stay in the normal range.  This is
    the scalar call of the array search the measure runs on stacked
    coherences.

    Ties, where S has two equal global maxima, resolve by a fixed rule.  A
    pure second harmonic (amp1 = 0) peaks at -phase2/2 and half a turn away:
    phi_star is the one in [0, pi).  Anti-aligned harmonics (phase2 -
    2 phase1 an odd multiple of pi to rounding) with amp1 < 4 amp2 peak at
    -phase1 +- arccos(amp1 / (4 amp2)): phi_star is
    -phase1 + arccos(amp1 / (4 amp2)), the limit of the single maximum as
    phase2 - 2 phase1 approaches pi from above.

    Raises :class:`InvalidValueError` naming the first non-finite term.
    """
    for name in ("amp1", "phase1", "amp2", "phase2"):
        value = getattr(terms, name)
        if not math.isfinite(value):
            raise InvalidValueError(f"{name} must be finite, got {value}")
    peak, phi = _max_shifted_phase(terms.amp1, terms.phase1, terms.amp2, terms.phase2)
    return float(peak), float(phi)
