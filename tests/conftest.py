import math

import numpy as np
import pytest

from spinsync.signals import SignalSpec
from spinsync.spin import SM, SP, SZ

SX = 0.5 * (SP + SM)
SY = -0.5j * (SP - SM)


def random_hermitian(rng, trace_one=False):
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = mat + mat.conj().T
    if trace_one:
        herm = herm / herm.trace().real
    return herm


def random_density(rng):
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = mat @ mat.conj().T
    return rho / rho.trace().real


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rotation_z(alpha):
    """Oracle: the rotation exp(-i alpha S_z) about the quantization axis."""
    return np.diag(np.exp(-1j * alpha * np.array([1.0, 0.0, -1.0])))


def rotated(signal, alpha):
    """Oracle: ``signal`` with its phase shifted, the single-quantum tones by
    e^{i alpha} and the squeezing tone by e^{2 i alpha}."""
    w = np.exp(1j * alpha)
    return SignalSpec(signal.t01 * w, signal.tm10 * w, signal.tm11 * w * w)


def shifted_phase_slope(terms, phi):
    """Oracle: dS/dphi of the two-harmonic distribution ``terms``."""
    return -terms.amp1 * np.sin(phi + terms.phase1) - 2.0 * terms.amp2 * np.sin(
        2.0 * phi + terms.phase2
    )


def vdp_squeeze_sync_closed(tau_ratio, gamma_g, gamma_d, delta=0.0, eta=0.1):
    """Oracle: the measure of the van der Pol cycle driven by equal
    single-quantum tones plus a squeezing tone of relative amplitude
    tau_ratio, in its deep-quantum asymptotic form (gamma_d >> gamma_g,
    delta), evaluated as written at the given rates."""
    u = math.sqrt(9.0 * gamma_g**2 + 4.0 * delta**2)
    num = 3.0 * math.pi * gamma_d + 8.0 * tau_ratio * u
    den = math.sqrt(gamma_d**2 + 2.0 * tau_ratio**2 * u**2)
    return eta * (math.sqrt(5.0) / (48.0 * math.pi)) * num / den


def kronecker_dissipator(op):
    """Oracle: D[O] as a sum of np.kron superoperators under column stacking."""
    eye, odo = np.eye(3, dtype=complex), op.conj().T @ op
    return np.kron(op.conj(), op) - 0.5 * np.kron(eye, odo) - 0.5 * np.kron(odo.T, eye)


def kronecker_commutator(h):
    """Oracle: -i[H, .] as a np.kron superoperator under column stacking."""
    eye = np.eye(3, dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def kronecker_build(spec):
    """Oracle: the 9x9 generator of one cycle as a sum of Kronecker-product
    superoperators."""
    full = np.zeros((9, 9), dtype=complex)
    for op, rate in spec.dissipators:
        if float(rate) > 0.0:
            full += float(rate) * kronecker_dissipator(np.asarray(op, dtype=complex))
    if spec.detuning != 0.0:
        full += spec.detuning * kronecker_commutator(SZ.astype(complex))
    return full


# the vec positions (entry (i, j) at i + 3 j) of the populations, of
# rho_{1,0}, rho_{0,-1}, rho_{1,-1} and of their mirrors
_DIAG, _UPPER, _LOWER = [0, 4, 8], [3, 7, 6], [1, 5, 2]


def real_form(op):
    """Oracle: a 9x9 superoperator that keeps matrices Hermitian as the real
    9x9 matrix on their coordinates (the populations, then the real and then
    the imaginary parts of rho_{1,0}, rho_{0,-1} and rho_{1,-1}).  Its columns
    are ``op`` applied to E_ii, E_ij + E_ji and i (E_ij - E_ji), read at the
    populations and at the upper coherences."""
    upper, lower = op[..., _UPPER], op[..., _LOWER]
    cols = [op[..., _DIAG], upper + lower, 1j * (upper - lower)]
    cols = np.concatenate(cols, axis=-1)[..., _DIAG + _UPPER, :]
    return np.concatenate([cols.real, cols[..., 3:, :].imag], axis=-2)


def exact_driven_state(full, l1, eps, dps=50):
    """The stationary state of the 9x9 generator full + eps l1 from a
    ``dps``-digit mpmath solve of L vec(rho) = 0 with its first (population)
    equation replaced by tr rho = 1, every float entry taken exactly."""
    import mpmath

    with mpmath.workdps(dps):
        eps = mpmath.mpf(float(eps))
        gen = mpmath.matrix(
            [[mpmath.mpc(a) + eps * mpmath.mpc(b) for a, b in zip(*rows)]
             for rows in zip(np.asarray(full).tolist(), np.asarray(l1).tolist())]
        )
        rhs = mpmath.matrix(9, 1)
        for j in range(9):
            gen[0, j] = 1 if j in (0, 4, 8) else 0
        rhs[0] = 1
        x = mpmath.lu_solve(gen, rhs)
        return np.array([complex(v) for v in x]).reshape(3, 3).T
