import numpy as np
import pytest


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
