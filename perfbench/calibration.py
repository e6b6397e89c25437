"""Core-speed calibration for timings on a shared host.

On a shared virtual machine the speed of a core changes by up to 1.8x within
seconds, as other tenants come and go, and it scales every timing by the
same factor.  The benchmark therefore times this fixed kernel between
consecutive commands in the same process and rescales each command's time by
``REFERENCE_S / kernel time`` (the mean of the kernel runs just before and
just after the command).  The result reads as seconds on a core that runs the
kernel in ``REFERENCE_S``.  Raw wall-clock figures are reported alongside.

The kernel mixes the kinds of work spinsync does: 9x9 complex generator
assembly with ``kron``, a small LAPACK decomposition, scalar Python and
numpy-scalar arithmetic and float formatting.  It calls no spinsync code, and it holds
its own reference to ``svd``, so neither a change to the program nor the
traced run's wrappers can move it or show up in its counts.  Changing the
kernel or ``REFERENCE_S`` changes every normalized time and needs a new
baseline.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.linalg import svd as _svd

#: kernel time that defines one normalized second; close to the kernel's time
#: on an unloaded core of the 2-vCPU x86_64 host the benchmark was sized on
REFERENCE_S = 0.004
_ITERATIONS = 24

_OP = np.array([[0.5, 1.0 + 0.5j, 0.0], [0.25j, -1.0, 0.75], [0.0, 0.5, 0.25]])
_EYE = np.eye(3, dtype=complex)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        odo = _OP.conj().T @ _OP
        gen = (np.kron(_OP.conj(), _OP) - 0.5 * np.kron(_EYE, odo)
               - 0.5 * np.kron(odo.T, _EYE)) + (1e-3 * i) * np.eye(9)
        acc += float(_svd(gen, compute_uv=False)[-1])
        for j in range(40):
            acc += (j + acc * 1e-9) ** 0.5 * 1e-6
        for j in range(12):
            acc += abs(gen[j % 9, i % 9] * _OP[1, 0] + gen[0, j % 9]) * 1e-9
        acc += len(",".join(repr(acc * k) for k in range(6))) * 1e-9
    if not acc > 0.0:
        raise ArithmeticError("calibration kernel produced an invalid value")
    return time.perf_counter() - start


def kernel_median(samples: int = 3) -> float:
    return statistics.median(kernel_seconds() for _ in range(samples))
