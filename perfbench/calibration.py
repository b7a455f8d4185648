"""Host speed probes for the end-to-end timings.

The hosts this benchmark runs on share their cores with other tenants and
switch between a fast and a slow state, 1.5-1.9x apart, for seconds to
minutes at a time.  Measured times are therefore scaled to a reference
state: run.py times a kernel every 50 ms on the worker's CPU, and a time t
measured while the kernel took c is reported as t * REF_S[kernel] / c.

Two kinds of code slow down by different factors, so each workload names
the kernel closest to its own work (workloads.py): `python`, scalar
arithmetic on small tuples like sgphase's closed-form path, and `numpy`,
three split-step updates of a 4096-point complex array like the grid
oracle.  Each tracks its workloads' slowdown to within a few percent.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median kernel times on the reference host (Intel Xeon, 2 vCPUs) in its
# fast state; scaled times read as plain seconds on that host and state
REF_S = {"python": 0.80e-3, "numpy": 0.80e-3}

_Z = np.linspace(-32.0, 32.0, 4096, endpoint=False)
_K = 2.0 * np.pi * np.fft.fftfreq(4096, d=_Z[1] - _Z[0])
_KICK = np.exp(-1e-4j * _K * _K)
_PSI0 = np.exp(-0.25 * _Z * _Z).astype(complex)


def python_kernel() -> float:
    acc = 0.0
    for i in range(3000):
        x = (i * 1e-3, math.sin(i * 1e-3), math.cos(i))
        acc += x[0] * x[1] + x[2]
    return acc


def numpy_kernel() -> float:
    psi = _PSI0
    for _ in range(3):
        psi = np.fft.ifft(_KICK * np.fft.fft(psi))
        w = np.abs(psi) ** 2
        mean = float(np.sum(_Z * w) / np.sum(w))
        psi = np.exp(-1e-3j * (_Z - mean) ** 2) * psi
    return mean


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def sample(kernel: str) -> float:
    """Seconds taken by one call of the named kernel."""
    fn = KERNELS[kernel]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
