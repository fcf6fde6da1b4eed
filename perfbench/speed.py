"""A fixed piece of reference work that gauges the machine's current speed.

On a shared virtual machine the same computation can take 1.6 times as long
in one minute as in the next, and 10-15% longer in one process than in the
next, whatever the benchmark does; no run of a few tens of seconds averages
that out.  So the benchmark times this reference work between requests and
scales each latency by ``REFERENCE_S / reference time``, taking the median
of the scales measured at the request boundaries around it: a latency is
reported in seconds at the reference speed, the speed at which this work
takes ``REFERENCE_S``.  The reference work calls nothing in qecentropy, so
a change to the package moves the scaled latencies by the same factor as the
measured ones.  Runs print the unscaled figures too.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

# Median of reference_time() between requests over two and a half minutes of
# numrange, grouping and kraus passes on a 2-vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4, BLAS on one thread.
REFERENCE_S = 3.6e-3

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(10)]
_POINTS = [complex(z) for z in np.exp(2j * np.pi * _rng.uniform(size=50))]
_BLOCK = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_PHASES = np.exp(2j * np.pi * _rng.uniform(size=16))


def reference_work() -> float:
    """The mix the workloads run: small numpy calls (hull clipping, eigensolves),
    pure-Python complex arithmetic, a dense product (the Kraus routes), and,
    for most of the time, arithmetic on numpy scalars with 3x3 solves (the
    grouping and clipping searches).  Its data fits in the core's own
    caches, so it gauges the core's speed, not the memory traffic of the
    request before it."""
    acc = 0.0
    for m in _SMALL:
        acc += float(np.abs(np.linalg.eigvals(m)).sum())
    for a in _POINTS:
        for b in _POINTS:
            acc += abs(a - b)
    big = np.kron(_BLOCK, _BLOCK)
    acc += float(np.abs(big @ big.conj().T).sum())
    zs = _PHASES
    for i, j in itertools.combinations(range(len(zs)), 2):
        d = zs[j] - zs[i]
        acc += float(np.clip((np.conj(d) * (0.1 - zs[i])).real / abs(d) ** 2, 0.0, 1.0))
    for i, j, k in itertools.combinations(range(8), 3):
        a = np.array([[zs[i].real, zs[j].real, zs[k].real], [zs[i].imag, zs[j].imag, zs[k].imag], [1.0, 1.0, 1.0]])
        acc += float(np.linalg.solve(a, np.array([0.1, 0.0, 1.0]))[0])
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def speed_scale(samples: int = 1) -> float:
    """REFERENCE_S over the median reference time of ``samples`` runs: the factor
    that turns seconds measured now into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(reference_time() for _ in range(samples))
