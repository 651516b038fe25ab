"""The host's speed, measured beside every task, and task times scaled to it.

The reference host is a shared 2-vCPU guest whose vCPUs run the same
instructions 25-45% faster or slower from one half-minute to the next (a
fixed pure-Python loop took 10.5 ms in one spell and 14.5 ms in the next,
with thread CPU time equal to wall time).  A slow spell moves every task of
a run alike, so medians over a run do not absorb it.

A probe is a fixed piece of work that uses none of weylpath: a scalar
complex loop, like the RK4 steps, and a small symmetric ``eigh``, like the
Fock oracle.  The worker runs one probe before every task and one after the
last, and scales each task's wall time by ``REF_PROBE_S`` over the median of
the four probes nearest it (two before, two after).  A scaled time is the
task's time on the reference host at the probe's reference speed.  A change
to weylpath moves a task's time and not the probes, so it moves the scaled
time by the same share; a slow spell moves both, and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's median on the reference host in its usual (slower) spell.
REF_PROBE_S = 2.0e-3
LOOP_STEPS = 3000
EIGH_N = 60

_A = np.random.default_rng(0).normal(size=(EIGH_N, EIGH_N))
_M = _A + _A.T


def probe() -> float:
    """Seconds for the fixed probe work."""
    t = time.perf_counter()
    z, h = 0.3 + 0.1j, 1e-3
    for _ in range(LOOP_STEPS):
        z = z + h * (1j * z - 0.1 * z * z * z.conjugate())
    np.linalg.eigh(_M)
    return time.perf_counter() - t


def factors(probes: list) -> list:
    """Each task's scale to the reference speed.

    ``probes[i]`` ran just before task i and ``probes[-1]`` after the last
    task, so there is one task fewer than probes.
    """
    return [REF_PROBE_S / statistics.median(probes[max(0, i - 1):i + 3]) for i in range(len(probes) - 1)]


def scale_all(times: list, probes: list) -> list:
    """Task wall times scaled to the reference speed."""
    assert len(probes) == len(times) + 1
    return [dt * k for dt, k in zip(times, factors(probes))]


def burst(n: int = 50) -> float:
    """The median of ``n`` probes in a row: the host's speed at this moment."""
    return statistics.median(probe() for _ in range(n))
