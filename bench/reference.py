"""A fixed reference kernel that scales measured times to one machine speed.

The shared VMs this benchmark is run on change speed by up to a factor of
two within seconds, with CPU time equal to wall time: the process never
waits, the core itself runs slower.  A fixed loop of 32x32 complex SVDs
took 42-90 ms back to back on a 2-core VM, and the passes of one workload
spread by a third (IQR over median) in a minute and a half, wider than
any useful regression bound.

So every timed interval is bracketed by this kernel, which does the kind
of work herzkit does (small complex SVDs and Hermitian eigensolves, and
interpreted loops over small arrays) on fixed inputs that no seed or
herzkit change touches; a ``Sampler`` also runs it during long requests.
An interval of t seconds, over which the kernel took r_1, ..., r_k
seconds, is reported as

    t * NOMINAL_S / mean(r_1, ..., r_k)

that is, as the time it would take where the kernel takes NOMINAL_S.  A
change to herzkit moves the scaled time as it moves the raw time of a
steady machine; raw times are still printed beside the scaled ones.  The
process is pinned to one CPU (run.pin_environment), because the two cores
of such a VM need not run at the same speed.
"""

from __future__ import annotations

import inspect
import signal
import time

import numpy as np

# about the kernel's median time on the 2-core VM the benchmark was written
# on (Python 3.11, numpy 2.4, OpenBLAS on one thread); it only sets the
# scale of the reported times
NOMINAL_S = 0.004

# bound past the benchmark's trace wrappers, so the kernel is never traced
_svd = inspect.unwrap(np.linalg.svd)
_eigvalsh = inspect.unwrap(np.linalg.eigvalsh)

_rng = np.random.default_rng(20090911)
_MATRICES = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
             for n in (4, 8, 16, 32)]
_HERMITIAN = [M @ M.conj().T for M in _MATRICES]
_VECTORS = [np.abs(M[0]) for M in _MATRICES]


def kernel() -> float:
    """Wall time of one execution of the reference kernel, in seconds."""
    start = time.perf_counter()
    for _ in range(3):
        for M, H, v in zip(_MATRICES, _HERMITIAN, _VECTORS):
            _svd(M)
            _eigvalsh(H)
            x = v
            for _ in range(20):
                x = np.abs(x - 0.5) + 0.25 * x
                float(np.sum(x))
    return time.perf_counter() - start


def scale(seconds: float, kernel_times: list) -> float:
    """``seconds`` at the nominal speed, from kernel times taken around and
    during that interval."""
    return seconds * NOMINAL_S * len(kernel_times) / sum(kernel_times)


class Sampler:
    """Runs the kernel every PERIOD_S of wall time between start and stop.

    A request of several seconds outlasts the speed phases of the machine,
    so the kernel runs before and after it miss most of what it met; a
    SIGALRM timer samples the speed throughout.  ``spent`` is the time the
    samples took, which the caller takes off the interval it measured.  Use
    it only while this process computes: a sample taken while it waits for
    a child on the same CPU would slow the child.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
