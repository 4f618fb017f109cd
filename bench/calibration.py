"""Reference work timed between ops, to factor machine speed out of timings.

On a shared host the speed of a CPU changes with what other tenants run.
On the two-core machine this benchmark was built on (Intel Xeon, Python
3.11, numpy 2.4), the same `analyze` command took 1.2 ms in one second and
2.3 ms a few seconds later, with no CPU time stolen and on either core.  A
fixed kernel of interpreter work, float formatting and numpy calls, timed
next to the ops, slows down with them.  Each op latency is scaled by
REFERENCE_S over the kernel time measured around it, which gives the
latency at the speed where one kernel pass takes REFERENCE_S.  The kernel
uses no scherk code, so a change to the program cannot move it.
"""

import math
import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3
# Kernel samples on each side of an op whose median scales it.
WINDOW = 3

_ARC = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 2048))
_FLOATS = [math.sqrt(i + 0.5) for i in range(160)]


def kernel():
    """About a millisecond of mixed work; returns a value so none is skipped."""
    acc = 0
    for i in range(2500):
        acc += (i * 7) % 13
    text = " ".join(f"{v:.17g}" for v in _FLOATS)
    acc += len({f"k{i}": v for i, v in enumerate(text.split())})
    for zk in (1.0, 1j, -1.0, -1j):
        acc += float(np.log(1.0 - _ARC / zk).imag.sum())
    for v in _FLOATS[:40]:
        acc += abs(np.exp(1j * v))
    return acc


class Calibrator:
    """Kernel timings in the order they were taken."""

    def __init__(self):
        self.samples = []

    def sample(self, n=WINDOW):
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def mark(self):
        """Position to pass to scale() for work that starts now."""
        return len(self.samples)

    def scale(self, mark):
        """REFERENCE_S over the median kernel time of the WINDOW samples
        before and after the position `mark`."""
        near = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return REFERENCE_S / statistics.median(near)
