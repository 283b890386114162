"""Host-speed probes: express operation times as on a host running at full speed.

The test host is shared.  Its neighbours slow a whole core by 1.6-2x for
seconds to tens of seconds at a time, and CPU time rises with wall time, so
neither clock hides it; raw figures spread by up to 30% between runs of the
same code.  A run therefore times a fixed pure-Python kernel (no
``ncx2shape`` code) every ``PROBE_EVERY_S`` seconds between operations.  The
probes split the run into windows, window ``k`` lying between probe ``k`` and
probe ``k + 1``.  Each operation's time is multiplied by
``PROBE_NOMINAL_S / mean(probe k, probe k + 1)`` of its window: the time it
would have taken on a nominal host, one on which the probe takes
``PROBE_NOMINAL_S``.

Every operation is kept, and the factor depends on the probes alone, so the
correction is blind to what each operation computes.  It is not exact: in
the slow stretches the package slows a little less than the probe.  But it
is the same for every commit, so run-to-run spreads drop to a few percent.
"""

from __future__ import annotations

import math
import time
from array import array

PROBE_EVERY_S = 0.05
KERNEL_STEPS = 1000
# The probe's time at full speed on the host the benchmark was defined on
# (a 2-vCPU Intel Xeon VM, Python 3.11).
PROBE_NOMINAL_S = 320e-6


def kernel(steps: int = KERNEL_STEPS) -> float:
    """Scalar float work with libm calls, like the package's own inner loops."""
    s = 0.0
    for k in range(1, steps):
        a = k * 0.37 + 1.0
        s = s / (1.0 + math.log(a) + math.exp(-a * 1e-3)) + math.sqrt(a) * 1e-3
    return s


class Probes:
    """Probe times in order; window ``k`` lies between probe ``k`` and ``k + 1``."""

    def __init__(self):
        self.seconds = array("d")
        self.next_at = 0.0

    def due(self) -> bool:
        return time.perf_counter() >= self.next_at

    def probe(self) -> int:
        """Time the kernel once; return the index of the window it opens."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.seconds.append(t1 - t0)
        self.next_at = t1 + PROBE_EVERY_S
        return len(self.seconds) - 1

    def to_nominal(self) -> list[float]:
        """Per window, the factor that turns a time measured in it into one on the nominal host."""
        s = self.seconds
        return [2.0 * PROBE_NOMINAL_S / (a + b) for a, b in zip(s, s[1:])]
