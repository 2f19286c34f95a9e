"""Speed of the core the program runs on, sampled during the run.

The benchmark's machine is shared: the same call can take twice as long
from one second to the next, and the machine drifts between faster and
slower spells over minutes, so two runs of identical code can differ by
a third. A SIGALRM handler times a fixed pure-Python kernel every PERIOD
seconds on the thread that runs the program, so its samples see the same
core in the same spells as the calls around them. `slowdown()` compares
the run's fast samples with the kernel's time on an undisturbed core; the
timings divided by it are seconds at that reference speed.
"""

import signal
import time

PERIOD = 0.05          # seconds between samples
REFERENCE_S = 2.5e-4   # kernel time on an undisturbed core of the 2-core
                       # machine the baseline was recorded on
QUANTILE = 0.1         # the run's fast samples


def kernel(n=2000):
    acc = 0
    table = {}
    for k in range(n):
        acc = (acc * 31 + k) % 1000003
        table[k & 127] = acc
    return acc


class SpeedSampler:
    """Context manager sampling the kernel time while it is active.

    ``handler_s`` is the time spent in the handler so far, which a caller
    subtracts from the calls it times.
    """

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self):
        """Fast-sample kernel time over the reference (1.0 if no sample)."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        return ordered[int(QUANTILE * (len(ordered) - 1))] / REFERENCE_S
