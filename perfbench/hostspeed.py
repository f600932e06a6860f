"""Timings scaled to a reference host speed.

On a shared host the same work runs up to 1.5x slower for seconds to
minutes at a time, and the process's CPU time slows with it, so a median
inside one run cannot remove the drift between runs.  While a clock is
running, a SIGALRM every ``SAMPLE_INTERVAL_S`` times the probe: a fixed
pure-Python loop, which slows when the host's CPUs are shared, then two scans
of 8 MB, which slow when its caches and memory bandwidth are.  It uses no
nccbank code.  The host's slowness is the probe's time over
``REF_PROBE_S``, its time on a quiet 2-vCPU Xeon VM.
Each stretch of wall time between two probes is divided by the median
slowness of the last ``WINDOW`` probes, so a region's scaled time is its
wall time in seconds at the reference speed.  The probes' own time counts
in neither the wall nor the scaled time.

A change to the program moves the scaled time as it moves the wall time;
only the host's speed is divided out.
"""

import contextlib
import signal
import statistics
import time

PROBE_LOOPS = 15000
PROBE_BYTES = b"\0" * (8 << 20)  # written, so its pages are mapped
REF_PROBE_S = 0.0025
SAMPLE_INTERVAL_S = 0.1
WINDOW = 5


def probe():
    """Seconds the fixed loop and scans take now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    PROBE_BYTES.find(b"\1")
    PROBE_BYTES.find(b"\1")
    return time.perf_counter() - start


class ScaledClock:
    """Wall and reference-speed seconds of the regions timed inside it.

    Use as ``with ScaledClock() as clock:`` and time blocks with
    ``with clock.region() as r:``; afterwards ``r["wall_s"]`` and
    ``r["scaled_s"]`` hold the block's times.
    """

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self.slowness = []  # every probe, as a factor of the reference speed
        self._last = None
        self._busy = False
        self._old_handler = None

    def sample(self, *_signal_args):
        if self._busy:  # a SIGALRM arrived during an explicit sample
            return
        self._busy = True
        try:
            now = time.perf_counter()
            self.slowness.append(probe() / REF_PROBE_S)
            if self._last is not None:
                stretch = now - self._last
                self.wall += stretch
                self.scaled += stretch / statistics.median(self.slowness[-WINDOW:])
            self._last = time.perf_counter()
        finally:
            self._busy = False

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    @contextlib.contextmanager
    def region(self):
        result = {}
        self.sample()
        wall, scaled = self.wall, self.scaled
        try:
            yield result
        finally:
            self.sample()
            result["wall_s"] = self.wall - wall
            result["scaled_s"] = self.scaled - scaled
