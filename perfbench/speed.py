"""Host-speed probe: puts every benchmark time on one reference speed.

On a shared host the same solve can take twice its usual time for seconds
or tens of seconds at a stretch, in CPU time as much as in wall time, so
neither raw seconds nor the fastest of a few passes compare two runs.
While the benchmark measures, ``SpeedSampler`` runs a fixed pure-Python
loop of dict and set operations (the solver's own staple) every
``PERIOD_S`` of wall time, from a ``SIGALRM`` handler, and records the
thread CPU time of each run of it.  A timed interval, less the probes
inside it, is scaled by ``REF_PROBE_S`` over the mean probe cost around
it: a host slow spell stretches interval and probe alike, and the scaled
time stays put.  The result is in seconds at the reference speed, the
speed at which one probe costs ``REF_PROBE_S``.  Worker processes inherit
no timer, so the probes run in the benchmark process alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Wall seconds between probes.  One probe costs about 0.1 ms of CPU, so
#: probing takes about 1% of the measured time.
PERIOD_S = 0.01
#: An interval is scaled by at least this many probes, the ones nearest
#: to it when fewer fall inside it.
MIN_PROBES = 32
#: CPU seconds of one probe at the reference speed: about its cost on a
#: quiet 2-vCPU Xeon VM (the median over a run reads 78-100 us there, and
#: up to 180 us in a busy spell).
REF_PROBE_S = 100e-6


def probe() -> None:
    """The fixed reference work: dict updates and a set intersection."""
    d: dict[int, int] = {}
    for i in range(600):
        d[i & 255] = d.get(i & 127, 0) + i
    len(set(range(200)) & set(range(100, 300)))


class SpeedSampler:
    """Probe the host's speed on a wall-clock timer while in the block."""

    def __init__(self) -> None:
        self.at: list[float] = []    # perf_counter at each probe's start
        self.wall: list[float] = []  # wall seconds of each probe
        self.cost: list[float] = []  # thread CPU seconds of each probe
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        probe()
        self.cost.append(time.thread_time() - c0)
        self.at.append(t0)
        self.wall.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def around(self, t0: float, t1: float) -> tuple[float, float, float]:
        """Probe wall and CPU seconds within ``[t0, t1)``, and its scale.

        The scale is ``REF_PROBE_S`` over the mean probe cost in the
        interval, widened to the ``MIN_PROBES`` nearest probes.
        """
        a = bisect.bisect_left(self.at, t0)
        b = bisect.bisect_left(self.at, t1)
        inside = sum(self.wall[a:b]), sum(self.cost[a:b])
        short = MIN_PROBES - (b - a)
        if short > 0:
            a = max(0, a - (short + 1) // 2)
            b = min(len(self.at), a + MIN_PROBES)
            a = max(0, b - MIN_PROBES)
        return *inside, REF_PROBE_S / statistics.fmean(self.cost[a:b])
