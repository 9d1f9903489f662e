"""Common measurement machinery for the benches.

The paper reports mean execution time and its standard deviation as a
percentage (Table II), under a 30-minute timeout.  ``repeat_timed``
reproduces exactly that protocol at laptop scale; ``BenchConfig`` carries
the dataset selection and the scaled-down budget.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..datasets import names as dataset_names


@dataclass(frozen=True)
class BenchConfig:
    """Bench-wide knobs.

    ``timeout_seconds`` substitutes the paper's 30-minute wall limit;
    ``repeats`` matches the paper's repeated-measurement protocol (their
    Dev% column exists because they repeat each run).  ``engine`` selects
    the execution engine (:mod:`repro.parallel.engine`) for artifacts
    that honor it (fig7, engines); the deterministic simulated scheduler
    stays the default so committed baselines remain reproducible.
    """

    datasets: tuple[str, ...] = ()
    repeats: int = 3
    timeout_seconds: float = 60.0
    threads: int = 1
    engine: str = "sim"

    def dataset_list(self) -> list[str]:
        """Selected dataset names (full registry when unset)."""
        return list(self.datasets) if self.datasets else dataset_names()


@dataclass
class TimedResult:
    """Mean/stddev of a repeated measurement plus the last return value."""

    mean_seconds: float
    stdev_pct: float
    timed_out: bool
    value: object = None


def repeat_timed(fn: Callable[[], object], repeats: int = 3,
                 treat_as_timeout: Callable[[object], bool] | None = None) -> TimedResult:
    """Run ``fn`` ``repeats`` times; report mean seconds and stddev%.

    ``treat_as_timeout`` inspects the return value (e.g. an ``MCResult``
    with ``timed_out`` set); a timed-out run short-circuits the repeats,
    matching how the paper reports "T.O." rows.
    """
    times: list[float] = []
    value = None
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
        if treat_as_timeout is not None and treat_as_timeout(value):
            return TimedResult(mean_seconds=times[-1], stdev_pct=0.0,
                               timed_out=True, value=value)
    mean = statistics.fmean(times)
    if len(times) > 1 and mean > 0:
        stdev_pct = 100.0 * statistics.stdev(times) / mean
    else:
        stdev_pct = 0.0
    return TimedResult(mean_seconds=mean, stdev_pct=stdev_pct,
                       timed_out=False, value=value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (Fig. 4's summary statistic)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 when empty)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    return statistics.median(vals)
