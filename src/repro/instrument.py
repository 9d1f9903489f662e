"""Operation counters, phase timers and work budgets.

The paper's evaluation reports *work* (number of set operations, elements
scanned, neighborhoods filtered; Figs. 2-5, 7 and Table III) alongside wall
time.  In this reproduction operation counts are the primary cross-platform
metric: they are deterministic, independent of the Python interpreter's
speed, and directly comparable to the paper's relative numbers.

Counters are plain attribute-backed integers (not a dict) because the
early-exit intersection kernels increment them in the innermost loop; the
instances are passed explicitly through the call tree — there is no global
mutable state, which keeps the simulated-parallel execution deterministic.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields

from .errors import BudgetExceeded


@dataclass
class Counters:
    """Work counters accumulated during a solve.

    Attributes mirror the quantities the paper reports:

    * ``elements_scanned`` — elements of the left-hand set examined by any
      intersection kernel; the unit of *work* used throughout the benches.
    * ``intersections`` — kernel invocations.
    * ``early_exit_false`` / ``early_exit_true`` — early terminations of the
      early-exit kernels (Alg. 3/4); ``early_exit_true`` counts only the
      *second* exit of ``intersect_size_gt_bool``.
    * ``hash_lookups`` — membership probes against hash-set neighborhoods.
    * ``neighborhoods_built_hash`` / ``neighborhoods_built_sorted`` — lazy
      graph constructions (Fig. 4).
    * ``neighbors_filtered_at_build`` — neighbors dropped by the lazy
      coreness filter at construction time (Alg. 2 line 20).
    * ``mc_subsolves`` / ``kvc_subsolves`` — algorithmic choice (Fig. 6).
    * ``branch_nodes`` — branch-and-bound tree nodes across sub-solvers.
    * ``words_scanned`` — 64-bit words touched by the bit-parallel kernel's
      vector ops (its work unit).  Only ``bench micro``'s arm race runs
      that kernel, so every LazyMC solve reads zero.  One word stands for
      up to 64 element probes, so the race's bit and sets work totals are
      not directly comparable — see docs/performance.md.
    """

    elements_scanned: int = 0
    words_scanned: int = 0
    intersections: int = 0
    early_exit_false: int = 0
    early_exit_true: int = 0
    hash_lookups: int = 0
    hash_inserts: int = 0
    neighborhoods_built_hash: int = 0
    neighborhoods_built_sorted: int = 0
    neighbors_filtered_at_build: int = 0
    mc_subsolves: int = 0
    kvc_subsolves: int = 0
    branch_nodes: int = 0
    colorings: int = 0
    kernel_reductions: int = 0
    incumbent_updates: int = 0

    def merge(self, other: "Counters") -> None:
        """Accumulate ``other`` into ``self`` (used at wave barriers)."""
        mine, theirs = self.__dict__, other.__dict__
        for name in COUNTER_NAMES:
            mine[name] += theirs[name]

    def copy(self) -> "Counters":
        """Independent copy of the current counts."""
        return Counters(**self.as_dict())

    def as_dict(self) -> dict:
        """All counters as a plain dict (JSON-friendly)."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    @property
    def work(self) -> int:
        """Total work units (the Fig. 7 metric).

        ``words_scanned`` joins the sum so budgets and the arm race's
        work totals cover the bit-parallel kernel; it is zero on every
        LazyMC solve, leaving the historical definition intact.
        """
        return (self.elements_scanned + self.branch_nodes +
                self.hash_inserts + self.words_scanned)

    def __repr__(self) -> str:  # compact, only non-zero fields
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return f"Counters({', '.join(parts)})"


#: Field names of :class:`Counters`, computed once: ``merge``, ``copy`` and
#: ``as_dict`` run thousands of times per solve.
COUNTER_NAMES = tuple(f.name for f in fields(Counters))


@dataclass
class PhaseTimers:
    """Wall-clock and work attribution per top-level phase of Alg. 1.

    Phases correspond to Fig. 2: degree-based heuristic search, k-core
    computation, sort-order determination, lazy-graph prepopulation,
    coreness-based heuristic search, and systematic search.
    """

    seconds: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)

    def add(self, phase: str, seconds: float, work: int = 0) -> None:
        """Accumulate time and work into ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.work[phase] = self.work.get(phase, 0) + work

    def total_seconds(self) -> float:
        """Sum of all phase times."""
        return sum(self.seconds.values())

    def relative(self) -> dict:
        """Fraction of total time per phase (the Fig. 2 bars)."""
        total = self.total_seconds()
        if total <= 0.0:
            return {k: 0.0 for k in self.seconds}
        return {k: v / total for k, v in self.seconds.items()}


class PhaseTimer:
    """Context manager recording one phase into a :class:`PhaseTimers`.

    Work attribution is computed as the counter delta across the phase so
    nested phases must not overlap.
    """

    def __init__(self, timers: PhaseTimers, phase: str, counters: Counters | None = None):
        self._timers = timers
        self._phase = phase
        self._counters = counters
        self._t0 = 0.0
        self._w0 = 0

    def __enter__(self) -> "PhaseTimer":
        self._t0 = time.perf_counter()
        self._w0 = self._counters.work if self._counters is not None else 0
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dt = time.perf_counter() - self._t0
        dw = (self._counters.work - self._w0) if self._counters is not None else 0
        self._timers.add(self._phase, dt, dw)


class WorkBudget:
    """Combined operation-count and wall-clock budget.

    The paper imposes a 30-minute timeout per solver run (Table II).  A pure
    Python reproduction substitutes a deterministic operation budget checked
    at branch points, plus an optional wall-clock limit.  ``check`` is cheap
    (two comparisons) and is called from branch-and-bound node expansion and
    the outer loops of the searches, not from intersection inner loops.

    ``fault_hook`` is the :mod:`repro.faults` injection point: when set it
    is called with the current work count on every check, which is how
    ``hang:solve:after_work=N`` faults position themselves deterministically
    inside the search.  ``None`` (the default) costs one comparison.
    """

    def __init__(self, max_work: int | None = None, max_seconds: float | None = None,
                 counters: Counters | None = None, fault_hook=None):
        self.max_work = max_work
        self.max_seconds = max_seconds
        self.counters = counters
        self.fault_hook = fault_hook
        self._deadline = (time.perf_counter() + max_seconds) if max_seconds else None
        self._calls = 0

    def check(self) -> None:
        """Raise :class:`~repro.errors.BudgetExceeded` when over budget."""
        if self.fault_hook is not None:
            self.fault_hook(self.counters.work if self.counters is not None else 0)
        if self.max_work is not None and self.counters is not None:
            if self.counters.work > self.max_work:
                raise BudgetExceeded(f"work {self.counters.work} > {self.max_work}")
        if self._deadline is not None:
            # Amortize the perf_counter call: only sample the clock every
            # 256 checks; the budget is a safety net, not a precise timer.
            self._calls += 1
            if (self._calls & 0xFF) == 0 and time.perf_counter() > self._deadline:
                raise BudgetExceeded(f"wall clock exceeded {self.max_seconds}s")

    @staticmethod
    def unlimited() -> "WorkBudget":
        return WorkBudget()


def _geometric_buckets(lo: float, hi: float, factor: float) -> tuple[float, ...]:
    buckets = [lo]
    while buckets[-1] * factor <= hi:
        buckets.append(buckets[-1] * factor)
    return tuple(buckets)


#: Default latency buckets: 100 µs .. ~1000 s, one per factor of 4.  Wide
#: enough that both a cache hit and a budget-bound exhaustive solve land in
#: an interior bucket.
LATENCY_BUCKETS = _geometric_buckets(1e-4, 1.1e3, 4.0)

#: Default work buckets (scanned-element units): 1 .. ~10^9.
WORK_BUCKETS = _geometric_buckets(1.0, 1.1e9, 8.0)


class Histogram:
    """Fixed-bucket histogram with Prometheus-style cumulative export.

    Serving metrics (per-job latency, per-job work) are long-tailed, so a
    mean is useless; geometric buckets capture the shape at O(#buckets)
    memory regardless of job count.  ``observe`` is O(#buckets) linear scan
    — bucket counts are small (<20) and observations happen once per job,
    not in solver inner loops.
    """

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS):
        if not buckets or any(b <= a for a, b in zip(buckets, buckets[1:])):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.buckets = tuple(float(b) for b in buckets)
        # counts[i] is the count for value <= buckets[i]; the final slot is
        # the +Inf overflow bucket.
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile: upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bound in enumerate(self.buckets):
            seen += self.counts[i]
            if seen >= rank:
                return bound
        return float("inf")

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (non-cumulative bucket counts)."""
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {("%g" % b): c for b, c in zip(self.buckets, self.counts)},
            "overflow": self.counts[-1],
        }


class MetricsRegistry:
    """Named counters, gauges and histograms for long-running components.

    Solver internals keep using :class:`Counters` (explicitly threaded,
    zero-lock, deterministic); the registry is the *service-level* layer
    above — shared across threads, hence the lock — aggregating whole jobs:
    queue depth, cache hit rate, latency distributions.  Exportable both as
    JSON (:meth:`snapshot`) and as a Prometheus text page
    (:meth:`to_prometheus`) for scraping.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float:
        """Current value of gauge ``name`` (0.0 if never set)."""
        with self._lock:
            return self._gauges.get(name, 0.0)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = LATENCY_BUCKETS) -> Histogram:
        """The histogram registered under ``name``, creating it on first use.

        ``buckets`` only applies at creation; later calls return the
        existing instance unchanged.
        """
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(buckets)
            return self._histograms[name]

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        """Shorthand for ``histogram(name, buckets).observe(value)``."""
        self.histogram(name, buckets).observe(value)

    def snapshot(self) -> dict:
        """All metrics as one JSON-serializable dict."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.as_dict() for k, h in self._histograms.items()},
            }

    def to_prometheus(self, prefix: str = "lazymc") -> str:
        """Prometheus text exposition of every metric.

        Histogram buckets are emitted cumulatively with ``le`` labels, as
        the format requires.
        """
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._counters):
                full = f"{prefix}_{name}"
                lines.append(f"# TYPE {full} counter")
                lines.append(f"{full} {self._counters[name]}")
            for name in sorted(self._gauges):
                full = f"{prefix}_{name}"
                lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {self._gauges[name]:g}")
            for name in sorted(self._histograms):
                h = self._histograms[name]
                full = f"{prefix}_{name}"
                lines.append(f"# TYPE {full} histogram")
                cumulative = 0
                for bound, count in zip(h.buckets, h.counts):
                    cumulative += count
                    lines.append(f'{full}_bucket{{le="{bound:g}"}} {cumulative}')
                lines.append(f'{full}_bucket{{le="+Inf"}} {h.count}')
                lines.append(f"{full}_sum {h.total:g}")
                lines.append(f"{full}_count {h.count}")
            return "\n".join(lines) + "\n"
