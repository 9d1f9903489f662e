"""Work attribution: the repo's own "less is more" ledger.

The paper's figures decompose solver effort by *where it went* (Figs. 2-3)
and argue speed comes from *work avoided* (Table III).  This module turns
one solve's :class:`~repro.core.solver.MCResult` into an exact double-entry
account of both:

* **spent work** — every counted work unit attributed to a phase of
  Alg. 1, with the systematic phase further split into filtering vs the
  MC / k-VC sub-solver arms.  The attribution is *exact by construction*:
  an explicit ``unattributed`` bucket absorbs whatever fell outside the
  instrumented phases (in practice near zero), so the buckets always sum
  to ``Counters.work``.
* **avoided work** — every considered-but-not-searched neighborhood
  attributed to the technique that refuted it (the funnel stage deltas of
  Alg. 8), again summing exactly to ``considered - searched``.

:func:`summarize_events` is the trace-side companion: aggregate span and
prune statistics from a recorded event stream (used by ``lazymc trace
summarize`` and the service's per-job trace metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class WorkAttribution:
    """Exact decomposition of one solve's spent and avoided work.

    Invariants (asserted by the test suite, relied on by consumers):

    * ``sum(work_by_phase.values()) == total_work``
    * ``sum(systematic.values()) == work_by_phase.get("systematic", 0)``
    * ``sum(pruned_by_technique.values()) == considered - searched``
    """

    total_work: int
    work_by_phase: dict = field(default_factory=dict)
    systematic: dict = field(default_factory=dict)
    pruned_by_technique: dict = field(default_factory=dict)
    considered: int = 0
    searched: int = 0
    searched_mc: int = 0
    searched_kvc: int = 0

    @property
    def avoided_neighborhoods(self) -> int:
        """Neighborhoods refuted without a sub-solve."""
        return self.considered - self.searched

    def as_dict(self) -> dict:
        """JSON-friendly record."""
        return {
            "total_work": self.total_work,
            "work_by_phase": dict(self.work_by_phase),
            "systematic": dict(self.systematic),
            "pruned_by_technique": dict(self.pruned_by_technique),
            "considered": self.considered,
            "searched": self.searched,
            "searched_mc": self.searched_mc,
            "searched_kvc": self.searched_kvc,
            "avoided_neighborhoods": self.avoided_neighborhoods,
        }


def work_attribution(result) -> WorkAttribution:
    """Build the ledger from one :class:`~repro.core.solver.MCResult`."""
    counters = result.counters
    funnel = result.funnel
    total = counters.work

    work_by_phase = {k: int(v) for k, v in result.timers.work.items()}
    accounted = sum(work_by_phase.values())
    # Work outside any PhaseTimer block (e.g. a resume fast-forward) gets
    # its own bucket so the decomposition stays exact, never approximate.
    work_by_phase["unattributed"] = total - accounted

    systematic_total = work_by_phase.get("systematic", 0)
    systematic = {
        "filtering": int(funnel.work_filtering),
        "mc_subsolve": int(funnel.work_mc),
        "kvc_subsolve": int(funnel.work_kvc),
    }
    # Level scheduling, seeding overhead, and anything the funnel did not
    # see (it only accounts neighbor_search bodies).
    systematic["other"] = systematic_total - sum(systematic.values())

    # Funnel-stage deltas: each considered neighborhood either survives to
    # a sub-solve or is refuted by exactly one technique.
    pruned = {
        "lazy_filter": int(funnel.after_coreness - funnel.after_filter1),
        "early_exit_filter": int(funnel.after_filter1 - funnel.after_filter2),
        "advance_filter": int(funnel.after_filter2 - funnel.after_filter3),
    }

    return WorkAttribution(
        total_work=int(total),
        work_by_phase=work_by_phase,
        systematic=systematic,
        pruned_by_technique=pruned,
        considered=int(funnel.considered),
        searched=int(funnel.searched),
        searched_mc=int(funnel.searched_mc),
        searched_kvc=int(funnel.searched_kvc),
    )


def summarize_events(events: list[dict]) -> dict:
    """Aggregate a decoded event stream into a compact summary dict.

    Returns ``{"events", "dropped", "complete", "final_vt", "spans",
    "prunes", "incumbent"}`` where ``spans`` maps span name to
    ``{"count", "work"}`` (work = sum of span durations in work units),
    ``prunes`` maps technique to its event count, and ``incumbent`` is the
    ``(vt, size)`` growth staircase.
    """
    from .export import spans_of

    footer = events[-1] if events and events[-1].get("ev") == "trace_end" \
        else {}
    spans: dict[str, dict] = {}
    for rec in spans_of(events):
        agg = spans.setdefault(rec["name"], {"count": 0, "work": 0})
        agg["count"] += 1
        agg["work"] += max(rec["end"] - rec["begin"], 0)
    prunes: dict[str, int] = {}
    incumbent: list[tuple[int, int]] = []
    best = 0
    for e in events:
        if e.get("ev") == "prune":
            prunes[e["technique"]] = prunes.get(e["technique"], 0) + 1
        elif e.get("ev") == "incumbent" and e["size"] > best:
            best = e["size"]
            incumbent.append((e["vt"], e["size"]))
    n_body = sum(1 for e in events
                 if e.get("ev") not in ("trace_start", "trace_end"))
    return {
        "events": n_body,
        "dropped": int(footer.get("dropped", 0)),
        "complete": bool(footer.get("complete", False)),
        "final_vt": int(footer.get("vt", 0)),
        "spans": spans,
        "prunes": prunes,
        "incumbent": incumbent,
    }
