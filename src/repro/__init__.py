"""repro — LazyMC: faster maximum clique search by work-avoidance.

A complete Python reproduction of the IPDPS 2025 paper, including the
LazyMC solver, its substrates (CSR graphs, k-core, hopscotch hashing,
early-exit set intersections, MC and k-VC sub-solvers), the baselines it is
evaluated against (PMC, dOmega-LS/BS, MC-BRB), a deterministic simulated
parallel scheduler, synthetic analogues of the paper's 28 input graphs, and
a benchmark harness regenerating every table and figure.

Quickstart::

    from repro import lazymc
    from repro.graph.generators import planted_clique

    graph, _ = planted_clique(1000, 0.01, 12, seed=0)
    result = lazymc(graph)
    print(result.omega, result.clique)
"""

from .checkpoint import Checkpointer, SearchCheckpoint, load_checkpoint, save_checkpoint
from .core import LazyMC, LazyMCConfig, MCResult, PrepopulatePolicy, lazymc
from .errors import (
    BudgetExceeded,
    CircuitOpenError,
    DatasetError,
    GraphConstructionError,
    GraphFormatError,
    GraphLoadError,
    InjectedFault,
    ProtocolError,
    QueueFullError,
    ReproError,
    ServiceError,
    SolverError,
    WorkerCrashError,
)
from .faults import FaultPlan, FaultSpec
from .graph import CSRGraph, from_edges
from .instrument import Counters, Histogram, MetricsRegistry, PhaseTimers, WorkBudget
from . import analysis

__version__ = "1.0.0"

__all__ = [
    "lazymc",
    "LazyMC",
    "LazyMCConfig",
    "MCResult",
    "PrepopulatePolicy",
    "CSRGraph",
    "from_edges",
    "Counters",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimers",
    "WorkBudget",
    "analysis",
    "ReproError",
    "GraphFormatError",
    "GraphConstructionError",
    "GraphLoadError",
    "BudgetExceeded",
    "SolverError",
    "DatasetError",
    "ServiceError",
    "ProtocolError",
    "QueueFullError",
    "InjectedFault",
    "WorkerCrashError",
    "CircuitOpenError",
    "FaultPlan",
    "FaultSpec",
    "Checkpointer",
    "SearchCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
