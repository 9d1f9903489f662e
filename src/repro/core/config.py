"""LazyMC configuration: every tunable and every ablation toggle.

Each field maps to a design decision the paper measures:

* ``prepopulate`` — Fig. 4 laziness ablation.
* ``early_exit`` — Fig. 5 intersection ablation.
* ``density_threshold`` — Fig. 6 algorithmic-choice sweep (φ in Alg. 8).
* ``filter_rounds`` — the "two iterations of degree-based filtering are
  sufficient" claim of §IV-D.
* ``seed_per_level`` — the one-random-vertex-per-level seeding pass of
  Alg. 7 lines 2-5.
* ``hash_degree_threshold`` — the degree-16 representation crossover of
  §IV-A.
* ``threads`` — simulated worker count (Fig. 7).
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field

from ..intersect.early_exit import EarlyExitConfig
from ..parallel.engine import ENGINE_NAMES


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class PrepopulatePolicy(str, enum.Enum):
    """Which neighborhoods to construct eagerly at lazy-graph creation.

    ``MUST`` (the paper's baseline) prepopulates the *must* subgraph —
    vertices whose coreness is at least the incumbent size after the
    degree-based heuristic.  ``ALL`` and ``NONE`` are the Fig. 4 ablation
    extremes.
    """

    MUST = "must"
    ALL = "all"
    NONE = "none"


@dataclass(frozen=True)
class LazyMCConfig:
    """Complete LazyMC parameterization; defaults follow the paper."""

    # Laziness (Fig. 4)
    prepopulate: PrepopulatePolicy = PrepopulatePolicy.MUST
    # Early-exit intersections (Fig. 5)
    early_exit: EarlyExitConfig = field(default_factory=EarlyExitConfig)
    # Algorithmic choice: k-VC when induced density >= φ (Fig. 3/6).
    density_threshold: float = 0.5
    use_kvc: bool = True
    # Degree-filter repetitions in NeighborSearch (§IV-D: 2 suffices).
    filter_rounds: int = 2
    # Alg. 7: seed one low-coreness vertex per degeneracy level first.
    seed_per_level: bool = True
    # §IV-A: hash representation for degree > threshold, sorted otherwise.
    hash_degree_threshold: int = 16
    # Simulated parallelism (§V-F).
    threads: int = 1
    # Execution engine (repro.parallel.engine): "sim" is the deterministic
    # virtual-time simulation (the default; golden-counter pinned), "seq"
    # the same simulation at threads=1, "process" a real
    # multiprocessing pool over the systematic search's per-level task
    # batches.  ``processes`` sizes the pool; 0 means auto (CPU count,
    # floored at 2 so cross-worker incumbent sharing exists).
    engine: str = "sim"
    processes: int = 0
    # Budgets (substitute for the paper's 30-minute timeout).
    max_work: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.density_threshold <= 1.0:
            raise ValueError("density_threshold must be in [0, 1]")
        if self.filter_rounds < 0:
            raise ValueError("filter_rounds must be >= 0")
        if not _is_int(self.threads) or self.threads < 1:
            raise ValueError("threads must be an int >= 1")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINE_NAMES)}")
        if not _is_int(self.processes) or self.processes < 0:
            raise ValueError("processes must be an int >= 0 (0 = auto)")
        if self.max_work is not None and not (
                _is_int(self.max_work) and self.max_work >= 0):
            raise ValueError("max_work must be None or an int >= 0")
        if self.max_seconds is not None and not (
                _is_real(self.max_seconds) and self.max_seconds >= 0):
            raise ValueError("max_seconds must be None or a number >= 0")

    @property
    def kernel_backend(self) -> str:
        """The direct MC arm's kernel: always ``"sets"``, and no field.

        Read-only; ``perfbench/run.py`` records it in each run's
        environment.  The bit kernel is a ``bench micro`` subject only.
        """
        return "sets"

    def replace(self, **changes) -> "LazyMCConfig":
        """Functional update (dataclasses.replace with a friendlier name)."""
        import dataclasses

        return dataclasses.replace(self, **changes)
