"""Deterministic, seeded fault injection for the solve pipeline.

Clique search trees are extremely irregular (McCreesh & Prosser's
search-tree-shape analysis in PAPERS.md), so a serving deployment sees
stragglers, killed workers, and lost results as the *norm*, not the
exception.  Testing the recovery machinery against real, random failures
is hopeless; this module makes every failure path reproducible on demand.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries parsed from
compact text like ``crash:worker:p=0.2; hang:solve:after_work=1e5;
drop:proto:p=0.1``.  Three *sites* are hooked:

``worker``
    Worker entry (:func:`repro.service.worker.run_job`).  A ``crash``
    here terminates the worker process with ``os._exit`` — exactly what a
    segfault or OOM kill looks like to the pool (``BrokenProcessPool``).
``solve``
    Budget ticks inside the search (:meth:`repro.instrument.WorkBudget.
    check`), so faults can be positioned *by work counter*:
    ``hang:solve:after_work=1e5`` wedges the solve after 100k work units,
    which is what the supervised pool's deadline watchdog exists to kill.
``proto``
    The JSON-lines transport.  A ``drop`` discards the message (the
    server closes the connection without answering; a worker's result
    never reaches the pool), modelling a lost response line.

Every decision is a pure function of ``(seed, salt, site, draw index)``
via a keyed blake2b hash — **not** Python's ``hash()``, which is
randomized per process — so a plan fires identically across forked and
spawned workers, reruns, and platforms.  The pool salts the plan per
``(job, attempt)`` so a 20 %-crash plan kills roughly 20 % of *jobs* and
a retried attempt redraws instead of deterministically re-crashing.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from .errors import InjectedFault

#: Recognised fault kinds.
KINDS = ("crash", "hang", "drop")

#: Recognised injection sites.
SITES = ("worker", "solve", "proto")

#: Default hang duration: far beyond any sane job deadline, so an
#: unsupervised hang is indistinguishable from a wedged worker, while a
#: supervised one is killed long before the sleep completes.
DEFAULT_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: *kind* at *site*, gated by its parameters.

    ``p`` is the per-draw firing probability; ``after_work`` arms the rule
    only once the solve's work counter reaches that value (``solve`` site
    only); ``seconds`` is the hang duration; ``max_count`` caps firings
    per plan instance; ``attempt`` restricts the rule to one specific
    retry attempt (0 = first run), which lets tests wedge the first
    attempt and let the retry through.
    """

    kind: str
    site: str
    p: float = 1.0
    after_work: int | None = None
    seconds: float = DEFAULT_HANG_SECONDS
    max_count: int | None = None
    attempt: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(KINDS)}")
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"known: {', '.join(SITES)}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``kind:site[:key=value[,key=value...]]``."""
        parts = text.strip().split(":", 2)
        if len(parts) < 2:
            raise ValueError(f"fault spec {text!r} needs kind:site[:params]")
        kind, site = parts[0].strip(), parts[1].strip()
        params: dict = {}
        if len(parts) == 3 and parts[2].strip():
            for item in parts[2].split(","):
                if "=" not in item:
                    raise ValueError(f"bad fault param {item!r} in {text!r}")
                key, value = (s.strip() for s in item.split("=", 1))
                if key == "p":
                    params["p"] = float(value)
                elif key == "after_work":
                    params["after_work"] = int(float(value))
                elif key == "seconds":
                    params["seconds"] = float(value)
                elif key == "max_count":
                    params["max_count"] = int(float(value))
                elif key == "attempt":
                    params["attempt"] = int(value)
                else:
                    raise ValueError(f"unknown fault param {key!r} in {text!r}")
        return cls(kind=kind, site=site, **params)


def _stable_draw(seed: int, salt: str, site: str, index: int) -> float:
    """Uniform [0, 1) draw, identical across processes and platforms."""
    key = f"{seed}|{salt}|{site}|{index}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class FaultPlan:
    """A seeded set of fault rules plus the per-instance firing state.

    Instances are cheap and picklable; the pool ships a freshly salted
    copy (:meth:`for_job`) to every attempt.  ``origin_pid`` is captured
    at construction: a ``crash`` fired in a *different* pid (a pool
    worker) hard-exits the process, while in the constructing process
    (inline mode, the CLI) it raises :class:`~repro.errors.InjectedFault`
    so the test harness itself survives.
    """

    def __init__(self, specs: tuple | list = (), seed: int = 0,
                 salt: str = "", attempt: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        self.salt = str(salt)
        self.attempt = int(attempt)
        self.origin_pid = os.getpid()
        self._draws: dict = {}
        self._fired: dict = {}

    @classmethod
    def parse(cls, text: str | None, seed: int = 0) -> "FaultPlan":
        """Parse a ``;``-separated list of fault specs (empty/None -> no-op)."""
        specs = []
        for chunk in (text or "").split(";"):
            if chunk.strip():
                specs.append(FaultSpec.parse(chunk))
        return cls(specs, seed=seed)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __getstate__(self) -> dict:
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        # Deliberately keep the pickled origin_pid: an unpickled plan in a
        # pool worker must know it is *not* in the originating process.
        self.__dict__.update(state)

    def for_job(self, salt, attempt: int = 0) -> "FaultPlan":
        """Fresh copy salted for one ``(job, attempt)``: independent draws."""
        plan = FaultPlan(self.specs, seed=self.seed,
                         salt=f"{salt}#{attempt}", attempt=attempt)
        plan.origin_pid = self.origin_pid
        return plan

    def has_site(self, site: str) -> bool:
        """Whether any rule targets ``site`` (lets hot paths skip hooks)."""
        return any(s.site == site for s in self.specs)

    # -- firing -------------------------------------------------------------------

    def fire(self, site: str, work: int | None = None) -> FaultSpec | None:
        """Deterministically decide whether a rule at ``site`` fires now."""
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.attempt is not None and spec.attempt != self.attempt:
                continue
            if spec.max_count is not None and \
                    self._fired.get(index, 0) >= spec.max_count:
                continue
            if spec.after_work is not None and \
                    (work is None or work < spec.after_work):
                continue
            if spec.p < 1.0:
                draw_index = self._draws.get((index, site), 0)
                self._draws[(index, site)] = draw_index + 1
                if _stable_draw(self.seed, self.salt, f"{index}:{site}",
                                draw_index) >= spec.p:
                    continue
            self._fired[index] = self._fired.get(index, 0) + 1
            return spec
        return None

    def _execute(self, spec: FaultSpec, where: str) -> None:
        if spec.kind == "crash":
            if os.getpid() != self.origin_pid:
                # A pool worker: die the way a segfault does — no cleanup,
                # no exception crossing the pipe, just a vanished process.
                os._exit(17)
            raise InjectedFault(f"injected crash at {where}")
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            # Outliving the sleep means nothing killed us (inline mode, or
            # a deadline longer than the hang); surface as a fault so the
            # run still terminates deterministically.
            raise InjectedFault(f"injected hang at {where} "
                                f"(slept {spec.seconds:g}s unkilled)")
        raise InjectedFault(f"injected {spec.kind} at {where}")

    # -- site hooks ---------------------------------------------------------------

    def on_worker_entry(self) -> None:
        """Worker-entry hook: may crash or hang the worker."""
        spec = self.fire("worker")
        if spec is not None:
            self._execute(spec, "worker entry")

    def on_budget_tick(self, work: int) -> None:
        """Budget-tick hook (wired into :class:`~repro.instrument.WorkBudget`)."""
        spec = self.fire("solve", work=work)
        if spec is not None:
            self._execute(spec, f"solve tick (work={work})")

    def on_proto(self) -> bool:
        """Transport hook: returns True when the message must be dropped."""
        spec = self.fire("proto")
        if spec is None:
            return False
        if spec.kind == "drop":
            return True
        self._execute(spec, "proto transport")
        return False
