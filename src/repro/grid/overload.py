"""Overload protection: admission control and graceful degradation.

The paper's grid never saturates — queues are unbounded, eviction always
succeeds, and every job eventually runs.  Under the heavy open-loop
traffic the ROADMAP targets, that assumption collapses: a site whose
queue grows without bound wedges the whole study, and two concurrent
transfers into a nearly-full storage element can overcommit capacity.
This module bundles every saturation-survival knob into one frozen
policy, mirroring :class:`~repro.grid.staleness.InfoPolicy` for the
information-quality family:

* **Bounded queues with backpressure** — ``queue_capacity`` caps each
  site's waiting-job count; an overflowing dispatch is *deflected* back
  for re-placement (``deflect_budget`` times, reusing the bounce
  machinery's accounting shape) and finally *shed* with a counted and
  traced ``job.shed`` event — never silently dropped.
* **Storage reservations** — ``storage_reservations`` makes the data
  mover reserve space at transfer start (released on abort/failover),
  closing the window where two in-flight transfers both pass
  ``can_fit`` and overcommit the destination.  A pinned fetch that
  cannot reserve space for ``remote_read_after`` retry rounds degrades
  to a *remote read*: the bytes stream to the job without being stored.
* **Deadlines and aging** — ``job_deadline_s`` bounds a job's queue wait
  (expired jobs are counted and traced, not lost); ``aging_factor``
  ages priority-scheduler queue keys so SJF/data-aware policies cannot
  starve large jobs forever.
* **Degraded-mode ES** — when the External Scheduler wedges (no
  candidate sites) or every choice is saturated, placement falls back
  to ``degraded_es`` (a registry name) or, last of all, a deterministic
  least-loaded scan.

Every knob defaults *off*: a grid built with a null policy arms no
:class:`OverloadLayer`, so disabled runs stay bitwise-identical to the
committed golden trace digests.  Saturated runs draw no new randomness
outside the dedicated ``"overload"`` stream, so they stay deterministic
at any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.grid.lifecycle import JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.grid import DataGrid
    from repro.grid.job import Job
    from repro.sim.core import Simulator


@dataclass(frozen=True)
class OverloadPolicy:
    """Saturation-protection policy for one grid.

    Attributes
    ----------
    queue_capacity:
        Maximum jobs *waiting* at any site (the paper's load measure).
        0 = unbounded queues (the paper's model).
    deflect_budget:
        How many times a job aimed at a saturated site may be deflected
        to another site before it is shed.  Only meaningful when
        ``queue_capacity`` > 0.
    job_deadline_s:
        Maximum time a job may wait in a site queue before it expires
        (counted, traced, terminal).  0 = no deadline.
    aging_factor:
        Priority-aging rate for queue-reordering local schedulers, in
        priority-seconds of credit per second waited.  With uniform
        linear aging the pairwise order of two waiting jobs never
        changes after both are enqueued, so aging folds into a constant
        key at enqueue time (``base + factor * now``) — zero ongoing
        cost, bitwise-deterministic.  0 = no aging.
    degraded_es:
        Registry name of the last-resort External Scheduler used when
        the primary wedges or every candidate is saturated ("" = use a
        deterministic least-loaded scan).
    storage_reservations:
        Route data-mover transfers through the storage reservation
        ledger (reserve at transfer start, release on abort) so
        concurrent inbound transfers can never overcommit capacity.
    remote_read_after:
        Pinned-fetch retry rounds (of the data mover's blocked-fetch
        interval) tolerated before degrading to a remote read.  Only
        consulted when ``storage_reservations`` is on.
    """

    queue_capacity: int = 0
    deflect_budget: int = 1
    job_deadline_s: float = 0.0
    aging_factor: float = 0.0
    degraded_es: str = ""
    storage_reservations: bool = False
    remote_read_after: int = 3

    def __post_init__(self) -> None:
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue capacity must be >= 0, got {self.queue_capacity!r}")
        if self.deflect_budget < 0:
            raise ValueError(
                f"deflect budget must be >= 0, got {self.deflect_budget!r}")
        if self.job_deadline_s < 0:
            raise ValueError(
                f"job deadline must be >= 0, got {self.job_deadline_s!r}")
        if self.aging_factor < 0:
            raise ValueError(
                f"aging factor must be >= 0, got {self.aging_factor!r}")
        if self.remote_read_after < 0:
            raise ValueError(
                f"remote_read_after must be >= 0, "
                f"got {self.remote_read_after!r}")

    @property
    def is_null(self) -> bool:
        """True when every mechanism is off (grid runs pre-overload paths).

        ``deflect_budget`` and ``remote_read_after`` are modifiers of
        other knobs and do not activate anything on their own.
        """
        return (self.queue_capacity == 0
                and self.job_deadline_s == 0
                and self.aging_factor == 0
                and not self.degraded_es
                and not self.storage_reservations)


class SaturationStats:
    """Mutable saturation counters for one grid run.

    Plain attributes, no simulator events — updating a counter can never
    perturb event order.  (Remote reads are the data mover's own
    counter.)
    """

    __slots__ = ("jobs_shed", "jobs_deflected", "jobs_expired",
                 "degraded_dispatches")

    def __init__(self) -> None:
        #: Jobs refused admission (queues full, deflect budget spent).
        self.jobs_shed = 0
        #: Deflection events (a job may be deflected more than once).
        self.jobs_deflected = 0
        #: Jobs whose queue wait exceeded the deadline.
        self.jobs_expired = 0
        #: Placements decided by the degraded-mode fallback selector.
        self.degraded_dispatches = 0


class AgingScheduler:
    """A Local Scheduler whose queue priorities age linearly.

    Credit grows uniformly with wait time for every queued job, so the
    pairwise order of two queued jobs is fixed once both are enqueued:
    ``base - factor * (now - enqueued_at)`` aging folds into the
    constant key ``base + factor * enqueued_at`` with zero re-sorting.
    Later arrivals pay a growing penalty, so an old large job cannot be
    overtaken forever.  Everything else is the wrapped scheduler's.
    """

    def __init__(self, inner, sim: "Simulator", factor: float) -> None:
        self.inner = inner
        self.sim = sim
        self.factor = factor

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def priority(self, job: "Job") -> Optional[int]:
        priority = self.inner.priority(job)
        if priority is not None:
            priority += int(self.factor * self.sim.now * 1000)
        return priority


class OverloadLayer:
    """The overload layer of one grid: policy, counters, degraded ES.

    Install also arms the storage reservations, the lifecycle engine's
    queue deadline and the Local Schedulers' aging the policy asks for.
    """

    NAME = "overload"

    def __init__(self, sim: "Simulator", grid: "DataGrid",
                 policy: OverloadPolicy,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.grid = grid
        self.policy = policy
        self.stats = SaturationStats()
        #: Last-resort External Scheduler, or ``None``.
        self.degraded_es = None
        if policy.degraded_es:
            from repro.scheduling.registry import make_external_scheduler

            self.degraded_es = make_external_scheduler(
                policy.degraded_es, rng or random.Random(0))
        self.hooks = ("select_fallback",)
        if policy.queue_capacity > 0:
            self.hooks += ("hand_off",)

    def install(self) -> None:
        grid = self.grid
        policy = self.policy
        grid.layers.add(self)
        grid.lifecycle.hooks.append(self.transition)
        if policy.storage_reservations:
            for storage in grid.storages.values():
                storage.reserve_inbound = True
                storage.remote_read_after = policy.remote_read_after
        if policy.aging_factor > 0:
            for site in grid.sites.values():
                site.local_scheduler = AgingScheduler(
                    site.local_scheduler, self.sim, policy.aging_factor)
        # The sites race each queued job against this deadline, and the
        # engine's start edge enforces no-starvation as a guard.
        grid.lifecycle.deadline_of = self.deadline_of

    def deadline_of(self, job: "Job") -> float:
        """The job's queue deadline in seconds (0 = none)."""
        if job.deadline_s is not None:
            return job.deadline_s
        return self.policy.job_deadline_s

    # -- hook points ------------------------------------------------------

    def select_fallback(self, job: "Job") -> Optional[str]:
        """Degraded placement over the usable sites (None: there are none).

        Observed mode must not consult the fault oracle here; the
        breakers are the only site-health knowledge.
        """
        grid = self.grid
        health = grid.layers.health
        observed = health is not None and health.policy.observed_only
        candidates = [name for name in sorted(grid.sites)
                      if grid._usable(name, oracle=not observed)]
        if not candidates:
            return None
        return self.degraded_select(job, candidates)

    def hand_off(self, job: "Job", site_name: str) -> Optional[str]:
        """Deflect a job aimed at a full queue; ``None`` = it was shed.

        Each deflection spends one unit of the deflect budget and
        re-places the job over the *unsaturated* usable sites, so the
        loop always terminates: either the chosen site has room, no site
        has room (shed), or the budget runs out (shed).
        """
        grid = self.grid
        policy = self.policy
        cap = policy.queue_capacity
        while grid.sites[site_name].load >= cap:
            candidates = [name for name, site in sorted(grid.sites.items())
                          if site.load < cap and grid._usable(name)]
            if not candidates or job.deflections >= policy.deflect_budget:
                grid.lifecycle.shed(job, f"queues saturated (capacity "
                                    f"{cap}, {job.deflections} deflections)")
                self.stats.jobs_shed += 1
                return None
            self.stats.jobs_deflected += 1
            target = self.degraded_select(job, candidates)
            grid.lifecycle.deflect(job, origin=site_name, site=target)
            site_name = target
        return site_name

    def transition(self, job: "Job", src: JobState, dst: JobState,
                   edge: str, now: float) -> None:
        if dst is JobState.EXPIRED:
            self.stats.jobs_expired += 1

    def degraded_select(self, job: "Job", candidates: List[str]) -> str:
        """Place a job with the last-resort selector.

        Tries the configured degraded ES first; if it is absent, wedges
        too, or picks outside ``candidates``, falls back to the
        deterministic least-loaded (then lexicographic) scan.
        """
        grid = self.grid
        self.stats.degraded_dispatches += 1
        choice = None
        if self.degraded_es is not None:
            try:
                pick = self.degraded_es.select_site(job, grid)
            except ValueError:
                pick = None
            if pick in candidates:
                choice = pick
        if choice is None:
            choice = min(candidates, key=lambda s: (grid.sites[s].load, s))
        if grid.tracer is not None:
            grid.tracer.emit(
                self.sim.now, "es.degraded", job=job.job_id, site=choice,
                es=self.policy.degraded_es or "least-loaded")
        return choice
