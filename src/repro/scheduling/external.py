"""The paper's four External Scheduler algorithms (§4).

Each algorithm picks the execution site for a freshly submitted job:

* :class:`JobRandom` — "a randomly selected site".
* :class:`JobLeastLoaded` — "the site that currently has the least load",
  load being "the least number of jobs waiting to run".
* :class:`JobDataPresent` — "a site that already has the required data.
  If more than one site qualifies choose the least loaded one."
* :class:`JobLocal` — "always run jobs locally."

In every case the site mechanism fetches any missing input before the
compute phase starts.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List

from repro.scheduling.base import ExternalScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.grid import DataGrid
    from repro.grid.job import Job


class JobRandom(ExternalScheduler):
    """Dispatch each job to a uniformly random site."""

    name = "JobRandom"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def select_site(self, job: "Job", grid: "DataGrid") -> str:
        names = grid.info.site_names
        if not names:
            raise ValueError("no candidate sites")
        site = self.rng.choice(names)
        if grid.tracer is not None:
            self._trace_decision(grid, job, site, candidates=list(names))
        return site


class JobLeastLoaded(ExternalScheduler):
    """Dispatch each job to the currently least-loaded site.

    Ties are broken uniformly at random; with deterministic tie-breaking
    every idle-start experiment would dogpile the alphabetically first
    site.
    """

    name = "JobLeastLoaded"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def select_site(self, job: "Job", grid: "DataGrid") -> str:
        site = grid.info.least_loaded(rng=self.rng)
        if grid.tracer is not None:
            self._trace_decision(grid, job, site, scores=grid.info.loads())
        return site


class JobDataPresent(ExternalScheduler):
    """Dispatch each job to a site that already holds its input data.

    Among qualifying sites the least loaded wins (random tie-break).  A
    site counts as qualifying if it holds *all* the job's inputs; if none
    does (possible only for multi-input extension workloads), the site
    holding the largest share of the input bytes is used, so the fetch the
    mechanism performs is as small as possible.
    """

    name = "JobDataPresent"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def select_site(self, job: "Job", grid: "DataGrid") -> str:
        candidates = grid.info.sites_with_all(job.input_files)
        if candidates:
            site = grid.info.least_loaded(candidates, rng=self.rng)
            if grid.tracer is not None:
                self._trace_decision(
                    grid, job, site, candidates=list(candidates),
                    scores={c: grid.info.load(c) for c in candidates})
            return site
        site = self._most_bytes_present(job, grid)
        if grid.tracer is not None:
            self._trace_decision(grid, job, site, candidates=[],
                                 fallback="most-bytes-present")
        return site

    def _most_bytes_present(self, job: "Job", grid: "DataGrid") -> str:
        # The per-site byte index walks only the replicas of the job's own
        # inputs — O(inputs × replicas) instead of the old O(sites ×
        # inputs) full-grid rescan.  Queried through the information
        # service so a stale catalog view answers when one is configured.
        present = grid.info.bytes_present_by_site(
            job.input_files,
            sizes={f: grid.datasets.get(f).size_mb
                   for f in job.input_files})
        if not present:
            # No input is present anywhere: every site ties at zero bytes.
            return grid.info.least_loaded(rng=self.rng)
        best_bytes = max(present.values())
        best_sites: List[str] = sorted(
            site for site, mb in present.items() if mb == best_bytes)
        if len(best_sites) > 1:
            try:
                return grid.info.least_loaded(best_sites, rng=self.rng)
            except ValueError:
                # Every tied site is marked down; hand the first back and
                # let the fault-recovery redirect machinery resolve it.
                return best_sites[0]
        return best_sites[0]


class JobLocal(ExternalScheduler):
    """Run every job at the submitting user's own site."""

    name = "JobLocal"

    def select_site(self, job: "Job", grid: "DataGrid") -> str:
        if grid.tracer is not None:
            self._trace_decision(grid, job, job.origin_site, reason="origin")
        return job.origin_site


class JobHealthFiltered(ExternalScheduler):
    """Wrap any ES with circuit-breaker awareness (extension).

    The information service already hides suspected sites from the
    shared site list, so list-driven schedulers avoid tripped sites for
    free.  This wrapper closes the remaining gap: choices made outside
    that list (``JobLocal``'s origin site, a data-present hit on a
    tripped replica holder) are vetoed when the site's breaker is open,
    and the job is re-routed to the least-loaded site the health
    monitor still allows.  With no health monitor installed the wrapper
    is a transparent pass-through.
    """

    def __init__(self, inner: ExternalScheduler, rng: random.Random) -> None:
        self.inner = inner
        self.rng = rng
        self.name = f"{inner.name}+Health"

    def select_site(self, job: "Job", grid: "DataGrid") -> str:
        site = self.inner.select_site(job, grid)
        health = grid.layers.health
        if health is None or health.allows(site):
            return site
        allowed = sorted(
            name for name in grid.info.site_names
            if name != site and health.allows(name))
        if not allowed:
            # Every breaker is open; keep the original pick and let the
            # dispatch/recovery machinery absorb the failure.
            return site
        try:
            fallback = grid.info.least_loaded(allowed, rng=self.rng)
        except ValueError:
            return site
        if grid.tracer is not None:
            self._trace_decision(grid, job, fallback, vetoed=site,
                                 reason="breaker-open")
        return fallback


class JobRoundRobin(ExternalScheduler):
    """Cycle through sites in order (extension).

    Deliberately *stateful*: under the §3 mapping study, one central
    round-robin scheduler spreads jobs perfectly while per-site instances
    each run their own cycle — the simplest scheduler for which the
    user→ES mapping is observable.
    """

    name = "JobRoundRobin"

    def __init__(self) -> None:
        self._next = 0

    def select_site(self, job: "Job", grid: "DataGrid") -> str:
        sites = grid.info.site_names
        site = sites[self._next % len(sites)]
        self._next += 1
        if grid.tracer is not None:
            self._trace_decision(grid, job, site, cursor=self._next - 1)
        return site
