"""The DataGrid aggregate: wiring and the submission entry point.

A :class:`DataGrid` owns every mechanism component (network, catalog,
storage, sites, data mover, information service) plus the chosen policies
(one External Scheduler, one Local Scheduler per site — all identical in
the paper — and one Dataset Scheduler attached per site).  Optional
layers plug in through the hook points of :mod:`repro.grid.layers`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.grid.catalog import ReplicaCatalog
from repro.grid.compute import ComputeElement
from repro.grid.datamover import DataMover
from repro.grid.files import DatasetCollection
from repro.grid.info import InformationService
from repro.grid.job import Job, JobState
from repro.grid.layers import Layers, build as build_layers
from repro.grid.lifecycle import TransitionEngine
from repro.grid.site import Site
from repro.grid.storage import StorageElement
from repro.grid.user import User
from repro.network.topology import Topology
from repro.network.transfer import TransferManager
from repro.sim.core import Simulator
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.base import (
        DatasetScheduler,
        ExternalScheduler,
        LocalScheduler,
    )
    from repro.sim.trace import Tracer


class DataGrid:
    """A fully wired Data Grid ready to accept jobs.

    Use :meth:`create` unless you need to substitute custom components.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        transfers: TransferManager,
        catalog: ReplicaCatalog,
        datasets: DatasetCollection,
        storages: Dict[str, StorageElement],
        sites: Dict[str, Site],
        info: InformationService,
        datamover: DataMover,
        external_scheduler: "ExternalScheduler",
        dataset_scheduler: "DatasetScheduler",
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.transfers = transfers
        self.catalog = catalog
        self.datasets = datasets
        self.storages = storages
        self.sites = sites
        self.info = info
        self.datamover = datamover
        self.external_scheduler = external_scheduler
        self.dataset_scheduler = dataset_scheduler
        self.users: List[User] = []
        #: Every job ever submitted, in submission order.
        self.submitted_jobs: List[Job] = []
        #: The single authority for job state changes: every component of
        #: this grid (submission, sites, supervisor, overload/staleness
        #: recovery) drives jobs through this engine — never by mutating
        #: ``job.state`` directly.  Sites share the grid's engine so the
        #: per-state counts cover the whole system.
        self.lifecycle = TransitionEngine(sim)
        for site in sites.values():
            site.lifecycle = self.lifecycle
        #: The armed optional layers and the hook points they fill
        #: (shared with the data mover; empty until :meth:`create`
        #: installs a layer).
        self.layers = Layers()
        datamover.layers = self.layers
        #: Domain-event tracer (``None`` = tracing off, the default).
        #: Installed by :meth:`create`; every emission in the grid is gated
        #: on this staying ``None`` so an untraced run pays one attribute
        #: check and is bitwise-identical to a pre-tracing build.
        self.tracer: Optional["Tracer"] = None
        #: Runtime invariant watchdog (``None`` = off, the default;
        #: installed by :meth:`create` when ``watchdog_interval_s`` > 0).
        self.watchdog = None
        #: Open-loop arrival stream (``None`` = the paper's closed-loop
        #: users).  When set, :meth:`run` drives this instead of users.
        self.arrivals = None
        #: DAG workload driver (``None`` = no inter-job dependencies).
        #: When set, :meth:`run` drives this instead of users/arrivals.
        self.dag = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        sim: Simulator,
        topology: Topology,
        datasets: DatasetCollection,
        external_scheduler: "ExternalScheduler",
        local_scheduler: "LocalScheduler",
        dataset_scheduler: "DatasetScheduler",
        site_processors: Dict[str, int],
        storage_capacity_mb: float = float("inf"),
        datamover_rng: Optional[random.Random] = None,
        info_refresh_interval_s: float = 0.0,
        info_policy=None,
        allocator=None,
        fault_plan=None,
        fault_rng: Optional[random.Random] = None,
        tracer: Optional["Tracer"] = None,
        watchdog_interval_s: float = 0.0,
        overload_policy=None,
        overload_rng: Optional[random.Random] = None,
        health_policy=None,
        health_rng: Optional[random.Random] = None,
        durability_policy=None,
        durability_rng: Optional[random.Random] = None,
    ) -> "DataGrid":
        """Build and wire a grid over ``topology``.

        ``site_processors`` maps each site name to its processor count
        (paper: 2–5 per site).  Every site gets ``storage_capacity_mb`` of
        LRU-managed storage.  ``info_policy`` (an
        :class:`~repro.grid.staleness.InfoPolicy`) takes precedence over
        the ``info_refresh_interval_s`` shorthand.  Each non-null policy
        (``fault_plan``, ``overload_policy``, ``health_policy``,
        ``durability_policy``) arms its optional layer, seeded by the
        matching ``*_rng`` stream, and ``watchdog_interval_s`` > 0 the
        runtime invariant watchdog (see :func:`repro.grid.layers.build`).
        """
        topology.validate()
        missing = set(topology.sites) - set(site_processors)
        if missing:
            raise ValueError(f"no processor counts for sites {sorted(missing)}")

        transfers = TransferManager(sim, topology, allocator=allocator)
        catalog = ReplicaCatalog()
        storages: Dict[str, StorageElement] = {}
        for name in topology.sites:
            storages[name] = StorageElement(
                name, storage_capacity_mb,
                on_evict=(lambda ds, _site=name:
                          catalog.deregister(ds.name, _site)))
        datamover = DataMover(sim, transfers, catalog, datasets, storages,
                              rng=datamover_rng)
        sites: Dict[str, Site] = {}
        for name in topology.sites:
            compute = ComputeElement(
                sim, name, site_processors[name],
                priority_queue=local_scheduler.uses_priorities)
            sites[name] = Site(sim, name, compute, storages[name],
                               datamover, local_scheduler)
        info = InformationService(sim, sites, catalog,
                                  refresh_interval_s=info_refresh_interval_s,
                                  policy=info_policy)
        grid = cls(sim, topology, transfers, catalog, datasets, storages,
                   sites, info, datamover, external_scheduler,
                   dataset_scheduler)
        if tracer is not None:
            grid.tracer = tracer
            grid.lifecycle.tracer = tracer
            datamover.tracer = tracer
            transfers.tracer = tracer
            catalog.set_tracer(tracer, sim)
            for site in sites.values():
                site.tracer = tracer
        for site in sites.values():
            dataset_scheduler.attach(site, grid)
        for layer in build_layers(
                sim, grid, fault_plan=fault_plan, fault_rng=fault_rng,
                overload_policy=overload_policy, overload_rng=overload_rng,
                health_policy=health_policy, health_rng=health_rng,
                durability_policy=durability_policy,
                durability_rng=durability_rng,
                watchdog_interval_s=watchdog_interval_s):
            layer.install()
        return grid

    # -- data placement ----------------------------------------------------------

    def place_initial_replica(self, dataset_name: str, site: str) -> None:
        """Install the primary copy of a dataset at a site.

        Primary copies are permanently pinned: the paper's model always has
        at least one replica of every dataset, so LRU caching must never
        evict the last copy.
        """
        dataset = self.datasets.get(dataset_name)
        self.storages[site].add(dataset, self.sim.now, pin=True)
        self.catalog.register(dataset_name, site, size_mb=dataset.size_mb)
        for layer in self.layers.placement:
            layer.placement()

    def place_initial_replicas(self, mapping: Dict[str, str],
                               headroom_mb: Optional[float] = None) -> None:
        """Install primary copies for many datasets (name → site).

        Placement is capacity-aware: primaries are pinned forever, so every
        site must keep ``headroom_mb`` of space free for working files
        (default: the largest dataset in the grid — enough to cache at
        least one input).  A mapped site without room deterministically
        overflows to the site with the most free space; datasets are placed
        largest-first so overflow is rare and reproducible.
        """
        if headroom_mb is None:
            headroom_mb = max(
                (self.datasets.get(n).size_mb for n in mapping), default=0.0)
        by_size = sorted(
            mapping.items(),
            key=lambda kv: (-self.datasets.get(kv[0]).size_mb, kv[0]))
        for name, site in by_size:
            size = self.datasets.get(name).size_mb
            if self.storages[site].free_mb - size < headroom_mb:
                site = max(
                    sorted(self.storages),
                    key=lambda s: self.storages[s].free_mb)
                if self.storages[site].free_mb - size < headroom_mb:
                    raise ValueError(
                        f"grid storage too small: no site can hold the "
                        f"primary copy of {name!r} ({size:.0f} MB) while "
                        f"keeping {headroom_mb:.0f} MB of working space")
            self.place_initial_replica(name, site)

    # -- operation ----------------------------------------------------------------

    def submit(self, job: Job, site_hint: Optional[str] = None) -> Process:
        """Submit a job: ES picks the site, the site executes it.

        Returns the execution process (triggers with the job when done).
        An ``admit`` layer (fault recovery) returns a supervisor process
        instead, which re-dispatches the job when an outage kills it, so
        callers (users) still simply wait for one process per job.

        ``site_hint`` (bulk submission) bypasses the ES for the initial
        placement — the job still passes misdirection and saturation
        resolution, so a hinted job can end up elsewhere.
        """
        self.lifecycle.submit(job)
        self.submitted_jobs.append(job)
        for layer in self.layers.admit:
            # The first admit layer takes the job over and places it.
            return layer.admit(job, site_hint)
        if site_hint is not None and site_hint in self.sites:
            site_name = site_hint
        else:
            site_name = self._select_site(job)
        site_name = self._hand_off(job, site_name)
        if site_name is None:
            return self.sim.process(self._shed_process(job),
                                    name=f"shed:job{job.job_id}")
        self.lifecycle.dispatch(job, site_name)
        return self.sites[site_name].enqueue(job)

    def submit_bulk(self, jobs: List[Job]) -> List[Process]:
        """Submit a batch with batch-level placement (DIANA-style).

        Jobs sharing an input-set signature are placed together: the
        first member of each group is placed by the External Scheduler as
        usual, and the rest are hinted to the site it landed on — one ES
        decision per group instead of one per job.  Under an ``admit``
        layer placement is asynchronous, so hints are skipped and every
        member is placed individually by its supervisor.

        Returns one execution process per job, in input order.
        """
        procs: List[Process] = []
        leaders: Dict[tuple, Optional[str]] = {}
        for job in jobs:
            signature = tuple(sorted(set(job.input_files)))
            procs.append(self.submit(job, site_hint=leaders.get(signature)))
            if signature not in leaders and not self.layers.admit:
                # A shed leader records None: followers fall back to
                # individual ES placement rather than piling onto the
                # saturated choice.
                leaders[signature] = job.execution_site
        return procs

    def abandon(self, job: Job, reason: str) -> None:
        """Fail a WAITING job whose dependency ended badly (DAG cascade).

        The job never reaches the External Scheduler but is accounted and
        traced like any other permanent failure, so conservation checks
        and metrics see it.
        """
        self.submitted_jobs.append(job)
        self.lifecycle.abandon(job, reason)

    def _select_site(self, job: Job) -> str:
        """Ask the primary ES for a site, with a layer's fallback.

        A primary that *wedges* (raises ``ValueError``: no candidate) is
        answered by the first ``select_fallback`` layer that places the
        job; when none does, the error propagates.
        """
        try:
            site_name = self.external_scheduler.select_site(job, self)
        except ValueError:
            for layer in self.layers.select_fallback:
                fallback = layer.select_fallback(job)
                if fallback is not None:
                    return fallback
            raise
        if site_name not in self.sites:
            raise ValueError(
                f"{self.external_scheduler!r} chose unknown site "
                f"{site_name!r}")
        return site_name

    def _usable(self, name: str, oracle: bool = True) -> bool:
        """Whether work may be placed at a site: every ``usable`` layer
        agrees (``oracle=False`` keeps the fault oracle out of it)."""
        return all(layer.usable(name, oracle) for layer in self.layers.usable)

    def _hand_off(self, job: Job, site_name: str) -> Optional[str]:
        """The destination's acceptance check before a dispatch.

        Each ``hand_off`` layer may move the job (a misdirected dispatch,
        a full queue).  Returns the site the job goes to, or ``None``
        after a layer shed it.
        """
        for layer in self.layers.hand_off:
            site_name = layer.hand_off(job, site_name)
            if site_name is None:
                break
        return site_name

    @staticmethod
    def _shed_process(job: Job):
        """An already-finished execution process for a shed job.

        Returning before the first yield is legal for the kernel; callers
        waiting on the submission see it complete immediately with the
        (terminal) job as its value.
        """
        return job
        yield  # pragma: no cover - unreachable; makes this a generator

    def add_user(self, user: User) -> None:
        """Register a user (started by :meth:`run`)."""
        self.users.append(user)

    def run(self) -> float:
        """Start all users and run until every user finishes.

        Returns the makespan (time of the last job completion).  The
        simulation itself is then drained of the remaining bookkeeping
        events, but periodic Dataset Scheduler loops are not awaited (they
        are infinite); time stops advancing once the last *triggering*
        activity completes because we stop at the all-users event.
        """
        if self.dag is not None:
            # DAG mode: the driver releases jobs as their parents finish
            # and completes once every job settled.
            self.sim.run(until=self.dag.start())
            return self.sim.now
        if self.arrivals is not None:
            # Open-loop mode: the arrival driver completes when the last
            # submitted job finishes (or is shed/expired/failed).
            self.sim.run(until=self.arrivals.start())
            return self.sim.now
        if not self.users:
            raise ValueError("no users added to the grid")
        processes = [user.start() for user in self.users]
        done = self.sim.all_of(processes)
        self.sim.run(until=done)
        return self.sim.now

    # -- convenience metrics -------------------------------------------------------

    @property
    def completed_jobs(self) -> List[Job]:
        """All jobs that reached DONE."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.DONE]

    @property
    def failed_jobs(self) -> List[Job]:
        """Jobs given up on by fault recovery (empty in fault-free runs)."""
        return [j for j in self.submitted_jobs if j.state is JobState.FAILED]

    @property
    def shed_jobs(self) -> List[Job]:
        """Jobs refused admission under overload (empty without a policy)."""
        return [j for j in self.submitted_jobs if j.state is JobState.SHED]

    @property
    def expired_jobs(self) -> List[Job]:
        """Jobs whose queue deadline passed (empty without a policy)."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.EXPIRED]

    @property
    def speculated_jobs(self) -> List[Job]:
        """Attempts that lost a speculation race (terminal; the logical
        job completed through the other attempt)."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.SPECULATED]

    @property
    def abandoned_jobs(self) -> List[Job]:
        """Jobs retired because an input dataset was unrecoverably lost
        (empty without the durability layer)."""
        return [j for j in self.submitted_jobs
                if j.state is JobState.ABANDONED_DATA_LOST]

    @property
    def total_processors(self) -> int:
        """Sum of processor counts across sites."""
        return sum(s.compute.n_processors for s in self.sites.values())
