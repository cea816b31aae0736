"""Stale-information modelling: delayed catalogs and info policies.

The paper measures its schedulers against a *perfect* oracle: the
:class:`~repro.grid.info.InformationService` answers every replica-location
query from the live catalog.  Real Data Grid services (Globus MDS, NWS,
replica-location services) propagate state with delay, so a scheduler's
real robustness test is how gracefully it degrades when the view it plans
against is minutes behind the truth.  This module supplies that model:

* :class:`InfoPolicy` — one frozen bundle of every information-quality
  knob (load-snapshot refresh interval, catalog propagation delay, query
  timeout, misdirection bounce budget), replacing the loose
  ``refresh_interval_s`` float that used to be the only staleness control.
* :class:`StaleReplicaView` — a bounded-staleness mirror of the
  :class:`~repro.grid.catalog.ReplicaCatalog`.  It subscribes to catalog
  membership changes and makes each one visible only ``delay_s`` simulated
  seconds later.  Updates are applied *lazily* at query time from a FIFO
  of pending operations, so the view adds **no simulator events** — a
  stale run processes the exact same event sequence as a live run and
  stays bitwise-deterministic across worker counts and cache replays.

The view also keeps the misdirection accounting (jobs dispatched on
phantom replicas, bounced re-dispatches, stale reads served) so the
metrics layer has one place to look.  As the grid's ``staleness`` layer
(:mod:`repro.grid.layers`) it resolves misdirected dispatches at
hand-off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Mapping, \
    NamedTuple, Optional, Set

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.catalog import ReplicaCatalog
    from repro.grid.grid import DataGrid
    from repro.grid.job import Job
    from repro.sim.core import Simulator

#: Shared immutable empty result for queries about unknown names/sites.
_EMPTY_SET: frozenset = frozenset()


@dataclass(frozen=True)
class InfoPolicy:
    """Information-quality policy for one grid.

    Attributes
    ----------
    refresh_interval_s:
        Load-snapshot staleness: 0 serves live site loads; > 0 serves
        snapshots refreshed periodically (MDS/NWS cache TTL).
    catalog_delay_s:
        Replica-catalog propagation delay: 0 serves the live catalog;
        > 0 routes scheduler replica queries through a
        :class:`StaleReplicaView` that lags the truth by this much.
    query_timeout_s:
        Optional query-timeout fallback: when > 0, a site marked stale
        (:meth:`~repro.grid.info.InformationService.mark_stale`) has its
        load served from the last-known value until the entry is older
        than this, modelling an info query that times out and falls back
        to cached data.
    bounce_budget:
        How many times a misdirected job (dispatched on a phantom
        replica) may be bounced back to the External Scheduler for
        re-dispatch before the site simply fetches the data remotely.
    """

    refresh_interval_s: float = 0.0
    catalog_delay_s: float = 0.0
    query_timeout_s: float = 0.0
    bounce_budget: int = 1

    def __post_init__(self) -> None:
        if self.refresh_interval_s < 0:
            raise ValueError(
                f"refresh interval must be >= 0, "
                f"got {self.refresh_interval_s!r}")
        if self.catalog_delay_s < 0:
            raise ValueError(
                f"catalog delay must be >= 0, got {self.catalog_delay_s!r}")
        if self.query_timeout_s < 0:
            raise ValueError(
                f"query timeout must be >= 0, got {self.query_timeout_s!r}")
        if self.bounce_budget < 0:
            raise ValueError(
                f"bounce budget must be >= 0, got {self.bounce_budget!r}")

    @property
    def is_live(self) -> bool:
        """True when every query is answered from live state."""
        return (self.refresh_interval_s == 0
                and self.catalog_delay_s == 0
                and self.query_timeout_s == 0)


_REGISTER = 0
_DEREGISTER = 1


class _PendingOp(NamedTuple):
    visible_at: float
    op: int
    dataset: str
    site: str
    size_mb: float


class StaleReplicaView:
    """A replica-catalog mirror that lags the truth by a fixed delay.

    Subscribes to the catalog (:meth:`on_register`/:meth:`on_deregister`)
    and queues each membership change with ``visible_at = now + delay_s``;
    queued changes are folded into the visible state lazily at the start
    of every query.  Because catalog mutations happen in nondecreasing
    simulated time and the delay is constant, the pending queue is always
    sorted — one FIFO, no heap, no simulator events.

    The *mechanism* layer (data mover source selection, storage, fault
    recovery) keeps using the live catalog; only scheduler-facing queries
    go through this view, exactly as a real grid's brokers consult a
    replica-location service while the transfer service moves real files.
    """

    NAME = "staleness"
    hooks = ("hand_off", "placement")

    def __init__(self, sim: "Simulator", catalog: "ReplicaCatalog",
                 delay_s: float) -> None:
        if delay_s <= 0:
            raise ValueError(
                f"stale view needs a positive delay, got {delay_s!r}")
        self.sim = sim
        self.catalog = catalog
        self.delay_s = delay_s
        # Start from the catalog's current state (normally empty: the view
        # is wired before initial placement, and placement warm-syncs).
        self._locations: Dict[str, Set[str]] = {}
        self._site_index: Dict[str, Dict[str, float]] = {}
        for name, site, size_mb in catalog.replica_records():
            self._locations.setdefault(name, set()).add(site)
            self._site_index.setdefault(site, {})[name] = size_mb
        self._pending: Deque[_PendingOp] = deque()
        #: Queries whose (stale) answer differed from the live catalog.
        self.stale_reads = 0
        #: Jobs dispatched to a site whose promised replica was not there.
        self.misdirected_jobs = 0
        #: Misdirected jobs bounced back to the ES for re-dispatch.
        self.bounced_jobs = 0
        #: Domain-event tracer (None = tracing off; set by grid wiring).
        self.tracer = None
        #: The grid whose dispatches this view vets (None standalone).
        self.grid: Optional["DataGrid"] = None

    def install(self) -> None:
        self.tracer = self.grid.tracer
        self.grid.layers.add(self)

    # -- hook points ------------------------------------------------------------

    def hand_off(self, job: "Job", site_name: str) -> str:
        """Detect and recover a dispatch aimed at a phantom replica.

        Under a stale catalog view the ES may send a job to a site whose
        promised replica was evicted (or never arrived).  The destination
        notices the miss at hand-off: each promised input (one the stale
        view locates there) is checked against the live catalog.  The
        grid then either *bounces* the job back to the ES for one
        re-dispatch — after reconciling the phantom records, so the
        second choice is made against corrected information — or, once
        the bounce budget is spent, lets the job proceed and fall back to
        a remote fetch via the data mover.  Every hop is synchronous: no
        simulated time passes, matching the model's zero-cost dispatch.
        """
        grid = self.grid
        budget = grid.info.policy.bounce_budget
        while True:
            missing = [name for name in job.input_files
                       if self.has_replica(name, site_name)
                       and not self.catalog.has_replica(name, site_name)]
            if not missing:
                return site_name
            self.misdirected_jobs += 1
            grid.lifecycle.misdirected(job, site_name, missing)
            for name in missing:
                self.reconcile(name, site_name)
            if job.bounces >= budget:
                return site_name
            candidate = grid.external_scheduler.select_site(job, grid)
            if candidate not in grid.sites:
                raise ValueError(
                    f"{grid.external_scheduler!r} chose unknown site "
                    f"{candidate!r}")
            if not grid._usable(candidate):
                # Bouncing onto a dead site (or one its breaker says is
                # unhealthy) would trade one phantom for another; keep
                # the original choice and fetch remotely.
                return site_name
            self.bounced_jobs += 1
            grid.lifecycle.bounce(job, origin=site_name, site=candidate)
            site_name = candidate

    # -- catalog listener protocol ---------------------------------------------

    def on_register(self, dataset: str, site: str, size_mb: float) -> None:
        """Catalog callback: a replica appeared (visible after the delay)."""
        self._pending.append(_PendingOp(
            self.sim.now + self.delay_s, _REGISTER, dataset, site, size_mb))

    def on_deregister(self, dataset: str, site: str) -> None:
        """Catalog callback: a replica vanished (visible after the delay)."""
        self._pending.append(_PendingOp(
            self.sim.now + self.delay_s, _DEREGISTER, dataset, site, 0.0))

    # -- pending-queue machinery -------------------------------------------------

    def _apply(self, op: _PendingOp) -> None:
        if op.op == _REGISTER:
            self._locations.setdefault(op.dataset, set()).add(op.site)
            self._site_index.setdefault(op.site, {})[op.dataset] = op.size_mb
        else:
            holders = self._locations.get(op.dataset)
            if holders is not None:
                holders.discard(op.site)
            held = self._site_index.get(op.site)
            if held is not None:
                held.pop(op.dataset, None)

    def _sync(self) -> None:
        """Fold in every pending change that has become visible."""
        pending = self._pending
        if not pending:
            return
        now = self.sim.now
        while pending and pending[0].visible_at <= now:
            self._apply(pending.popleft())

    def sync_all(self) -> None:
        """Force-apply *every* pending change (pre-run warm start).

        Initial replica placement happens before the workload runs; the
        schedulers are entitled to know the configured starting
        distribution, so the grid calls this after placement rather than
        making the first ``delay_s`` seconds of every run informationless.
        """
        pending = self._pending
        while pending:
            self._apply(pending.popleft())

    placement = sync_all

    def reconcile(self, dataset: str, site: str) -> None:
        """Force the view's record for one (dataset, site) pair to truth.

        Used by misdirection recovery: once a site reports a promised
        replica missing, the grid corrects that single entry — like a
        broker purging a record the storage element just contradicted —
        so a bounced job is not re-dispatched onto the same phantom.
        Pending updates for the pair are dropped (they are superseded).
        """
        if self._pending:
            self._pending = deque(
                p for p in self._pending
                if p.dataset != dataset or p.site != site)
        size_mb = self.catalog.replica_size_mb(dataset, site)
        if size_mb is None:
            self._apply(_PendingOp(0.0, _DEREGISTER, dataset, site, 0.0))
        else:
            self._apply(_PendingOp(0.0, _REGISTER, dataset, site, size_mb))

    def pending_count(self) -> int:
        """Catalog changes queued but not yet visible (introspection)."""
        self._sync()
        return len(self._pending)

    # -- stale-read accounting ----------------------------------------------------

    def _note(self, query: str, dataset: str, stale: bool) -> None:
        if not stale:
            return
        self.stale_reads += 1
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "info.stale_read",
                             query=query, dataset=dataset)

    # -- queries (mirror the catalog's scheduler-facing API) ---------------------

    def locations(self, dataset_name: str) -> List[str]:
        """Sites believed to hold the dataset (sorted for determinism)."""
        self._sync()
        seen = sorted(self._locations.get(dataset_name, ()))
        self._note("locations", dataset_name,
                   seen != self.catalog.locations(dataset_name))
        return seen

    def location_set(self, dataset_name: str) -> Set[str]:
        """The believed holder set (shared, read-only — do not mutate)."""
        self._sync()
        seen = self._locations.get(dataset_name, _EMPTY_SET)
        self._note("location_set", dataset_name,
                   seen != self.catalog.location_set(dataset_name))
        return seen

    def has_replica(self, dataset_name: str, site: str) -> bool:
        """Whether the view believes ``site`` holds ``dataset_name``."""
        self._sync()
        seen = site in self._locations.get(dataset_name, _EMPTY_SET)
        self._note("has_replica", dataset_name,
                   seen != self.catalog.has_replica(dataset_name, site))
        return seen

    def replica_count(self, dataset_name: str) -> int:
        """Believed number of replicas of the dataset."""
        self._sync()
        seen = len(self._locations.get(dataset_name, _EMPTY_SET))
        self._note("replica_count", dataset_name,
                   seen != self.catalog.replica_count(dataset_name))
        return seen

    def bytes_present_by_site(
        self,
        dataset_names: Iterable[str],
        sizes: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Believed MB of the named datasets present per site.

        Same contract as
        :meth:`~repro.grid.catalog.ReplicaCatalog.bytes_present_by_site`;
        the per-site accumulation follows ``dataset_names`` order, so the
        float sums are reproducible regardless of set iteration order.
        """
        self._sync()
        names = list(dataset_names)
        present: Dict[str, float] = {}
        for name in names:
            holders = self._locations.get(name)
            if not holders:
                continue
            for site in holders:
                if sizes is not None:
                    size = sizes[name]
                else:
                    size = self._site_index[site][name]
                present[site] = present.get(site, 0.0) + size
        self._note("bytes_present_by_site", ",".join(names),
                   present != self.catalog.bytes_present_by_site(
                       names, sizes=sizes))
        return present

    # -- invariants ---------------------------------------------------------------

    def audit(self) -> List[str]:
        """Check the bounded-staleness contract; returns problem strings.

        The watchdog calls this: replaying every pending change over the
        visible state must reproduce the live catalog exactly (the view
        never invents or loses an update), and no pending change may be
        scheduled further than ``delay_s`` into the future.
        """
        problems: List[str] = []
        horizon = self.sim.now + self.delay_s + 1e-9
        replay: Dict[str, Set[str]] = {
            name: set(sites) for name, sites in self._locations.items()}
        for op in self._pending:
            if op.visible_at > horizon:
                problems.append(
                    f"pending update for {op.dataset!r}@{op.site!r} visible "
                    f"at {op.visible_at:.3f}, beyond the staleness bound "
                    f"{horizon:.3f}")
            holders = replay.setdefault(op.dataset, set())
            if op.op == _REGISTER:
                holders.add(op.site)
            else:
                holders.discard(op.site)
        live: Dict[str, Set[str]] = {}
        for name, site, _size in self.catalog.replica_records():
            live.setdefault(name, set()).add(site)
        for name in sorted(set(replay) | set(live)):
            seen = replay.get(name, _EMPTY_SET)
            truth = live.get(name, _EMPTY_SET)
            if set(seen) != set(truth):
                problems.append(
                    f"view+pending disagrees with catalog for {name!r}: "
                    f"view would converge to {sorted(seen)}, "
                    f"catalog holds {sorted(truth)}")
        return problems
