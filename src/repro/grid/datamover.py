"""The data mover: fetch-before-execute and asynchronous replication.

Stand-in for GASS-style grid data movement (paper ref [12]).  All movement
funnels through :meth:`DataMover.ensure_local`:

* **Job fetches** ("any data required to run a job is fetched locally
  before the task is run if it is not already present", §4) pin the file
  for the duration of the job so LRU eviction cannot pull it out from
  under a running computation.
* **Replications** (the Dataset Scheduler's asynchronous pushes) are
  unpinned cached replicas.

Concurrent requests for the same (site, dataset) pair share one wire
transfer — without this, a popular dataset would be fetched once per queued
job and the traffic numbers would be meaningless.  Optional layers act on
a fetch through the hook points of :mod:`repro.grid.layers`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, AbstractSet, Dict, FrozenSet, Optional, Tuple

from repro.grid.catalog import ReplicaCatalog
from repro.grid.files import DatasetCollection
from repro.grid.layers import Layers
from repro.grid.storage import StorageElement, StorageFullError
from repro.network.transfer import TransferManager
from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.process import Process

_EMPTY: FrozenSet[str] = frozenset()

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.site import Site


class DataUnavailableError(Exception):
    """No replica of a required dataset exists anywhere in the grid."""


class RemoteReadMB(float):
    """MB moved by a degraded *remote read*.

    When a pinned fetch cannot reserve storage for the element's
    ``remote_read_after`` retry rounds, the bytes are streamed to the job
    without being stored.  The traffic is real (it is a plain float for
    every accounting purpose) but the file was never added or pinned, so
    the site must not unpin it afterwards — hence the distinct type.
    """

    __slots__ = ()


class DataMover:
    """Moves datasets between sites over the contended network.

    Parameters
    ----------
    sim, transfers, catalog, datasets:
        Shared grid infrastructure.
    storages:
        Site name → :class:`StorageElement`.
    rng:
        Stream used for tie-breaking among equally-close source replicas.
    """

    def __init__(
        self,
        sim: Simulator,
        transfers: TransferManager,
        catalog: ReplicaCatalog,
        datasets: DatasetCollection,
        storages: Dict[str, StorageElement],
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.transfers = transfers
        self.catalog = catalog
        self.datasets = datasets
        self.storages = storages
        self.rng = rng or random.Random(0)
        self._inflight: Dict[Tuple[str, str], Event] = {}
        #: Metrics: replications completed / skipped.
        self.replications_done = 0
        self.replications_skipped = 0
        #: Domain-event tracer (None = tracing off; one attribute check).
        self.tracer = None
        #: Metrics (fault mode only): transfer attempts that failed or
        #: stalled, and retries that switched to an alternate replica.
        self.transfers_failed = 0
        self.failovers = 0
        #: Replication pushes skipped because the target raised
        #: :class:`StorageFullError` mid-push (satellite metric).
        self.replications_skipped_full = 0
        #: Pinned fetches degraded to streaming reads (nothing stored).
        self.remote_reads = 0
        #: The armed optional layers and their hook points (a grid shares
        #: its own; a standalone mover has none).
        self.layers = Layers()

    # -- public API ----------------------------------------------------------

    def ensure_local(self, site: str, dataset_name: str, pin: bool = False,
                     purpose: str = "job-fetch",
                     best_effort: bool = False,
                     preferred_source: Optional[str] = None) -> Process:
        """Make ``dataset_name`` present at ``site``.

        Returns a process whose value is the MB of *new* network traffic
        this call initiated (0 if the file was present or the call joined
        an in-flight transfer).  ``preferred_source`` steers the fetch at
        a specific replica when it is viable (repair placement uses
        this); the ordinary closest-replica choice applies otherwise.

        If the site's storage is full of pinned files, a normal call waits
        (retrying periodically) until space frees — pins are bounded by the
        processor count, so space always frees eventually in a sane
        configuration.  A ``best_effort`` call (prefetching, replication)
        gives up instead, returning 0.
        """
        return self.sim.process(
            self._ensure(site, dataset_name, pin, purpose,
                         preferred_source=preferred_source,
                         best_effort=best_effort),
            name=f"fetch:{dataset_name}@{site}")

    def replicate(self, dataset_name: str, from_site: str,
                  to_site: str) -> Process:
        """Asynchronously copy a dataset (Dataset Scheduler push).

        Returns a process whose value is the MB moved (0 if the target
        already held or could not accept the file).  Unlike job fetches the
        copy is best-effort: a target without space simply skips.
        """
        return self.sim.process(
            self._replicate(dataset_name, from_site, to_site),
            name=f"replicate:{dataset_name}->{to_site}")

    def is_inflight(self, site: str, dataset_name: str) -> bool:
        """Whether a transfer of the dataset toward the site is running."""
        return (site, dataset_name) in self._inflight

    # -- internals -----------------------------------------------------------

    def _replicate(self, dataset_name: str, from_site: str, to_site: str):
        dataset = self.datasets.get(dataset_name)
        storage = self.storages[to_site]
        if dataset_name in storage or self.is_inflight(to_site, dataset_name):
            self.replications_skipped += 1
            self._trace_replicate_skip(dataset_name, to_site,
                                       "already-present-or-inflight")
            return 0.0
        for layer in self.layers.replication_veto:
            reason = layer.replication_veto(to_site)
            if reason is not None:
                self.replications_skipped += 1
                self._trace_replicate_skip(dataset_name, to_site, reason)
                return 0.0
        if not storage.can_fit(dataset.size_mb):
            self.replications_skipped += 1
            self._trace_replicate_skip(dataset_name, to_site, "no-space")
            return 0.0
        try:
            moved = yield self.sim.process(
                self._ensure(to_site, dataset_name, pin=False,
                             purpose="replication",
                             preferred_source=from_site, best_effort=True))
        except StorageFullError:
            # An aggressive fault/eviction interleaving can pin the target
            # solid between the can_fit pre-check and the landing.  Skip
            # the push instead of letting the error kill the DS loop.
            self.replications_skipped += 1
            self.replications_skipped_full += 1
            self._trace_replicate_skip(dataset_name, to_site, "storage-full")
            return 0.0
        if moved > 0:
            self.replications_done += 1
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, "replicate.done",
                                 dataset=dataset_name, source=from_site,
                                 site=to_site, size_mb=moved)
        else:
            self.replications_skipped += 1
            self._trace_replicate_skip(dataset_name, to_site, "not-moved")
        return moved

    def _trace_replicate_skip(self, dataset_name: str, to_site: str,
                              reason: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "replicate.skip",
                             dataset=dataset_name, site=to_site,
                             reason=reason)

    #: How long a blocked (storage-full) fetch waits before re-checking.
    RETRY_INTERVAL_S = 30.0
    #: Retries before declaring the configuration broken (storage smaller
    #: than what the site's own pinned working set needs, which no amount
    #: of waiting can fix).  3000 × 30 s = a simulated day of waiting.
    MAX_RETRIES = 3_000

    def _ensure(self, site: str, dataset_name: str, pin: bool, purpose: str,
                preferred_source: Optional[str], best_effort: bool = False):
        dataset = self.datasets.get(dataset_name)
        storage = self.storages[site]
        retries = 0
        while True:
            if dataset_name in storage:
                try:
                    readable = self._local_access(site, dataset_name)
                except DataUnavailableError:
                    if best_effort:
                        return 0.0
                    raise
                if readable:
                    storage.touch(dataset_name, self.sim.now)
                    if pin:
                        storage.pin(dataset_name)
                    if self.tracer is not None:
                        self.tracer.emit(self.sim.now, "fetch.hit", site=site,
                                         dataset=dataset_name,
                                         purpose=purpose, pin=pin)
                    return 0.0
                # A layer rejected the copy (and removed it): fall
                # through to a fresh remote fetch.
            key = (site, dataset_name)
            inflight = self._inflight.get(key)
            if inflight is not None:
                # Join the existing transfer, then re-check (the file could
                # in principle be evicted in the same instant by another
                # arrival; the loop handles that by re-fetching).
                if self.tracer is not None:
                    self.tracer.emit(self.sim.now, "fetch.join", site=site,
                                     dataset=dataset_name, purpose=purpose)
                yield inflight
                continue
            # An element that reserves inbound space promises it *before*
            # the bytes fly: concurrent inbound transfers each hold their
            # own promise, so they can never jointly overcommit the
            # element (the latent can_fit race).  Otherwise pinned files
            # block eviction.  Pins are bounded (one input set per
            # processor + the primary copies), so waiting works unless
            # the configuration is fundamentally too small.
            if not storage.claim(dataset, self.sim.now):
                if best_effort:
                    return 0.0
                retries += 1
                if pin and 0 < storage.remote_read_after <= retries:
                    # Storage is too pinned to promise space; degrade
                    # to streaming the bytes past the cache.
                    moved = yield from self._remote_read(
                        site, dataset, dataset_name, purpose,
                        preferred_source)
                    return moved
                if retries > self.MAX_RETRIES:
                    raise StorageFullError(
                        f"fetch of {dataset_name!r} to {site!r} starved: "
                        f"storage permanently too pinned "
                        f"(capacity {storage.capacity_mb} MB)")
                yield self.sim.timeout(self.RETRY_INTERVAL_S)
                continue
            arrival = Event(self.sim)
            self._inflight[key] = arrival
            try:
                delivered = yield from self._wire_fetch(
                    site, dataset, dataset_name, purpose,
                    preferred_source, best_effort)
                if not delivered:
                    return 0.0
                # A reservation guarantees the landing fits.  Without one,
                # space may have been pinned away while the bytes were in
                # flight; retry the landing rather than dropping the data.
                while True:
                    try:
                        storage.commit_reservation(dataset, self.sim.now)
                        break
                    except StorageFullError:
                        if best_effort:
                            return dataset.size_mb  # traffic was spent
                        retries += 1
                        if retries > self.MAX_RETRIES:
                            raise
                        yield self.sim.timeout(self.RETRY_INTERVAL_S)
                self.catalog.register(dataset_name, site,
                                      size_mb=dataset.size_mb)
            finally:
                # No-op after the landing or without a reservation; on
                # abort/failover/kill paths it returns the promised space
                # to the element.
                storage.release_reservation(dataset_name)
                self._inflight.pop(key, None)
                if not arrival.triggered:
                    arrival.succeed()
            if pin:
                storage.pin(dataset_name)
            return dataset.size_mb

    def _remote_read(self, site: str, dataset, dataset_name: str,
                     purpose: str, preferred_source: Optional[str]):
        """Stream a dataset's bytes to a job without storing them.

        The degraded endpoint of a pinned fetch into a too-pinned element:
        the traffic is paid, nothing lands, nothing is pinned, and the
        catalog is untouched.  Returns :class:`RemoteReadMB`.
        """
        yield from self._wire_fetch(site, dataset, dataset_name, purpose,
                                    preferred_source, best_effort=False)
        self.remote_reads += 1
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "fetch.remote", site=site,
                             dataset=dataset_name, purpose=purpose,
                             size_mb=dataset.size_mb)
        return RemoteReadMB(dataset.size_mb)

    def _wire_fetch(self, site: str, dataset, dataset_name: str,
                    purpose: str, preferred_source: Optional[str],
                    best_effort: bool):
        """Move one dataset's bytes over the network to ``site``.

        Returns ``True`` once the bytes arrive.  Without a ``fetch`` layer
        that is one transfer from the closest replica; a ``fetch`` layer
        (fault recovery) runs the transfer its own way and may also
        return ``False`` (a best-effort fetch gave up) or raise.
        """
        for layer in self.layers.fetch:
            return (yield from layer.fetch(site, dataset, dataset_name,
                                           purpose, preferred_source,
                                           best_effort))
        source = self._pick_source(site, dataset_name, preferred_source)
        transfer = self.transfers.start(
            source, site, dataset.size_mb, purpose=purpose,
            metadata={"dataset": dataset_name})
        yield transfer.done
        # Only the fault plan corrupts replicas, so there is no source
        # taint to check the bytes against here.
        return self._delivered(source, site, dataset_name, tainted=False)

    def _local_access(self, site: str, dataset_name: str) -> bool:
        """Whether a resident copy may be read (every ``local_access``
        layer agrees); a layer raises :class:`DataUnavailableError` when
        no readable copy exists anywhere."""
        for layer in self.layers.local_access:
            if not layer.local_access(site, dataset_name):
                return False
        return True

    def _transfer_start(self, source: str, dataset_name: str) -> bool:
        """Snapshot, as a wire transfer starts, whether its source's
        bytes are tainted (a ``transfer_start`` layer says so)."""
        return any(layer.transfer_start(source, dataset_name)
                   for layer in self.layers.transfer_start)

    def _delivered(self, source: str, site: str, dataset_name: str,
                   tainted: bool) -> bool:
        """Whether a completed wire transfer delivered usable bytes.

        Each ``delivery`` layer judges in turn (``tainted`` is the
        :meth:`_transfer_start` snapshot): a rejected delivery counts as
        a failed attempt, so the caller fails over exactly like a
        dropped transfer, and later layers never see it.
        """
        for layer in self.layers.delivery:
            if not layer.delivery(source, site, dataset_name, tainted):
                return False
        return True

    def _pick_source(self, dest: str, dataset_name: str,
                     preferred: Optional[str],
                     avoid: AbstractSet[str] = _EMPTY) -> str:
        locations = self.catalog.locations(dataset_name)
        locations = [s for s in locations if s != dest]
        for layer in self.layers.source_choice:
            locations = layer.source_choice(locations, dest, avoid)
        if preferred is not None and preferred in locations:
            return preferred
        if not locations:
            raise DataUnavailableError(
                f"no replica of {dataset_name!r} available for {dest!r}")
        # Closest replica by hop count; ties broken randomly so one popular
        # source does not absorb all traffic.
        router = self.transfers.router
        best_hops = min(router.hops(src, dest) for src in locations)
        closest = [s for s in locations if router.hops(s, dest) == best_hops]
        if len(closest) == 1:
            return closest[0]
        return self.rng.choice(closest)
