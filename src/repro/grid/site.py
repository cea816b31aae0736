"""A grid site: processors + storage + the job execution engine.

A site executes the jobs the External Scheduler assigns to it.  The flow
for one job (paper §3/§5.2):

1. On arrival the input-data fetch starts immediately ("the data transfer
   needed for a job starts while the job is still in the processor queue").
2. The job waits for a processor in the order the Local Scheduler decides
   (FIFO in the paper).
3. Once it holds a processor it waits (processor *idle*) until its input
   data is local — so completion time = max(queue, transfer) + compute,
   and Figure 4's idle metric includes the waiting-for-data component.
4. It computes for ``runtime_s`` seconds, releases the processor, and
   unpins its input.

One attempt body, ``Site._execute``, runs this flow for every Local
Scheduler; only the processor claim differs.  A queue-order LS (FIFO,
SJF, LJF) gets a :class:`_QueueClaim` in the compute element's queue; a
dispatch-mode LS (``FIFO-DataAware``) gets a :class:`_DispatchClaim` it
picks when a processor frees.  Both offer ``granted`` (an event),
``ready(prefetches)`` and ``give_back()``, which returns a granted
processor or withdraws an ungranted claim: the only release call on the
expiry, kill/preempt and completion paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.grid.compute import ComputeElement
from repro.grid.datamover import DataMover, DataUnavailableError, RemoteReadMB
from repro.grid.job import Job
from repro.grid.lifecycle import TransitionEngine
from repro.grid.storage import StorageElement
from repro.sim.core import Simulator
from repro.sim.errors import Interrupt
from repro.sim.events import Event
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.base import LocalScheduler

#: Interrupt cause used to cancel the losing attempt of a speculation
#: race.  :meth:`Site._unwind` routes this cause to the dedicated
#: ``SPECULATED`` terminal edge instead of the kill/retry path.
_PREEMPT_CAUSE = "speculation loser"


class _Attempt:
    """Cleanup bookkeeping for one execution attempt.

    Records exactly which resources the attempt holds at any yield point
    so an :class:`~repro.sim.errors.Interrupt` (site failure, speculation
    loss) or a :class:`~repro.grid.datamover.DataUnavailableError` can be
    unwound without leaking pins or in-flight fetches; the processor goes
    back through the attempt's claim.
    """

    __slots__ = ("fetch", "fetch_name", "pinned", "computing")

    def __init__(self) -> None:
        self.fetch: Optional[Process] = None
        self.fetch_name: Optional[str] = None
        self.pinned: List[str] = []
        self.computing = False


class _QueueClaim:
    """A processor claim in the compute element's LS-ordered queue.

    The request is issued at construction, so the site's load reflects
    the job at once; the data-ready event is built only after the grant.
    """

    __slots__ = ("granted", "_sim", "_compute")

    def __init__(self, sim: Simulator, compute: ComputeElement,
                 priority: Optional[int]) -> None:
        self._sim = sim
        self._compute = compute
        if priority is None:
            self.granted = compute.acquire()
        else:
            self.granted = compute.acquire(priority=priority)

    def ready(self, prefetches) -> Event:
        return self._sim.all_of(prefetches)

    def give_back(self) -> None:
        """Return the processor, or cancel the still-queued request."""
        self._compute.release(self.granted)


class _DispatchClaim:
    """A pending entry of a dispatch-mode LS (``Site._try_dispatch``).

    The data-ready event is built at construction: the LS reads it to
    pick among pending jobs, and each arrival re-asks the LS.
    """

    __slots__ = ("granted", "entry", "_site", "_ready")

    def __init__(self, site: "Site", job: Job, prefetches) -> None:
        from repro.scheduling.base import QueuedJob

        self._site = site
        self._ready = site.sim.all_of(prefetches)
        self.granted = Event(site.sim)
        self.entry = QueuedJob(job, site.sim.now, self._ready)
        site._pending.append(self)
        # A data arrival can unblock a better dispatch choice.
        self._ready.callbacks.append(lambda _ev: site._try_dispatch())

    def ready(self, prefetches) -> Event:
        return self._ready

    def give_back(self) -> None:
        """Return the processor, or withdraw the still-pending entry."""
        site = self._site
        if self.granted.triggered:
            site._free_processors += 1
            site._try_dispatch()
            return
        # So _try_dispatch can never grant the dead entry (an outage may
        # already have cleared the whole queue).
        if self in site._pending:
            site._pending.remove(self)


class Site:
    """One site: name, compute element, storage element, local scheduler."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        compute: ComputeElement,
        storage: StorageElement,
        datamover: DataMover,
        local_scheduler: "LocalScheduler",
    ) -> None:
        self.sim = sim
        self.name = name
        self.compute = compute
        self.storage = storage
        self.datamover = datamover
        self.local_scheduler = local_scheduler
        #: Jobs completed at this site (metrics).
        self.jobs_completed: int = 0
        #: Jobs currently assigned here and not finished.
        self.jobs_in_system: int = 0
        #: Observers called with each completed job.
        self.completion_listeners: List[Callable[[Job], None]] = []
        #: Job outputs that could not be stored locally (storage full of
        #: pinned files) and were discarded — a model-pressure indicator.
        self.outputs_dropped: int = 0
        #: Output datasets written here (name → Dataset).
        self.outputs: Dict[str, "Dataset"] = {}
        # Dispatcher state (only used when the LS runs in dispatch mode).
        self._pending: List[_DispatchClaim] = []
        self._free_processors = compute.n_processors
        #: Domain-event tracer (None = tracing off; one attribute check).
        self.tracer = None
        #: Alive execution processes, so :meth:`fail_site` can kill them.
        #: An insertion-ordered dict, not a set: Process hashes by id, and
        #: interrupt order must not depend on memory layout or a run stops
        #: being reproducible.
        self._alive: Dict[Process, None] = {}
        #: job id -> its live execution process, for targeted preemption
        #: (speculation races).  Maintained alongside ``_alive``.
        self._attempts_by_job: Dict[int, Process] = {}
        #: High-water mark of the waiting-job count (metrics; tracked
        #: unconditionally — max() never changes behaviour).
        self.peak_queue_depth = 0
        #: The job-lifecycle engine this site drives jobs through.  A
        #: grid-wired site shares its grid's engine (assigned by
        #: :class:`~repro.grid.grid.DataGrid`); a standalone site gets a
        #: private one so unit-level use needs no ceremony.
        self.lifecycle = TransitionEngine(sim)

    def __repr__(self) -> str:
        return (f"<Site {self.name} load={self.load} "
                f"busy={self.compute.busy}/{self.compute.n_processors}>")

    @property
    def load(self) -> int:
        """The paper's load definition: number of jobs waiting to run."""
        if self.local_scheduler.dispatches:
            return len(self._pending)
        return self.compute.waiting

    def enqueue(self, job: Job) -> Process:
        """Accept a dispatched job; returns the execution process.

        The returned process triggers when the job completes (its value is
        the job), so users can wait for their sequential submissions.
        """
        self.jobs_in_system += 1
        self.lifecycle.enqueue(job, self.name, waiting=self.load)
        # Start prefetching every input right away (unpinned, best-effort):
        # "the data transfer needed for a job starts while the job is still
        # in the processor queue".  The authoritative, pinned fetch happens
        # once the job holds a processor, so pinned space is bounded by the
        # processor count and storage can never deadlock on queued jobs.
        prefetches = [
            self.datamover.ensure_local(self.name, fname, pin=False,
                                        best_effort=True)
            for fname in job.input_files
        ]
        dispatches = self.local_scheduler.dispatches
        if dispatches:
            claim = _DispatchClaim(self, job, prefetches)
        else:
            claim = _QueueClaim(self.sim, self.compute,
                                self.local_scheduler.priority(job))
        process = self.sim.process(
            self._execute(job, claim, prefetches),
            name=f"job{job.job_id}@{self.name}")
        self._track(process, job)
        if dispatches:
            self._try_dispatch()
        self._note_queue_depth()
        return process

    def _note_queue_depth(self) -> None:
        depth = self.load
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def _expire(self, job: Job, deadline: float) -> None:
        """Terminal queue-deadline expiry: account and trace."""
        self.jobs_in_system -= 1
        self.lifecycle.expire(job, self.name, deadline)

    def _track(self, process: Process, job: Job) -> None:
        self._alive[process] = None
        self._attempts_by_job[job.job_id] = process

        def _done(_ev) -> None:
            self._alive.pop(process, None)
            if self._attempts_by_job.get(job.job_id) is process:
                del self._attempts_by_job[job.job_id]

        process.callbacks.append(_done)

    def preempt_attempt(self, job: Job) -> bool:
        """Cancel the job's live attempt here (speculation race lost).

        The interrupt is delivered at urgent priority, so the loser
        unwinds (releasing its processor, pins, and fetch) before any
        same-time normal event — in particular before a run-stop
        triggered by the winner's completion.  Returns False when no
        live attempt exists (already finished, or never tracked).
        """
        process = self._attempts_by_job.get(job.job_id)
        if process is None or not process.is_alive:
            return False
        process.interrupt(_PREEMPT_CAUSE)
        return True

    def fail_site(self) -> None:
        """Site outage: kill every queued and running job here.

        Dispatch-mode queue entries are dropped (their grants will never
        fire) and every execution process is interrupted; each unwinds its
        own held resources and returns its (incomplete) job so the grid's
        recovery supervisor can re-dispatch it elsewhere.
        """
        self._pending.clear()
        for process in [p for p in self._alive if p.is_alive]:
            process.interrupt("site failure")

    def _try_dispatch(self) -> None:
        """Grant free processors to the pending jobs the LS picks."""
        while self._free_processors > 0 and self._pending:
            entries = [claim.entry for claim in self._pending]
            index = self.local_scheduler.pick(entries, self.sim.now)
            if index is None:
                return  # nothing worth running yet; re-asked on events
            if not 0 <= index < len(self._pending):
                raise ValueError(
                    f"{self.local_scheduler!r} picked invalid index "
                    f"{index} of {len(self._pending)} pending jobs")
            claim = self._pending.pop(index)
            if self.tracer is not None:
                self.tracer.emit(
                    self.sim.now, "ls.pick", ls=self.local_scheduler.name,
                    site=self.name, job=claim.entry.job.job_id,
                    pending=len(self._pending) + 1)
            self._free_processors -= 1
            claim.granted.succeed()

    def _execute(self, job: Job, claim, prefetches):
        """The attempt body: claim a processor, get the data, compute."""
        attempt = _Attempt()
        pinned = attempt.pinned
        try:
            # 1. Wait for a processor, in LS-decided order — racing the
            #    queue deadline when a layer set one on the lifecycle
            #    engine.  A tie at the same instant goes to execution.
            deadline_of = self.lifecycle.deadline_of
            deadline = deadline_of(job) if deadline_of is not None else 0.0
            if deadline > 0:
                expiry = self.sim.timeout(deadline)
                yield self.sim.any_of([claim.granted, expiry])
                if not claim.granted.triggered:
                    # Withdrawing the claim guarantees the processor can
                    # never be granted to the dead job.
                    claim.give_back()
                    self._expire(job, deadline)
                    return job
            else:
                yield claim.granted
            job.processor_at = self.sim.now

            # 2. Hold the processor until the input data is local and
            #    pinned.  Usually the prefetch already landed (or is joined
            #    in flight) and this is instantaneous.
            prefetched = yield claim.ready(prefetches)
            fetched_mb = sum(prefetched.values())
            fetched_mb += yield from self._fetch_inputs(job, attempt)
            self.lifecycle.data_ready(job, self.name, fetched_mb)

            # 3. Compute.
            self.lifecycle.start(job, self.name)
            for fname in job.input_files:
                # A remote-read input was never stored, and a quarantine
                # may have removed an input between its fetch and here —
                # nothing to touch or count then.
                if fname in self.storage:
                    self.storage.record_access(fname, self.sim.now)
            attempt.computing = True
            self.compute.compute_started()
            yield self.sim.timeout(job.runtime_s)
            self.compute.compute_finished()
            attempt.computing = False
        except (Interrupt, DataUnavailableError) as err:
            claim.give_back()
            self._unwind(job, attempt, err)
            return job

        # 4. Write the output (stored locally, never transferred — §5.1
        #    ignores output transfer costs; the bytes still occupy the
        #    site's LRU-managed storage when output modelling is on).
        if job.output_size_mb > 0:
            self._store_output(job)

        # 5. Clean up.
        claim.give_back()
        for fname in pinned:
            self.storage.unpin(fname)
        self.lifecycle.finish(job, self.name)
        self.jobs_in_system -= 1
        self.jobs_completed += 1
        for listener in self.completion_listeners:
            listener(job)
        return job

    def _fetch_inputs(self, job: Job, attempt: _Attempt):
        """Pin every input locally, tracking the in-flight fetch.

        ``attempt.pinned`` collects the names actually pinned: a fetch
        degraded to a remote read (:class:`RemoteReadMB`) stored and
        pinned nothing, so neither completion nor an unwind may unpin it.
        """
        fetched_mb = 0.0
        for fname in job.input_files:
            fetch = self.datamover.ensure_local(self.name, fname, pin=True)
            attempt.fetch = fetch
            attempt.fetch_name = fname
            moved = yield fetch
            fetched_mb += moved
            attempt.fetch = None
            attempt.fetch_name = None
            if not isinstance(moved, RemoteReadMB):
                attempt.pinned.append(fname)
        return fetched_mb

    def _unwind(self, job: Job, attempt, err) -> None:
        """Undo everything a killed execution attempt still holds."""
        if attempt.computing:
            self.compute.compute_aborted()
        for fname in attempt.pinned:
            self.storage.unpin(fname)
        if attempt.fetch is not None:
            self._settle_orphan_fetch(attempt.fetch, attempt.fetch_name)
        self.jobs_in_system -= 1
        if isinstance(err, Interrupt) and err.cause == _PREEMPT_CAUSE:
            # Speculation loser: absorbing terminal edge, not a retry.
            self.lifecycle.preempt(job, self.name, _PREEMPT_CAUSE)
        else:
            self.lifecycle.kill(job, str(err) or type(err).__name__)

    def _settle_orphan_fetch(self, fetch: Process, fname: str) -> None:
        """Tie off a pinned fetch whose job was killed mid-wait.

        The fetch process keeps running in the background; if it lands it
        will pin the file for a job that no longer exists, so unpin on
        success.  On failure, defuse — nobody waits on it anymore.
        """
        storage = self.storage

        def settle(event) -> None:
            if event.ok:
                # A remote read pinned nothing; there is nothing to undo.
                if not isinstance(event.value, RemoteReadMB):
                    storage.unpin(fname)
            else:
                event.defuse()

        if fetch.processed:
            settle(fetch)
        else:
            fetch.callbacks.append(settle)

    def _store_output(self, job: Job) -> None:
        """Write the job's output file into local storage (best effort)."""
        from repro.grid.files import Dataset
        from repro.grid.storage import StorageFullError

        output = Dataset(f"output-job{job.job_id}", job.output_size_mb)
        try:
            self.storage.add(output, self.sim.now, pin=False)
        except StorageFullError:
            # A site whose storage is entirely pinned simply loses the
            # output; real grids stage such outputs to tape/elsewhere.
            self.outputs_dropped += 1
            return
        # Outputs are registered as replicas but kept out of the shared
        # (workload-owned, reusable) DatasetCollection; no job ever reads
        # another job's output in this model.
        self.outputs[output.name] = output
        self.datamover.catalog.register(output.name, self.name)
