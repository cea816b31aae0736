"""Per-run metric extraction from a finished grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.grid.grid import DataGrid
from repro.grid.job import Job, JobState


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class RunMetrics:
    """Every number we extract from one simulation run.

    The three paper metrics are :attr:`avg_response_time_s`,
    :attr:`avg_data_transferred_mb` and :attr:`idle_fraction`; the rest
    support the analysis and extension studies.
    """

    # Scale / bookkeeping
    n_jobs: int
    makespan_s: float
    total_processors: int

    # Paper metric 1: average job completion (response) time.
    avg_response_time_s: float
    # Paper metric 2: average data transferred per job (all traffic).
    avg_data_transferred_mb: float
    # Paper metric 3: average processor idle fraction in [0, 1].
    idle_fraction: float

    # Response-time decomposition (averages over jobs).
    avg_queue_time_s: float
    avg_transfer_wait_s: float
    avg_compute_time_s: float

    # Traffic decomposition (totals, MB).
    fetch_traffic_mb: float
    replication_traffic_mb: float

    # Replication / cache behaviour.
    replications_done: int
    replications_skipped: int
    total_replicas: int
    evictions: int
    #: Job outputs discarded because storage was full (output extension).
    outputs_dropped: int

    # Locality.
    fraction_jobs_at_origin: float
    fraction_jobs_local_data: float

    # Fault injection & recovery (all zero in fault-free runs).
    #: Jobs permanently given up on after exhausting their retry budget.
    jobs_failed: int = 0
    #: Execution attempts killed by faults and re-dispatched.
    jobs_retried: int = 0
    #: Dispatches re-routed because the ES's chosen site was down.
    jobs_redirected: int = 0
    #: Fetch attempts that failed or stalled and were retried.
    transfers_failed: int = 0
    #: Failed fetch retries that switched to an alternate replica source.
    failovers: int = 0
    #: Replica records invalidated by permanent site loss.
    replicas_invalidated: int = 0
    #: Site-down windows that started during the run.
    outages: int = 0
    #: Total site-seconds of unavailability over the horizon.
    site_downtime_s: float = 0.0

    # Stale information (all zero when the catalog view is live).
    #: Jobs dispatched to a site whose promised replica was not there.
    misdirected_jobs: int = 0
    #: Misdirected jobs bounced back to the ES for re-dispatch.
    bounced_jobs: int = 0
    #: Replica queries whose stale answer differed from the live catalog.
    stale_reads: int = 0

    # Overload & degradation (all zero without an overload policy).
    #: Jobs refused admission (queues saturated, deflect budget spent).
    jobs_shed: int = 0
    #: Jobs whose queue wait exceeded the deadline.
    jobs_expired: int = 0
    #: Deflection events (a job may be deflected more than once).
    jobs_deflected: int = 0
    #: Placements decided by the degraded-mode fallback selector.
    degraded_dispatches: int = 0
    #: Pinned fetches degraded to streaming reads (nothing stored).
    remote_reads: int = 0
    #: Replication pushes skipped on a mid-push StorageFullError.
    replications_skipped_full: int = 0
    #: Largest waiting-job count any site ever reached.
    peak_queue_depth: int = 0
    #: Largest used-MB any storage element ever booked.
    peak_storage_used_mb: float = 0.0
    #: Largest reserved-MB any storage element ever promised.
    peak_storage_reserved_mb: float = 0.0

    # Observed health & speculation (all zero without a health policy).
    #: Failure-detector suspicions raised (phi threshold crossings).
    suspicions: int = 0
    #: Suspicions raised against a site that was actually reachable.
    false_suspicions: int = 0
    #: Mean silence-to-suspicion lag for genuine failures (seconds).
    mean_detection_latency_s: float = 0.0
    #: Circuit breakers opened (site + link).
    breaker_trips: int = 0
    #: Circuit breakers closed again.
    breaker_restores: int = 0
    #: Half-open probes attempted.
    health_probes: int = 0
    #: Speculative backup attempts dispatched for stragglers.
    speculative_launched: int = 0
    #: Attempts retired as speculation-race losers.
    speculative_losers: int = 0
    #: Attempt-seconds thrown away by preempted losers.
    speculative_wasted_s: float = 0.0

    # Data durability (all zero without the durability layer).
    #: Silent corruptions injected into stored replicas.
    replicas_corrupted: int = 0
    #: Corrupt copies detected and removed (access/transfer/scrub).
    replicas_quarantined: int = 0
    #: Replicas re-created by the RepairManager.
    replicas_repaired: int = 0
    #: Datasets whose last replica was lost (final).
    datasets_lost: int = 0
    #: Jobs retired through the terminal abandon-data-lost edge.
    jobs_abandoned_data_lost: int = 0
    #: MB moved by completed repair transfers.
    repair_bytes_mb: float = 0.0
    #: Mean detection-to-repaired lag over repaired replicas (seconds).
    mean_repair_latency_s: float = 0.0
    #: Background scrubber sweeps completed.
    scrub_passes: int = 0

    # Per-site detail (site name → value), for load-balance analysis.
    jobs_per_site: Dict[str, int] = field(default_factory=dict)
    idle_per_site: Dict[str, float] = field(default_factory=dict)
    downtime_per_site: Dict[str, float] = field(default_factory=dict)

    @property
    def false_positive_rate(self) -> float:
        """Fraction of detector suspicions that were wrong."""
        return (self.false_suspicions / self.suspicions
                if self.suspicions else 0.0)

    @property
    def goodput(self) -> float:
        """Useful compute-seconds per processor-second of the horizon.

        Wasted speculative work is excluded: only the winning attempt of
        each logical job counts.
        """
        if self.makespan_s <= 0 or self.total_processors == 0:
            return 0.0
        useful = self.avg_compute_time_s * self.n_jobs
        return useful / (self.total_processors * self.makespan_s)

    @property
    def idle_percent(self) -> float:
        """Idle fraction as a percentage (Figure 4's axis)."""
        return 100.0 * self.idle_fraction

    @property
    def completion_rate(self) -> float:
        """Fraction of finished jobs that completed (1.0 when none failed)."""
        total = self.n_jobs + self.jobs_failed
        return self.n_jobs / total if total else 0.0

    @property
    def total_traffic_mb(self) -> float:
        """All bytes that crossed the network."""
        return (self.fetch_traffic_mb + self.replication_traffic_mb
                + self.repair_bytes_mb)

    @property
    def load_imbalance(self) -> float:
        """max/mean ratio of per-site job counts (1.0 = perfectly even).

        Quantifies the hotspot effect the paper describes for
        JobDataPresent without replication.
        """
        counts = list(self.jobs_per_site.values())
        mean = _mean([float(c) for c in counts])
        if mean == 0:
            return 1.0
        return max(counts) / mean

    @classmethod
    def from_grid(cls, grid: DataGrid,
                  makespan_s: Optional[float] = None) -> "RunMetrics":
        """Extract metrics after :meth:`DataGrid.run` returned.

        ``makespan_s`` defaults to the grid's current simulated time (the
        moment the last job finished); idle time is integrated over
        ``[0, makespan]``.
        """
        horizon = grid.sim.now if makespan_s is None else makespan_s
        jobs = grid.completed_jobs
        if not jobs:
            raise ValueError("no completed jobs; did the grid run?")
        failed = grid.failed_jobs
        shed = grid.shed_jobs
        expired = grid.expired_jobs
        speculated = grid.speculated_jobs
        abandoned = grid.abandoned_jobs
        # A job may legitimately end FAILED under fault injection,
        # SHED/EXPIRED under an overload policy, SPECULATED as a
        # speculation-race loser, or ABANDONED_DATA_LOST when an input
        # dataset lost its last replica; only *unaccounted* jobs (none of
        # those and not completed) mean the run stopped mid-flight and
        # the averages would be biased.
        incomplete = (len(grid.submitted_jobs) - len(jobs) - len(failed)
                      - len(shed) - len(expired) - len(speculated)
                      - len(abandoned))
        if incomplete:
            raise ValueError(
                f"{incomplete} submitted jobs never completed; "
                "metrics would be biased")

        by_purpose = grid.transfers.mb_moved_by_purpose()
        fetch_mb = by_purpose.get("job-fetch", 0.0)
        replication_mb = by_purpose.get("replication", 0.0)
        total_mb = sum(by_purpose.values())

        n_proc = grid.total_processors
        busy = sum(
            site.compute.busy_processor_seconds(horizon)
            for site in grid.sites.values()
        )
        idle_fraction = (
            1.0 - busy / (n_proc * horizon) if horizon > 0 else 0.0)

        jobs_per_site = {name: 0 for name in grid.sites}
        for job in jobs:
            jobs_per_site[job.execution_site] += 1

        layers = grid.layers
        faults = layers.faults
        overload = layers.overload
        health = layers.health
        durability = layers.durability
        downtime = (faults.downtime_per_site(horizon)
                    if faults is not None else {})
        view = layers.staleness

        return cls(
            n_jobs=len(jobs),
            makespan_s=horizon,
            total_processors=n_proc,
            avg_response_time_s=_mean([j.response_time for j in jobs]),
            avg_data_transferred_mb=total_mb / len(jobs),
            idle_fraction=idle_fraction,
            avg_queue_time_s=_mean([j.queue_time for j in jobs]),
            avg_transfer_wait_s=_mean([j.transfer_time for j in jobs]),
            avg_compute_time_s=_mean([j.compute_time for j in jobs]),
            fetch_traffic_mb=fetch_mb,
            replication_traffic_mb=replication_mb,
            replications_done=grid.datamover.replications_done,
            replications_skipped=grid.datamover.replications_skipped,
            total_replicas=grid.catalog.total_replicas(),
            evictions=sum(s.evictions for s in grid.storages.values()),
            outputs_dropped=sum(
                s.outputs_dropped for s in grid.sites.values()),
            fraction_jobs_at_origin=_mean(
                [1.0 if j.ran_at_origin else 0.0 for j in jobs]),
            fraction_jobs_local_data=_mean(
                [1.0 if j.transfer_time <= 1e-9 else 0.0 for j in jobs]),
            jobs_failed=len(failed),
            jobs_retried=faults.jobs_retried if faults else 0,
            jobs_redirected=faults.jobs_redirected if faults else 0,
            transfers_failed=grid.datamover.transfers_failed,
            failovers=grid.datamover.failovers,
            replicas_invalidated=(
                faults.replicas_invalidated if faults else 0),
            outages=faults.outages_started if faults else 0,
            site_downtime_s=sum(downtime.values()),
            misdirected_jobs=view.misdirected_jobs if view else 0,
            bounced_jobs=view.bounced_jobs if view else 0,
            stale_reads=view.stale_reads if view else 0,
            jobs_shed=len(shed),
            jobs_expired=len(expired),
            jobs_deflected=(overload.stats.jobs_deflected
                            if overload else 0),
            degraded_dispatches=(overload.stats.degraded_dispatches
                                 if overload else 0),
            remote_reads=grid.datamover.remote_reads,
            replications_skipped_full=(
                grid.datamover.replications_skipped_full),
            peak_queue_depth=max(
                s.peak_queue_depth for s in grid.sites.values()),
            peak_storage_used_mb=max(
                s.peak_used_mb for s in grid.storages.values()),
            peak_storage_reserved_mb=max(
                s.peak_reserved_mb for s in grid.storages.values()),
            suspicions=(health.stats.suspicions if health else 0),
            false_suspicions=(
                health.stats.false_suspicions if health else 0),
            mean_detection_latency_s=(
                health.stats.mean_detection_latency_s
                if health else 0.0),
            breaker_trips=(
                health.stats.breaker_trips if health else 0),
            breaker_restores=(
                health.stats.breaker_restores if health else 0),
            health_probes=(health.stats.probes if health else 0),
            speculative_launched=(
                health.stats.speculative_launched if health else 0),
            speculative_losers=(
                health.stats.speculative_losers if health else 0),
            speculative_wasted_s=(
                health.stats.speculative_wasted_s if health
                else 0.0),
            replicas_corrupted=(
                durability.stats.replicas_corrupted
                if durability else 0),
            replicas_quarantined=(
                durability.stats.replicas_quarantined
                if durability else 0),
            replicas_repaired=(
                durability.stats.replicas_repaired
                if durability else 0),
            datasets_lost=(
                durability.stats.datasets_lost
                if durability else 0),
            jobs_abandoned_data_lost=len(abandoned),
            # From the transfer ledger, not the manager's own counter, so
            # it cross-validates exactly against transfer.done records.
            repair_bytes_mb=by_purpose.get("repair", 0.0),
            mean_repair_latency_s=(
                durability.stats.mean_repair_latency_s
                if durability else 0.0),
            scrub_passes=(
                durability.stats.scrub_passes
                if durability else 0),
            jobs_per_site=jobs_per_site,
            idle_per_site={
                name: site.compute.idle_fraction(horizon)
                for name, site in grid.sites.items()
            },
            downtime_per_site=downtime,
        )
