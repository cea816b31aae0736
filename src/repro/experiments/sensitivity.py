"""Sensitivity experiments: where do the paper's findings degrade?

The paper evaluates every algorithm pair under *perfect* global
information and load the grid can absorb.  Four sweeps probe past those
assumptions.  Each is a list of :class:`~repro.experiments.sweep.Axis`
objects for :func:`~repro.experiments.sweep.grid_sweep`, a
:class:`~repro.experiments.sweep.Table` layout, and a picker that reads
the answer off the grid:

* :func:`staleness_sensitivity` — replica-catalog propagation delay;
  :func:`degradation`: how much of JobDataPresent's data-local advantage
  do misdirected jobs eat?
* :func:`overload_sweep` — open-loop arrival rate × queue capacity;
  :func:`knee`: where does the pair saturate?
* :func:`recovery_sweep` — failure-detector threshold × site MTBF ×
  network partition; :func:`safe_threshold`: the fastest detector that
  is not crying wolf.
* :func:`durability_sweep` — bit-rot rate × replication factor × scrub
  period; :func:`surviving_rf`: the cheapest factor that loses no data.

The workload depends only on the seed, never on a swept value, so cells
along every axis are paired comparisons.  Every sweep passes its extra
keywords (``seeds``, ``jobs``, ``cache_dir``) on to ``grid_sweep``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.sweep import Axis, Column, GridResult, Table, grid_sweep
from repro.faults.plan import FaultPlan, NetworkPartition

#: Default comparison: the paper's decoupled winner vs the traditional
#: compute-only baseline.  Both consult replica state (JobDataPresent for
#: placement, DataLeastLoaded for replication), so both feel the delay;
#: JobLeastLoaded+DataDoNothing barely touches the catalog and acts as
#: the control.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("JobDataPresent", "DataLeastLoaded"),
    ("JobLeastLoaded", "DataDoNothing"),
)


def _with_plan(config: SimulationConfig, plan: FaultPlan
               ) -> SimulationConfig:
    """``config`` running ``plan``, or no plan if it injects nothing."""
    return config.with_(fault_plan=plan if not plan.is_null else None)


# ---- staleness sweep --------------------------------------------------------

#: Default delay grid (seconds): live oracle, one DS period, and beyond.
DEFAULT_DELAYS: Tuple[float, ...] = (0.0, 60.0, 300.0, 900.0, 1800.0)

STALENESS_TABLE = Table(
    title="catalog-staleness sensitivity ({seeds} seed(s))",
    columns=(
        Column("delay (s)", "catalog_delay_s", 10, "g"),
        Column("response (s)", "avg_response_time_s", 14),
        Column("misdirected", "misdirected_jobs", 12),
        Column("bounced", "bounced_jobs", 9),
        Column("stale reads", "stale_reads", 12),
    ))


def staleness_sensitivity(
    config: SimulationConfig,
    delays: Sequence[float] = DEFAULT_DELAYS,
    pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
    **campaign: Any,
) -> GridResult:
    """Sweep ``catalog_delay_s`` for each pair; runs keyed
    ``(es, ds, delay)``."""
    return grid_sweep(
        config,
        [Axis.field("catalog_delay_s", [float(d) for d in delays])],
        pairs, layout=STALENESS_TABLE, **campaign)


def degradation(result: GridResult, es_name: str, ds_name: str) -> float:
    """Response-time ratio of the worst delay to the live oracle.

    1.0 means staleness never hurt; 1.4 means the pair lost 40 % of
    its performance at some swept delay.
    """
    series = result.series(es_name, ds_name, "avg_response_time_s")
    return max(series) / series[0] if series[0] > 0 else 1.0


# ---- overload sweep ---------------------------------------------------------

#: Default offered-load grid, jobs/s.  At test scales the low end is
#: comfortably sub-critical and the high end is far past saturation; real
#: studies should pick rates around their configuration's service rate.
DEFAULT_RATES: Tuple[float, ...] = (0.02, 0.05, 0.1, 0.2)

#: Default per-site queue capacities (jobs waiting).
DEFAULT_CAPACITIES: Tuple[int, ...] = (4, 16)


def knee(result: GridResult, es_name: str, ds_name: str, capacity: int,
         factor: float = 2.0) -> Optional[float]:
    """The first swept arrival rate whose mean response exceeds
    ``factor`` × the lowest-rate response; None = never reached."""
    series = result.series(es_name, ds_name, capacity,
                           "avg_response_time_s")
    baseline = series[0]
    if baseline <= 0:
        return None
    for rate, value in zip(result.axes[0].values, series):
        if value > factor * baseline:
            return rate
    return None


def _knee_line(result: GridResult, es_name: str, ds_name: str,
               outer: Tuple[int]) -> str:
    (capacity,) = outer
    rate = knee(result, es_name, ds_name, capacity)
    return (f"  knee (2x response) at capacity {capacity}: "
            + (f"{rate:g} jobs/s" if rate is not None else "not reached"))


OVERLOAD_TABLE = Table(
    title="overload sweep ({seeds} seed(s))",
    columns=(
        Column("rate/s", "arrival_rate_per_s", 8, "g"),
        Column("cap", "queue_capacity", 5, "d"),
        Column("response (s)", "avg_response_time_s", 14),
        Column("shed", "jobs_shed", 6),
        Column("expired", "jobs_expired", 8),
        Column("deflected", "jobs_deflected", 10),
        Column("peak q", "peak_queue_depth", 7),
    ),
    nesting=("queue_capacity", "arrival_rate_per_s"),
    footer=_knee_line)


def overload_sweep(
    config: SimulationConfig,
    rates: Sequence[float] = DEFAULT_RATES,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
    **campaign: Any,
) -> GridResult:
    """Sweep open-loop arrival rate × queue capacity for each pair; runs
    keyed ``(es, ds, rate, capacity)``.

    Each cell replaces the closed-loop users with a Poisson stream at the
    rate and bounds every site queue at the capacity (0 = unbounded, the
    control).  Other overload knobs are taken from ``config`` unchanged.
    """
    return grid_sweep(
        config,
        [Axis.field("arrival_rate_per_s", [float(r) for r in rates]),
         Axis.field("queue_capacity", [int(c) for c in capacities])],
        pairs, layout=OVERLOAD_TABLE, **campaign)


# ---- recovery sweep ---------------------------------------------------------

#: Default phi-suspicion thresholds: hair-trigger, default, conservative.
DEFAULT_THRESHOLDS: Tuple[float, ...] = (2.0, 3.0, 6.0)

#: Default site-MTBF grid (seconds).  0 = no random failures, the
#: false-positive control; the rest span frequent to occasional crashes
#: at test scales.
DEFAULT_MTBFS: Tuple[float, ...] = (0.0, 3600.0, 14400.0)


def safe_threshold(result: GridResult, es_name: str, ds_name: str,
                   mtbf: float, part: bool, max_fp_rate: float = 0.05
                   ) -> Optional[float]:
    """The lowest swept threshold whose false-positive rate is at most
    ``max_fp_rate``; None = every swept threshold exceeded it."""
    for threshold, fp in zip(
            result.axes[0].values,
            result.series(es_name, ds_name, mtbf, part,
                          "false_positive_rate")):
        if fp <= max_fp_rate:
            return threshold
    return None


RECOVERY_TABLE = Table(
    title="recovery sweep ({seeds} seed(s))",
    columns=(
        Column("phi", "health_phi_threshold", 5, "g"),
        Column("mtbf (s)", "site_mtbf_s", 10, "g"),
        Column("part", "partitioned", 6,
               lambda part: "yes" if part else "no"),
        Column("detect (s)", "mean_detection_latency_s", 12),
        Column("fp rate", "false_positive_rate", 9, ".3f"),
        Column("wasted (s)", "speculative_wasted_s", 12),
        Column("goodput", "goodput", 9, ".3f"),
    ),
    nesting=("partitioned", "site_mtbf_s", "health_phi_threshold"))


def recovery_sweep(
    config: SimulationConfig,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    mtbfs: Sequence[float] = DEFAULT_MTBFS,
    partitioned: Sequence[bool] = (False, True),
    pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
    partition_start_s: float = 1800.0,
    partition_duration_s: float = 1800.0,
    **campaign: Any,
) -> GridResult:
    """Sweep the failure detector's phi threshold × site MTBF ×
    partition for each pair; runs keyed ``(es, ds, threshold, mtbf,
    partitioned)``.

    Heartbeats are on (``config.health_heartbeat_s`` if set, else 30 s).
    Each cell's fault plan is the config's plan with ``site_mtbf_s``
    overridden and, when partitioned, the first quarter of the sites cut
    off for ``partition_duration_s`` from ``partition_start_s``.
    """
    base_plan = config.fault_plan or FaultPlan()
    quarter = range(max(1, config.n_sites // 4))
    partition = NetworkPartition(
        sites=tuple(f"site{s:02d}" for s in quarter),
        start_s=partition_start_s,
        end_s=partition_start_s + partition_duration_s)

    # The MTBF axis keeps its plan even when null; the partition axis,
    # applied last, drops it.  A null plan carrying a seed thus keeps the
    # seed when the partition makes it non-null.
    def with_partition(cell: SimulationConfig,
                       part: bool) -> SimulationConfig:
        plan = cell.fault_plan
        return _with_plan(cell, dataclasses.replace(
            plan, partitions=plan.partitions + (partition,))
            if part else plan)

    heartbeat = (config.health_heartbeat_s
                 if config.health_heartbeat_s > 0 else 30.0)
    return grid_sweep(
        config.with_(health_heartbeat_s=heartbeat),
        [Axis.field("health_phi_threshold",
                    [float(t) for t in thresholds]),
         Axis("site_mtbf_s", [float(m) for m in mtbfs],
              lambda cell, mtbf: cell.with_(fault_plan=dataclasses.replace(
                  base_plan, site_mtbf_s=mtbf))),
         Axis("partitioned", [bool(p) for p in partitioned],
              with_partition)],
        pairs, layout=RECOVERY_TABLE, **campaign)


# ---- durability sweep -------------------------------------------------------

#: Default per-site bit-rot MTBF grid (seconds).  0 = no corruption, the
#: baseline control; the rest span occasional to aggressive rot at test
#: scales.
DEFAULT_CORRUPTION_MTBFS: Tuple[float, ...] = (0.0, 14400.0, 3600.0)

#: Default replication-factor grid.  1 = the paper's single primary
#: (repair off: the detection-only baseline); higher factors arm the
#: RepairManager.
DEFAULT_RFS: Tuple[int, ...] = (1, 2)

#: Default scrubber periods (seconds).  0 = on-access detection only.
DEFAULT_SCRUBS: Tuple[float, ...] = (0.0, 600.0)


def surviving_rf(result: GridResult, es_name: str, ds_name: str,
                 mtbf: float, scrub: float) -> Optional[int]:
    """The lowest swept replication factor that lost no dataset under
    any seed; None = every swept factor lost data."""
    for rf in sorted(result.values("replication_factor")):
        runs = result.runs[(es_name, ds_name, mtbf, rf, scrub)]
        if max(m.datasets_lost for m in runs) == 0:
            return rf
    return None


DURABILITY_TABLE = Table(
    title="durability sweep ({seeds} seed(s))",
    columns=(
        Column("mtbf (s)", "corruption_mtbf_s", 10, "g"),
        Column("rf", "replication_factor", 4, "d"),
        Column("scrub", "scrub_interval_s", 7, "g"),
        Column("corrupt", "replicas_corrupted", 9),
        Column("repaired", "replicas_repaired", 9),
        Column("lost", "datasets_lost", 6),
        Column("abandoned", "jobs_abandoned_data_lost", 10),
        Column("response (s)", "avg_response_time_s", 14),
    ))


def durability_sweep(
    config: SimulationConfig,
    mtbfs: Sequence[float] = DEFAULT_CORRUPTION_MTBFS,
    rfs: Sequence[int] = DEFAULT_RFS,
    scrubs: Sequence[float] = DEFAULT_SCRUBS,
    pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
    **campaign: Any,
) -> GridResult:
    """Sweep per-site bit-rot MTBF × replication factor × scrub period
    for each pair; runs keyed ``(es, ds, mtbf, rf, scrub)``.

    Factors above 1 arm the RepairManager; factor 1 is the
    detection-only baseline (single primaries plus checksums).
    """
    base_plan = config.fault_plan or FaultPlan()
    return grid_sweep(
        config,
        [Axis("corruption_mtbf_s", [float(m) for m in mtbfs],
              lambda cell, mtbf: _with_plan(cell, dataclasses.replace(
                  base_plan, corruption_mtbf_s=mtbf))),
         Axis("replication_factor", [int(r) for r in rfs],
              lambda cell, rf: cell.with_(replication_factor=rf,
                                          durability_repair=rf > 1)),
         Axis.field("scrub_interval_s", [float(s) for s in scrubs])],
        pairs, layout=DURABILITY_TABLE, **campaign)
