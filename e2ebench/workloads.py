"""The benchmark's workloads, and one run of each.

Every workload is a closed batch driven from this process: the workload
seed given on the command line expands into a fixed list of sub-seeds
(:func:`sub_seeds`), and each sub-seed is one independent simulated run
(or, for ``matrix``, one 12-pair campaign).  See README.md for why each
workload exists and which layer metrics it should move.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments import parallel
from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.runner import build_grid, make_workload
from repro.faults.plan import FaultPlan
from repro.grid.grid import DataGrid
from repro.grid.lifecycle import TERMINAL_STATES
from repro.metrics.collector import RunMetrics
from repro.scheduling.registry import ALL_DS, ALL_ES
from repro.sim.trace import Tracer
from repro.trace.crossval import mismatches
from repro.trace.jsonl import write_jsonl
from repro.watchdog import InvariantViolation, Watchdog

#: The three metrics the paper reports, checked against reference.json.
PAPER_METRICS = ("avg_response_time_s", "avg_data_transferred_mb",
                 "idle_fraction")

#: Where the ``all-layers`` domain trace is written (inside the checkout).
OUT_DIR = Path(__file__).resolve().parent / "out"

_PAPER = SimulationConfig.paper()


@dataclass(frozen=True)
class Workload:
    name: str
    config: SimulationConfig
    #: (ES, DS) pairs run per sub-seed; more than one means a campaign.
    pairs: Tuple[Tuple[str, str], ...]
    #: Independent sub-seeds per benchmark seed (fixed, so a seed always
    #: means the same inputs).
    n_sub_seeds: int
    #: Attach a domain tracer, write it as JSONL and cross-validate it.
    domain_trace: bool = False
    #: Every optional layer is off: their spans must read zero calls.
    layers_off: bool = True
    #: False when no byte may cross the network (no allocate calls).
    moves_data: bool = True

    @property
    def campaign(self) -> bool:
        """Several pairs per sub-seed, fanned out through ParallelRunner."""
        return len(self.pairs) > 1


ALL_LAYERS_CONFIG = _PAPER.with_(
    # faults
    fault_plan=FaultPlan(site_mtbf_s=40000.0, transfer_fail_prob=0.02,
                         corruption_mtbf_s=20000.0),
    # staleness
    catalog_delay_s=60.0,
    # overload, open loop near the capacity knee
    queue_capacity=20, storage_reservations=True, arrival_rate_per_s=0.3,
    # health
    health_heartbeat_s=30.0, health_heartbeat_jitter=0.1,
    speculate_quantile=0.9,
    # durability
    replication_factor=2, durability_repair=True, scrub_interval_s=1800.0,
    watchdog=True,
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("decoupled", _PAPER.scaled(2),
             (("JobDataPresent", "DataLeastLoaded"),),
             n_sub_seeds=12),
    Workload("data-local", _PAPER.scaled(2),
             (("JobDataPresent", "DataDoNothing"),),
             n_sub_seeds=20, moves_data=False),
    Workload("all-layers", ALL_LAYERS_CONFIG,
             (("JobDataPresent+Health", "DataLeastLoaded"),),
             n_sub_seeds=32, domain_trace=True,
             layers_off=False),
    Workload("matrix", _PAPER,
             tuple((es, ds) for es in ALL_ES for ds in ALL_DS),
             n_sub_seeds=3),
)}


def sub_seeds(workload: Workload, seed: int) -> List[int]:
    """The independent simulation seeds one benchmark seed stands for."""
    return [seed * 1000 + i for i in range(workload.n_sub_seeds)]


def parallel_slots() -> int:
    """Processes run side by side: campaign workers, or concurrent sub-runs
    of the single-pair workloads."""
    return max(1, min(2, os.cpu_count() or 1))


# -- outcome helpers ----------------------------------------------------------

def digest(outcome: Any) -> str:
    """Bitwise fingerprint of a run outcome (floats by exact repr)."""
    blob = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def terminal_jobs(jobs: Sequence) -> int:
    return sum(1 for job in jobs if job.state in TERMINAL_STATES)


def conservation_problems(grid: DataGrid, jobs: Sequence) -> List[str]:
    """Every job reached exactly one terminal state, and books balance."""
    problems = list(grid.lifecycle.audit())
    stuck = [job.job_id for job in jobs if job.state not in TERMINAL_STATES]
    if stuck:
        problems.append(f"{len(stuck)} jobs never reached a terminal state "
                        f"(first: {stuck[:3]})")
    live = sum(n for state, n in grid.lifecycle.counts.items()
               if state not in TERMINAL_STATES)
    if live:
        problems.append(f"{live} registered attempts still live")
    return problems


def grid_counters(grid: DataGrid) -> Dict[str, Any]:
    """Simulated-side layer counters, read the way RunMetrics reads them
    but also from a run that stopped early."""
    done = grid.completed_jobs
    return {
        "mb_moved": grid.transfers.total_mb_moved,
        "queue_wait_sim_s": _mean([j.queue_time for j in done]),
        "transfer_wait_sim_s": _mean([j.transfer_time for j in done]),
        "peak_queue_depth": max(s.peak_queue_depth
                                for s in grid.sites.values()),
        "replications_done": grid.datamover.replications_done,
        "replications_skipped": grid.datamover.replications_skipped,
        "submitted": len(grid.submitted_jobs),
        "shed": len(grid.shed_jobs),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- one simulated run --------------------------------------------------------

def run_pair(workload: Workload, es: str, ds: str, seed: int,
             on_built=None) -> Dict[str, Any]:
    """Generate, build and run one pair; time each part; check the result.

    ``on_built`` is called between build and run (the traced mode uses
    it to install spans so that set-up is never spanned).  A run that
    raises (an :class:`~repro.watchdog.InvariantViolation` included) is
    reported with ``ok=False`` and its message; so is one that finishes
    but breaks conservation, the final watchdog audit, or — for
    ``domain_trace`` workloads — trace↔metrics cross-validation.
    """
    config = workload.config
    t0 = time.perf_counter()
    generated = make_workload(config, seed)
    t1 = time.perf_counter()
    tracer = Tracer() if workload.domain_trace else None
    sim, grid = build_grid(config, es, ds, generated, seed, tracer=tracer)
    t2 = time.perf_counter()
    after_run = on_built() if on_built is not None else None
    error: Optional[str] = None
    makespan = None
    t3 = time.perf_counter()
    try:
        makespan = grid.run()
    except Exception as exc:  # noqa: BLE001 - a failed run is data
        error = f"{type(exc).__name__}: {exc}"
    t4 = time.perf_counter()
    if after_run is not None:
        after_run()
    jobs = [job for user_jobs in generated.user_jobs.values()
            for job in user_jobs]
    out: Dict[str, Any] = {
        "es": es, "ds": ds, "seed": seed,
        "generate_s": t1 - t0, "build_s": t2 - t1, "setup_s": [t2 - t0],
        "run_s": t4 - t3, "jobs": terminal_jobs(jobs),
    }
    if error is None:
        try:
            (grid.watchdog or Watchdog(sim, grid)).check_now()
        except InvariantViolation as exc:
            error = f"{type(exc).__name__}: {exc}"
    problems: List[str] = []
    out["metrics"] = None
    metrics = None
    if error is None:
        problems = conservation_problems(grid, jobs)
        try:
            metrics = RunMetrics.from_grid(grid, makespan)
            out["metrics"] = dataclasses.asdict(metrics)
        except ValueError as exc:
            problems.append(f"metrics unavailable: {exc}")
    out["counters"] = grid_counters(grid)
    if tracer is not None:
        # Written like a user's trace run would, then removed: the cost
        # of writing is measured, the file itself is not needed.
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload.name}-{os.getpid()}.jsonl"
        t5 = time.perf_counter()
        write_jsonl(tracer.records, path)
        out["jsonl_s"] = time.perf_counter() - t5
        path.unlink()
        if error is None and metrics is not None:
            diff = mismatches(tracer.records, metrics)
            if diff:
                problems.append(f"trace/metrics cross-validation: {diff}")
    out["error"] = error
    out["problems"] = problems
    # The outcome fingerprint: metrics for a finished run, the stop point
    # and message for a failed one.  Traced and untraced runs must agree.
    out["digest"] = digest(out["metrics"] if error is None
                           else [error, sim.now, out["jobs"]])
    return out


# -- the campaign path --------------------------------------------------------

#: (host seconds, terminal jobs) of each ``grid.run`` in this process;
#: a pool worker's own scratch, read back by :func:`timed_execute_spec`.
_GRID_RUNS: List[Tuple[float, int]] = []


def _timed_grid_run(original):
    def run(self):
        start = time.perf_counter()
        try:
            return original(self)
        finally:
            elapsed = time.perf_counter() - start
            _GRID_RUNS.append((elapsed, terminal_jobs(self.submitted_jobs)))
    return run


_stock_execute_spec = parallel.execute_spec


def timed_execute_spec(spec: RunSpec):
    """Pool entry point: the stock worker body plus its own host timings."""
    start = time.perf_counter()
    del _GRID_RUNS[:]
    metrics = _stock_execute_spec(spec)
    run_s, jobs = _GRID_RUNS[-1]
    return metrics, run_s, jobs, time.perf_counter() - start


def run_campaign(workload: Workload, seed: int) -> Dict[str, Any]:
    """The 12-pair campaign through ParallelRunner, timed from inside.

    Set-up of the 12 specs is timed three times first, in this process.  Then
    ``DataGrid.run`` and the worker entry point are wrapped before the
    pool forks, so each worker reports the host time of its own
    ``grid.run`` calls and of each whole spec.
    """
    setup = []
    for _ in range(3):
        # Each repetition starts without the last one's cyclic garbage,
        # and the pool forks from a process that holds none of it.
        gc.collect()
        setup.append(campaign_setup_s(workload, seed))
    gc.collect()
    workers = parallel_slots()
    specs = [RunSpec(workload.config, es, ds, seed)
             for es, ds in workload.pairs]
    original_run = DataGrid.run
    DataGrid.run = _timed_grid_run(original_run)
    parallel.execute_spec = timed_execute_spec
    try:
        runner = ParallelRunner(
            jobs=workers, mp_context=multiprocessing.get_context("fork"))
        start = time.perf_counter()
        results = runner.map(specs)
        wall = time.perf_counter() - start
    finally:
        parallel.execute_spec = _stock_execute_spec
        DataGrid.run = original_run
    runs = []
    for spec, (metrics, run_s, jobs, spec_s) in zip(specs, results):
        outcome = dataclasses.asdict(metrics)
        runs.append({"es": spec.es_name, "ds": spec.ds_name, "seed": seed,
                     "run_s": run_s, "spec_s": spec_s, "jobs": jobs,
                     "metrics": outcome, "digest": digest(outcome)})
    return {"runs": runs, "wall_s": wall, "workers": workers,
            "setup_s": setup,
            "run_s": sum(r["run_s"] for r in runs),
            "jobs": sum(r["jobs"] for r in runs),
            "digest": digest([r["metrics"] for r in runs])}


def campaign_setup_s(workload: Workload, seed: int) -> float:
    """Host seconds of make_workload + build_grid, summed over the pairs."""
    start = time.perf_counter()
    for es, ds in workload.pairs:
        build_grid(workload.config, es, ds,
                   make_workload(workload.config, seed), seed)
    return time.perf_counter() - start
