"""Micro-benchmarks of the data-durability layer.

Durability rides along on every read once armed — a checksum
verification per local hit and per delivery, a scrubber sweep over all
resident replicas at each period, and catalog-listener bookkeeping on
every (de)registration.  Its cost is measured four ways: the
durability-off baseline every default run pays (the
zero-cost-when-off claim), the same workload with verification and the
scrubber armed, a repair churn loop exercising the re-replication
path end to end, and the per-read verification path in isolation.

The numbers accumulate into ``benchmarks/results/durability.json`` and
the top-level ``BENCH_durability.json`` — the committed baseline that
``benchmarks/compare.py`` gates in CI.
"""

import random

from repro.grid import DataGrid, Dataset, DatasetCollection, Job
from repro.grid.durability import DurabilityPolicy
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLeastLoaded
from repro.sim import Simulator

from common import benchmark_stats, publish_json

_METRICS = {}

N_JOBS = 400
N_REPAIRS = 200
N_VERIFICATIONS = 50_000

SCRUBBED = DurabilityPolicy(scrub_interval_s=60.0)
RF2 = DurabilityPolicy(replication_factor=2, repair=True)


def _record(name: str, benchmark, work_items: int) -> None:
    """Fold one benchmark's timing into the durability baseline record."""
    stats = benchmark_stats(benchmark)
    if not stats:  # --benchmark-disable: nothing measured
        return
    _METRICS[f"{name}_mean_s"] = stats["mean_s"]
    _METRICS[f"{name}_min_s"] = stats["min_s"]
    _METRICS[f"{name}_per_s"] = work_items / stats["mean_s"]
    publish_json(
        "durability",
        _METRICS,
        meta={"units": "per_s = work items (completed jobs/repairs/"
                       "verifications) per second of mean wall-clock"},
        higher_is_better=[k for k in _METRICS if k.endswith("_per_s")],
        top_level="BENCH_durability.json",
    )


def _make_grid(policy, seed_everywhere=True):
    sim = Simulator()
    topology = Topology.star(8, 10.0)
    datasets = DatasetCollection([Dataset("d0", 500)])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=JobLeastLoaded(random.Random(1)),
        local_scheduler=FIFOLocalScheduler(),
        dataset_scheduler=DataDoNothing(),
        site_processors={name: 2 for name in topology.sites},
        storage_capacity_mb=50_000,
        datamover_rng=random.Random(0),
        durability_policy=policy,
        durability_rng=random.Random(0) if policy is not None else None,
    )
    grid.place_initial_replicas({"d0": "site00"})
    if seed_everywhere:
        # d0 everywhere: every fetch is a local hit, so what's measured
        # is the layer's per-read bookkeeping, not transfer time.
        d0 = datasets.get("d0")
        for name in topology.sites:
            if name != "site00":
                grid.storages[name].add(d0, 0.0)
                grid.catalog.register("d0", name, size_mb=d0.size_mb)
    return sim, grid


def _run_workload(policy):
    """Complete N_JOBS short uniform jobs on a clean 8-site grid."""
    sim, grid = _make_grid(policy)
    done = [grid.submit(Job(i, "user", "site00", ["d0"], 50.0))
            for i in range(N_JOBS)]
    sim.run(until=sim.all_of(done))
    return grid


def test_run_baseline(benchmark):
    """Durability layer absent: the cost every default run pays."""
    grid = benchmark(_run_workload, None)
    assert grid.layers.durability is None
    assert len(grid.completed_jobs) == N_JOBS
    _record("run_baseline", benchmark, work_items=N_JOBS)


def test_run_scrubber_armed(benchmark):
    """Checksum-per-read plus a 60 s scrubber on a clean grid.

    Nothing is ever corrupt, so every verification and every sweep is
    bookkeeping — the steady-state tax integrity checking charges.
    """
    grid = benchmark(_run_workload, SCRUBBED)
    durability = grid.layers.durability
    assert durability is not None
    assert durability.stats.verifications > 0
    assert durability.stats.scrub_passes > 0
    assert durability.stats.replicas_quarantined == 0
    assert len(grid.completed_jobs) == N_JOBS
    _record("run_scrubber_armed", benchmark, work_items=N_JOBS)


def test_repair_churn(benchmark):
    """The re-replication path end to end: lose a copy, repair it back.

    One primary, RF=2: the audit creates the second copy, then the
    driver destroys the non-primary copy N_REPAIRS times and waits for
    the RepairManager to restore the factor after each loss.
    """

    def run():
        sim, grid = _make_grid(RF2, seed_everywhere=False)
        durability = grid.layers.durability

        def driver():
            while grid.catalog.replica_count("d0") < 2:
                yield sim.timeout(60.0)
            for _ in range(N_REPAIRS):
                extra = [s for s in grid.catalog.locations("d0")
                         if s != "site00"][0]
                durability.lose_replica(extra, "d0")
                while grid.catalog.replica_count("d0") < 2:
                    yield sim.timeout(60.0)

        process = sim.process(driver(), name="churn")
        sim.run(until=process)
        return durability

    durability = benchmark(run)
    assert durability.stats.replicas_repaired == N_REPAIRS + 1
    assert durability.stats.replicas_lost == N_REPAIRS
    assert durability.stats.datasets_lost == 0
    _record("repair_churn", benchmark, work_items=N_REPAIRS)


def test_verification_path(benchmark):
    """The per-read checksum check in isolation, on a clean copy."""
    _, grid = _make_grid(SCRUBBED)
    durability = grid.layers.durability

    def run():
        for _ in range(N_VERIFICATIONS):
            durability.verify_local("site01", "d0")
        return durability

    durability = benchmark(run)
    assert durability.stats.replicas_quarantined == 0
    _record("verification_path", benchmark, work_items=N_VERIFICATIONS)
