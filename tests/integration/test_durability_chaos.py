"""Durability acceptance: corruption + permanent rack loss, end to end.

One hostile plan — stochastic bit-rot plus a permanent rack-correlated
outage — drives two configurations of the same grid:

* **durable**: RF=2 with the RepairManager and a 300 s scrubber.  The
  acceptance bar is *zero data loss*: every dataset survives, every job
  completes, and repair traffic is accounted.
* **baseline**: detection only (RF=1, no repair).  Corruption and the
  rack loss destroy sole copies; the affected datasets must be recorded
  lost and their dependent jobs retired through the terminal
  ``abandon-data-lost`` edge — never left in limbo.

Both runs must be bitwise-deterministic across worker counts and cache
replays, and their trace streams must cross-validate exactly against
the metrics collector.
"""

import dataclasses

import pytest

from repro import FaultPlan, SimulationConfig, build_grid, make_workload
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.runner import run_single
from repro.faults.plan import OutageGroup
from repro.sim.trace import Tracer
from repro.trace.crossval import counters_from_trace, mismatches

pytestmark = pytest.mark.slow

PLAN = FaultPlan(
    # The whole "rack" (site03) vanishes for good mid-run.
    outage_groups=(OutageGroup(("site03",), 6_000.0),),
    # Grid-wide bit-rot: roughly one silent corruption every 8000 s.
    corruption_mtbf_s=8_000.0,
    job_max_retries=10,
    redispatch_delay_s=10.0,
    seed=5,
)
BASE = SimulationConfig.paper().scaled(0.15).with_(
    fault_plan=PLAN, watchdog=True)
DURABLE = BASE.with_(replication_factor=2, durability_repair=True,
                     scrub_interval_s=300.0)
BASELINE = BASE.with_(scrub_interval_s=300.0)  # detection only
ES, DS = "JobDataPresent", "DataRandom"


def traced_run(config):
    tracer = Tracer()
    metrics = run_single(config, ES, DS, seed=0, tracer=tracer)
    return tracer.records, metrics


@pytest.fixture(scope="module")
def durable_run():
    return traced_run(DURABLE)


@pytest.fixture(scope="module")
def baseline_run():
    return traced_run(BASELINE)


class TestRepairOnSurvives:
    def test_zero_data_loss(self, durable_run):
        _, metrics = durable_run
        assert metrics.datasets_lost == 0
        assert metrics.jobs_abandoned_data_lost == 0

    def test_faults_actually_fired(self, durable_run):
        _, metrics = durable_run
        assert metrics.replicas_corrupted > 0
        assert metrics.outages > 0

    def test_every_job_completes(self, durable_run):
        _, metrics = durable_run
        assert metrics.n_jobs == BASE.n_jobs
        assert metrics.jobs_failed == 0
        assert metrics.completion_rate == 1.0

    def test_repairs_ran_and_are_accounted(self, durable_run):
        records, metrics = durable_run
        assert metrics.replicas_repaired > 0
        assert metrics.repair_bytes_mb > 0.0
        assert metrics.mean_repair_latency_s > 0.0
        done = [r for r in records if r.kind == "repair.done"]
        assert len(done) == metrics.replicas_repaired

    def test_inputs_were_verified(self):
        # Grid-level rerun of the same spec: checksum verification must
        # have guarded reads, and no corrupt copy may survive a scrub
        # interval undetected while still cataloged at run end.
        workload = make_workload(DURABLE, seed=0)
        sim, grid = build_grid(DURABLE, ES, DS, workload, seed=0)
        grid.run()
        durability = grid.layers.durability
        assert durability is not None
        assert durability.stats.verifications > 0
        assert durability.stats.replicas_quarantined > 0
        for name in grid.datasets.names:
            assert grid.catalog.replica_count(name) > 0, name


class TestRepairOffRecordsLoss:
    def test_data_was_lost(self, baseline_run):
        _, metrics = baseline_run
        assert metrics.datasets_lost > 0
        assert metrics.replicas_repaired == 0
        assert metrics.repair_bytes_mb == 0.0

    def test_dependent_jobs_take_terminal_edge(self, baseline_run):
        records, metrics = baseline_run
        assert metrics.jobs_abandoned_data_lost > 0
        abandoned = [r for r in records
                     if r.kind == "job.abandoned_data_lost"]
        assert len(abandoned) == metrics.jobs_abandoned_data_lost
        lost = {r.detail["dataset"] for r in records
                if r.kind == "dataset.lost"}
        assert lost, "loss must be traced"
        assert all(r.detail["dataset"] in lost for r in abandoned)

    def test_books_still_balance(self, baseline_run):
        _, metrics = baseline_run
        assert (metrics.n_jobs + metrics.jobs_failed
                + metrics.jobs_abandoned_data_lost) == BASE.n_jobs


class TestCrossValidation:
    def test_durable_trace_matches_metrics_exactly(self, durable_run):
        records, metrics = durable_run
        assert mismatches(records, metrics) == {}

    def test_baseline_trace_matches_metrics_exactly(self, baseline_run):
        records, metrics = baseline_run
        assert mismatches(records, metrics) == {}

    def test_repair_bytes_sum_exactly(self, durable_run):
        records, metrics = durable_run
        counters = counters_from_trace(records)
        assert counters.repair_traffic_mb == metrics.repair_bytes_mb


class TestDeterminism:
    SPECS = [RunSpec(DURABLE, ES, DS, 0), RunSpec(BASELINE, ES, DS, 0)]

    @staticmethod
    def fingerprints(metrics_list):
        return [dataclasses.asdict(m) for m in metrics_list]

    def test_worker_count_invariance(self):
        serial = self.fingerprints(ParallelRunner(jobs=1).map(self.SPECS))
        pooled = self.fingerprints(ParallelRunner(jobs=2).map(self.SPECS))
        assert pooled == serial

    def test_cache_replay_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_runner = ParallelRunner(jobs=1, cache_dir=cache_dir)
        cold = self.fingerprints(cold_runner.map(self.SPECS))
        warm_runner = ParallelRunner(jobs=1, cache_dir=cache_dir)
        warm = self.fingerprints(warm_runner.map(self.SPECS))
        assert warm_runner.cache.hits == len(self.SPECS)
        assert warm == cold

    def test_durability_knobs_participate_in_cache_key(self):
        durable, baseline = self.SPECS
        assert durable.cache_key() != baseline.cache_key()
