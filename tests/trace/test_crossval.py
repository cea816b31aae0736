"""Cross-validation: RunMetrics counters recomputed from the trace.

The metrics collector and the trace layer observe the same run through
independent code paths.  These tests demand *exact* agreement (integer
equality and same-order float sums) between the two on every shared
counter — in clean runs and under fault injection.
"""

import pytest

from repro.faults import FaultPlan, SiteOutage
from repro.experiments.runner import run_single
from repro.sim.trace import Tracer
from repro.trace.crossval import counters_from_trace, mismatches
from repro.trace.golden import golden_config


def _traced_run(config, es, ds):
    tracer = Tracer()
    metrics = run_single(config, es, ds, tracer=tracer)
    return tracer.records, metrics


class TestCleanRuns:
    @pytest.mark.parametrize("es,ds", [
        ("JobRandom", "DataDoNothing"),
        ("JobLeastLoaded", "DataRandom"),
        ("JobDataPresent", "DataLeastLoaded"),
        ("JobLocal", "DataRandom"),
    ])
    def test_trace_agrees_with_metrics(self, es, ds):
        records, metrics = _traced_run(golden_config(), es, ds)
        assert mismatches(records, metrics) == {}

    def test_counters_reflect_the_run(self):
        records, metrics = _traced_run(
            golden_config(), "JobLeastLoaded", "DataRandom")
        counters = counters_from_trace(records)
        assert counters.jobs_completed == 50
        assert counters.jobs_failed == 0
        assert counters.outages == 0
        # Same-order summation → exact float equality, not approximate.
        assert counters.fetch_traffic_mb == metrics.fetch_traffic_mb
        assert counters.replication_traffic_mb == \
            metrics.replication_traffic_mb


class TestFaultyRuns:
    def _faulty_config(self):
        plan = FaultPlan(
            site_outages=(SiteOutage("site01", 300.0, 1800.0),
                          SiteOutage("site03", 900.0, 2400.0)),
            transfer_fail_prob=0.05,
            seed=7,
        )
        return golden_config().with_(fault_plan=plan)

    @pytest.mark.parametrize("es,ds", [
        ("JobLeastLoaded", "DataDoNothing"),
        ("JobDataPresent", "DataRandom"),
    ])
    def test_trace_agrees_with_metrics_under_faults(self, es, ds):
        records, metrics = _traced_run(self._faulty_config(), es, ds)
        assert mismatches(records, metrics) == {}

    def test_fault_counters_are_exercised(self):
        records, metrics = _traced_run(
            self._faulty_config(), "JobLeastLoaded", "DataDoNothing")
        counters = counters_from_trace(records)
        assert counters.outages == 2
        assert counters.outages == metrics.outages
        # The outage windows overlap the run, so recovery machinery must
        # actually fire — otherwise the fault kinds are untested.
        assert counters.jobs_retried == metrics.jobs_retried
        assert counters.failovers == metrics.failovers
        assert counters.transfers_failed == metrics.transfers_failed


class TestOverloadedRuns:
    def _overloaded_config(self):
        return golden_config().with_(
            queue_capacity=2,
            deflect_budget=1,
            job_deadline_s=2_000.0,
            storage_reservations=True,
            arrival_rate_per_s=0.3,
        )

    @pytest.mark.parametrize("es,ds", [
        ("JobLeastLoaded", "DataDoNothing"),
        ("JobDataPresent", "DataRandom"),
    ])
    def test_trace_agrees_with_metrics_under_overload(self, es, ds):
        records, metrics = _traced_run(self._overloaded_config(), es, ds)
        assert mismatches(records, metrics) == {}

    def test_degradation_counters_are_exercised(self):
        records, metrics = _traced_run(
            self._overloaded_config(), "JobLeastLoaded", "DataDoNothing")
        counters = counters_from_trace(records)
        # The stream is well past the service rate: the shed/expiry
        # trace kinds must actually fire for the agreement to mean
        # anything.
        assert counters.jobs_shed + counters.jobs_expired > 0
        assert counters.jobs_shed == metrics.jobs_shed
        assert counters.jobs_deflected == metrics.jobs_deflected
        assert counters.jobs_expired == metrics.jobs_expired


class TestDataLossRuns:
    """Bit-rot with detection only: some fetches read the last replica
    of a dataset, get corrupt bytes, and end because no clean copy is
    left to fail over to."""

    def test_failed_fetch_of_a_lost_dataset_is_traced(self):
        plan = FaultPlan(corruption_mtbf_s=1500.0)
        records, metrics = _traced_run(
            golden_config().with_(fault_plan=plan),
            "JobLeastLoaded", "DataRandom")
        assert metrics.datasets_lost > 0
        # The attempt that found the dataset lost is failed and traced
        # like any other, but no failover follows it.
        final = [r for r in records if r.kind == "transfer.retry"
                 and not r.detail["retry"]]
        assert final
        assert mismatches(records, metrics) == {}
