"""Unit tests for the experiment runner (scaled-down configs)."""

import pytest

from repro import SimulationConfig, run_matrix, run_replicated, run_single
from repro.experiments.runner import build_grid, make_workload


@pytest.fixture(scope="module")
def small_config():
    return SimulationConfig.paper().scaled(0.05).with_(
        ds_check_interval_s=100.0)


class TestRunSingle:
    def test_completes_all_jobs(self, small_config):
        m = run_single(small_config, "JobLocal", "DataDoNothing")
        assert m.n_jobs == small_config.n_jobs
        assert m.avg_response_time_s > 0
        assert m.makespan_s > 0

    def test_deterministic_for_seed(self, small_config):
        m1 = run_single(small_config, "JobRandom", "DataRandom", seed=3)
        m2 = run_single(small_config, "JobRandom", "DataRandom", seed=3)
        assert m1.avg_response_time_s == m2.avg_response_time_s
        assert m1.avg_data_transferred_mb == m2.avg_data_transferred_mb
        assert m1.idle_fraction == m2.idle_fraction
        assert m1.makespan_s == m2.makespan_s

    def test_seeds_differ(self, small_config):
        m1 = run_single(small_config, "JobRandom", "DataRandom", seed=0)
        m2 = run_single(small_config, "JobRandom", "DataRandom", seed=1)
        assert m1.avg_response_time_s != m2.avg_response_time_s

    def test_explicit_workload_reused_fresh(self, small_config):
        workload = make_workload(small_config, seed=0)
        m1 = run_single(small_config, "JobLocal", "DataDoNothing",
                        workload=workload, seed=0)
        m2 = run_single(small_config, "JobLocal", "DataDoNothing",
                        workload=workload, seed=0)
        assert m1.avg_response_time_s == m2.avg_response_time_s

    def test_unknown_scheduler_names_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_single(small_config, "JobMagic", "DataDoNothing")
        with pytest.raises(ValueError):
            run_single(small_config, "JobLocal", "DataMagic")

    def test_adaptive_extension_runs(self, small_config):
        m = run_single(small_config, "JobAdaptive", "DataRandom")
        assert m.n_jobs == small_config.n_jobs

    def test_maxmin_allocator_runs(self, small_config):
        m = run_single(small_config.with_(allocator="max-min"),
                       "JobLocal", "DataDoNothing")
        assert m.n_jobs == small_config.n_jobs

    def test_alternative_topologies_run(self, small_config):
        # A ring needs >= 3 sites; the 0.05-scaled config has only 2.
        config = small_config.with_(n_sites=4)
        for topo in ("star", "ring", "random"):
            m = run_single(config.with_(topology=topo),
                           "JobDataPresent", "DataRandom")
            assert m.n_jobs == config.n_jobs

    def test_unknown_topology_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_single(small_config.with_(topology="torus"),
                       "JobLocal", "DataDoNothing")

    def test_sjf_local_scheduler_runs(self, small_config):
        m = run_single(small_config.with_(local_scheduler="SJF"),
                       "JobLeastLoaded", "DataRandom")
        assert m.n_jobs == small_config.n_jobs

    def test_multi_input_jobs_run(self, small_config):
        m = run_single(small_config.with_(inputs_per_job=2),
                       "JobDataPresent", "DataRandom")
        assert m.n_jobs == small_config.n_jobs


class TestBuildGrid:
    def test_processor_counts_in_range(self, small_config):
        workload = make_workload(small_config, seed=0)
        _, grid = build_grid(small_config, "JobLocal", "DataDoNothing",
                             workload, seed=0)
        for site in grid.sites.values():
            assert 2 <= site.compute.n_processors <= 5

    def test_processor_counts_same_across_algorithms(self, small_config):
        workload = make_workload(small_config, seed=0)
        _, g1 = build_grid(small_config, "JobLocal", "DataDoNothing",
                           workload.fresh(), seed=0)
        _, g2 = build_grid(small_config, "JobRandom", "DataRandom",
                           workload.fresh(), seed=0)
        assert {n: s.compute.n_processors for n, s in g1.sites.items()} == \
            {n: s.compute.n_processors for n, s in g2.sites.items()}

    def test_every_dataset_has_one_initial_replica(self, small_config):
        workload = make_workload(small_config, seed=0)
        _, grid = build_grid(small_config, "JobLocal", "DataDoNothing",
                             workload, seed=0)
        for name in workload.datasets.names:
            assert grid.catalog.replica_count(name) == 1


class TestReplication:
    def test_run_replicated_returns_per_seed(self, small_config):
        runs = run_replicated(small_config, "JobLocal", "DataDoNothing",
                              seeds=(0, 1))
        assert len(runs) == 2


class TestMatrix:
    def test_matrix_covers_all_pairs(self, small_config):
        result = run_matrix(small_config,
                            es_names=["JobLocal", "JobDataPresent"],
                            ds_names=["DataDoNothing", "DataRandom"],
                            seeds=(0,))
        assert set(result.runs) == {
            ("JobLocal", "DataDoNothing"),
            ("JobLocal", "DataRandom"),
            ("JobDataPresent", "DataDoNothing"),
            ("JobDataPresent", "DataRandom"),
        }

    def test_metric_matrix_means(self, small_config):
        result = run_matrix(small_config, es_names=["JobLocal"],
                            ds_names=["DataDoNothing"], seeds=(0, 1))
        values = result.metric_matrix("avg_response_time_s")
        runs = result.runs[("JobLocal", "DataDoNothing")]
        expected = sum(r.avg_response_time_s for r in runs) / 2
        assert values[("JobLocal", "DataDoNothing")] == pytest.approx(
            expected)

    def test_no_seeds_rejected(self, small_config):
        with pytest.raises(ValueError, match="no seeds"):
            run_matrix(small_config, seeds=())

    def test_summary_access(self, small_config):
        result = run_matrix(small_config, es_names=["JobLocal"],
                            ds_names=["DataDoNothing"], seeds=(0, 1))
        summary = result.summary("JobLocal", "DataDoNothing")
        assert summary["avg_response_time_s"].n == 2
