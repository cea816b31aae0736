"""Unit tests for the paper's four External Scheduler algorithms."""

import random

import pytest

from repro.scheduling import (
    JobDataPresent,
    JobLeastLoaded,
    JobLocal,
    JobRandom,
)

from tests.scheduling.conftest import build_grid, load_site, make_job


class TestJobLocal:
    def test_always_origin(self, star_grid):
        _, grid = star_grid
        es = JobLocal()
        for origin in grid.sites:
            job = make_job(origin=origin)
            assert es.select_site(job, grid) == origin

    def test_ignores_load(self, star_grid):
        _, grid = star_grid
        load_site(grid, "site00", 10)
        assert JobLocal().select_site(make_job(origin="site00"), grid) == \
            "site00"


class TestJobRandom:
    def test_uniform_coverage(self, star_grid):
        _, grid = star_grid
        es = JobRandom(random.Random(0))
        picks = {es.select_site(make_job(), grid) for _ in range(200)}
        assert picks == set(grid.sites)

    def test_deterministic_under_seed(self, star_grid):
        _, grid = star_grid
        seq1 = [JobRandom(random.Random(5)).select_site(make_job(), grid)
                for _ in range(1)]
        seq2 = [JobRandom(random.Random(5)).select_site(make_job(), grid)
                for _ in range(1)]
        assert seq1 == seq2

    def test_no_available_site_is_a_value_error(self, star_grid):
        """Like ``least_loaded``: a wedge the grid's fallback can answer."""
        _, grid = star_grid
        for name in grid.sites:
            grid.info.mark_site_down(name)
        with pytest.raises(ValueError, match="no candidate sites"):
            JobRandom(random.Random(0)).select_site(make_job(), grid)

    @pytest.mark.parametrize("ds_name", ["DataDoNothing", "DataRandom"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_false_suspicions_take_the_health_fallback(
            self, ds_name, seed, monkeypatch):
        """Heavy heartbeat jitter hides every site; the health layer's
        fallback places the job and every run finishes."""
        from repro.experiments.runner import run_single
        from repro.grid.health import HealthMonitor
        from repro.trace.golden import golden_config

        fallbacks = []
        original = HealthMonitor.select_fallback

        def counted(monitor, job):
            fallbacks.append(job.job_id)
            return original(monitor, job)

        monkeypatch.setattr(HealthMonitor, "select_fallback", counted)
        config = golden_config().with_(
            health_heartbeat_s=30, health_heartbeat_jitter=0.9,
            health_phi_threshold=1.05, health_probe_interval_s=600)
        metrics = run_single(config, "JobRandom", ds_name, seed=seed)
        assert fallbacks
        assert metrics.n_jobs == 50 and metrics.jobs_failed == 0


class TestJobLeastLoaded:
    def test_avoids_loaded_site(self, star_grid):
        _, grid = star_grid
        load_site(grid, "site00", 8)
        load_site(grid, "site01", 8)
        es = JobLeastLoaded(random.Random(0))
        for _ in range(20):
            assert es.select_site(make_job(), grid) in ("site02", "site03")

    def test_tie_break_spreads(self, star_grid):
        _, grid = star_grid
        es = JobLeastLoaded(random.Random(0))
        picks = {es.select_site(make_job(), grid) for _ in range(100)}
        assert len(picks) > 1

    def test_picks_unique_minimum(self, star_grid):
        _, grid = star_grid
        for site in ("site00", "site01", "site02"):
            load_site(grid, site, 4)
        es = JobLeastLoaded(random.Random(0))
        assert es.select_site(make_job(), grid) == "site03"


class TestJobDataPresent:
    def test_goes_to_data(self, star_grid):
        _, grid = star_grid
        es = JobDataPresent(random.Random(0))
        job = make_job(inputs=("d2",), origin="site00")
        assert es.select_site(job, grid) == "site02"

    def test_least_loaded_among_holders(self, star_grid):
        _, grid = star_grid
        grid.catalog.register("d2", "site03")  # two holders now
        load_site(grid, "site02", 8)
        es = JobDataPresent(random.Random(0))
        job = make_job(inputs=("d2",))
        assert es.select_site(job, grid) == "site03"

    def test_multi_input_requires_all(self, star_grid):
        _, grid = star_grid
        grid.catalog.register("d0", "site02")  # site02 has d0 and d2
        es = JobDataPresent(random.Random(0))
        job = make_job(inputs=("d0", "d2"))
        assert es.select_site(job, grid) == "site02"

    def test_multi_input_partial_falls_back_to_most_bytes(self, star_grid):
        _, grid = star_grid
        # No site has both d0 and d1; both are 500 MB, so the least loaded
        # of the two single-holders is chosen.
        load_site(grid, "site00", 8)
        es = JobDataPresent(random.Random(0))
        job = make_job(inputs=("d0", "d1"))
        assert es.select_site(job, grid) == "site01"

    def test_respects_cached_replicas(self, star_grid):
        sim, grid = star_grid
        p = grid.datamover.ensure_local("site03", "d0")
        sim.run(until=p)
        load_site(grid, "site00", 8)
        es = JobDataPresent(random.Random(0))
        assert es.select_site(make_job(inputs=("d0",)), grid) == "site03"


def _reference_most_bytes(job, grid, rng):
    """Brute-force most-bytes-present: full scan of sites × inputs.

    The pre-index implementation of JobDataPresent's fallback; the
    indexed version must select identical sites and consume the rng
    identically.
    """
    best_bytes = -1.0
    best_sites = []
    for site in grid.info.site_names:
        present = sum(grid.datasets.get(f).size_mb
                      for f in job.input_files
                      if grid.catalog.has_replica(f, site))
        if present > best_bytes:
            best_bytes, best_sites = present, [site]
        elif present == best_bytes:
            best_sites.append(site)
    if best_bytes <= 0.0:
        return grid.info.least_loaded(rng=rng)
    if len(best_sites) > 1:
        return grid.info.least_loaded(best_sites, rng=rng)
    return best_sites[0]


class TestMostBytesPresentEquivalence:
    """The per-site byte index must not change scheduling decisions."""

    CASES = (
        ("d0", "d1"),          # tie: two 500 MB single-holders
        ("d0", "d1", "d2"),    # site02 holds d1+d2 -> unique winner
        ("d0",),               # unique holder
        ("d3",),               # nothing anywhere -> least-loaded fallback
        ("d0", "d3"),          # partial presence
    )

    def test_matches_reference_scan(self, star_grid):
        _, grid = star_grid
        grid.catalog.register("d1", "site02")  # site02: d1 + d2
        grid.catalog.deregister("d3", "site03")  # d3 now held nowhere
        load_site(grid, "site01", 5)
        es = JobDataPresent(random.Random(7))
        reference_rng = random.Random(7)
        for trial in range(10):
            for inputs in self.CASES:
                job = make_job(inputs=inputs)
                expected = _reference_most_bytes(job, grid,
                                                 reference_rng)
                assert es._most_bytes_present(job, grid) == expected


class TestNames:
    @pytest.mark.parametrize("cls,expected", [
        (JobLocal, "JobLocal"),
        (JobRandom, "JobRandom"),
        (JobLeastLoaded, "JobLeastLoaded"),
        (JobDataPresent, "JobDataPresent"),
    ])
    def test_registry_names(self, cls, expected):
        assert cls.name == expected
