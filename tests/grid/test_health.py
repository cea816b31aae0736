"""The observed failure detector: heartbeats, breakers, probes.

Scenario engineering notes: sites beat every 10 s; a scripted outage
silences one site, so the detector's phi (silence over windowed mean
interval) crosses its threshold a few ticks later — *detection latency*,
not oracle knowledge.  Recovery is probed through the half-open breaker
with capped-exponential backoff and closes only after consecutive
successes.
"""

import random

import pytest

from repro.faults import FaultPlan, SiteOutage
from repro.grid import DataGrid, Dataset, DatasetCollection, Job
from repro.grid.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    LINK_FAILURE_THRESHOLD,
    HealthMonitor,
    HealthPolicy,
)
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.sim import Simulator
from repro.sim.trace import Tracer


def make_grid(policy, plan=None, tracer=None, health_seed=0):
    """A 4-site star grid with the health monitor installed."""
    sim = Simulator()
    topology = Topology.star(4, 10.0)
    datasets = DatasetCollection([
        Dataset("d0", 500),
        Dataset("d1", 1000),
    ])
    grid = DataGrid.create(
        sim=sim,
        topology=topology,
        datasets=datasets,
        external_scheduler=JobLocal(),
        local_scheduler=FIFOLocalScheduler(),
        dataset_scheduler=DataDoNothing(),
        site_processors={name: 2 for name in topology.sites},
        storage_capacity_mb=10_000,
        datamover_rng=random.Random(0),
        fault_plan=plan,
        fault_rng=random.Random(0) if plan is not None else None,
        health_policy=policy,
        health_rng=random.Random(health_seed),
        tracer=tracer,
    )
    grid.place_initial_replicas({"d0": "site00", "d1": "site01"})
    return sim, grid


BEAT = HealthPolicy(heartbeat_interval_s=10.0, phi_threshold=3.0,
                    probe_interval_s=15.0, probe_backoff_cap_s=30.0)


class TestPolicyValidation:
    def test_defaults_are_null(self):
        assert HealthPolicy().is_null

    def test_monitor_rejects_null_policy(self):
        sim, grid = make_grid(None)
        with pytest.raises(ValueError, match="null health policy"):
            HealthMonitor(sim, grid, HealthPolicy())

    def test_negative_heartbeat_rejected(self):
        with pytest.raises(ValueError, match="heartbeat interval"):
            HealthPolicy(heartbeat_interval_s=-1.0)

    def test_phi_must_exceed_one(self):
        with pytest.raises(ValueError, match="phi threshold"):
            HealthPolicy(heartbeat_interval_s=10.0, phi_threshold=1.0)

    def test_observed_only_needs_heartbeats(self):
        with pytest.raises(ValueError, match="observed_only"):
            HealthPolicy(observed_only=True)

    def test_probe_cap_below_interval_rejected(self):
        with pytest.raises(ValueError, match="probe backoff cap"):
            HealthPolicy(heartbeat_interval_s=10.0, probe_interval_s=60.0,
                         probe_backoff_cap_s=30.0)


class TestInstallation:
    def test_no_policy_leaves_every_layer_bare(self):
        _, grid = make_grid(None)
        assert grid.layers.health is None
        assert grid.layers.usable == grid.layers.delivery == ()

    def test_monitor_wires_every_layer(self):
        _, grid = make_grid(BEAT)
        monitor = grid.layers.health
        assert monitor is not None
        assert grid.datamover.layers is grid.layers
        for point in ("usable", "select_fallback", "source_choice",
                      "delivery", "replication_veto"):
            assert getattr(grid.layers, point) == (monitor,)
        assert sorted(monitor.site_breakers) == sorted(grid.sites)
        assert all(b.state is CLOSED
                   for b in monitor.site_breakers.values())


class TestDetection:
    PLAN = FaultPlan(site_outages=[SiteOutage("site02", 100.0, 400.0)])

    def test_outage_is_detected_with_latency(self):
        sim, grid = make_grid(BEAT, plan=self.PLAN)
        monitor = grid.layers.health
        sim.run(until=99.0)
        assert monitor.site_breakers["site02"].state is CLOSED
        sim.run(until=200.0)
        # Silence since the last beat (~100 s) crossed 3x the ~10 s mean
        # interval around t=130; the breaker is open well before 200.
        assert monitor.site_breakers["site02"].state is OPEN
        assert monitor.stats.suspicions >= 1
        assert monitor.stats.detections >= 1
        assert monitor.stats.false_suspicions == 0
        # Latency is positive (observed, not oracle) and bounded by the
        # phi threshold: ~3 heartbeat intervals plus one detector tick.
        latency = monitor.stats.mean_detection_latency_s
        assert 0.0 < latency <= 4 * BEAT.heartbeat_interval_s

    def test_healthy_sites_stay_closed(self):
        sim, grid = make_grid(BEAT, plan=self.PLAN)
        sim.run(until=600.0)
        for name in ("site00", "site01", "site03"):
            assert grid.layers.health.site_breakers[name].state is CLOSED

    def test_probes_restore_after_recovery(self):
        sim, grid = make_grid(BEAT, plan=self.PLAN)
        monitor = grid.layers.health
        sim.run(until=390.0)
        assert monitor.site_breakers["site02"].state in (OPEN, HALF_OPEN)
        assert monitor.stats.probes >= 1
        sim.run(until=600.0)
        # The outage ended at 400; two consecutive probe successes (15 s
        # base, 30 s cap) close the breaker shortly after.
        assert monitor.site_breakers["site02"].state is CLOSED
        assert monitor.stats.breaker_restores >= 1
        assert "site02" in grid.info.site_names

    def test_suspect_site_hidden_from_info(self):
        sim, grid = make_grid(BEAT, plan=self.PLAN)
        sim.run(until=200.0)
        assert "site02" not in grid.info.site_names
        assert not grid.layers.health.allows("site02")
        assert not grid.layers.health.allow_replication("site02")

    def test_trace_records_full_cycle(self):
        tracer = Tracer()
        sim, grid = make_grid(BEAT, plan=self.PLAN, tracer=tracer)
        sim.run(until=600.0)
        kinds = [r.kind for r in tracer.records]
        suspect = kinds.index("health.suspect")
        trip = kinds.index("health.trip")
        probe = kinds.index("health.probe")
        restore = kinds.index("health.restore")
        assert suspect < trip < probe < restore


class TestFalsePositives:
    def test_jittered_beats_with_tight_threshold_cry_wolf(self):
        policy = HealthPolicy(heartbeat_interval_s=10.0,
                              heartbeat_jitter=0.4,
                              phi_threshold=1.5,
                              probe_interval_s=15.0,
                              probe_backoff_cap_s=30.0)
        sim, grid = make_grid(policy)  # no faults: every suspicion wrong
        sim.run(until=5000.0)
        stats = grid.layers.health.stats
        assert stats.suspicions >= 1
        assert stats.false_suspicions == stats.suspicions
        assert stats.false_positive_rate == 1.0
        assert stats.detections == 0
        # Probes against a reachable site succeed immediately, so every
        # false trip was also restored.
        assert stats.breaker_restores >= 1

    def test_generous_threshold_stays_quiet(self):
        policy = HealthPolicy(heartbeat_interval_s=10.0,
                              heartbeat_jitter=0.4,
                              phi_threshold=6.0)
        sim, grid = make_grid(policy)
        sim.run(until=5000.0)
        assert grid.layers.health.stats.suspicions == 0
        assert grid.layers.health.stats.false_positive_rate == 0.0


class TestDispatchFeedback:
    def test_dispatch_failure_trips_the_breaker(self):
        sim, grid = make_grid(BEAT)
        monitor = grid.layers.health
        monitor.record_dispatch_failure("site03")
        assert monitor.site_breakers["site03"].state is OPEN
        assert monitor.stats.breaker_trips == 1
        assert "site03" not in grid.info.site_names

    def test_second_trip_is_idempotent(self):
        sim, grid = make_grid(BEAT)
        monitor = grid.layers.health
        monitor.record_dispatch_failure("site03")
        monitor.record_dispatch_failure("site03")
        assert monitor.stats.breaker_trips == 1


class TestLinkBreakers:
    def test_opens_after_threshold_consecutive_failures(self):
        sim, grid = make_grid(BEAT)
        monitor = grid.layers.health
        for _ in range(LINK_FAILURE_THRESHOLD - 1):
            monitor.record_transfer_failure("site00", "site01")
        assert not monitor.link_open("site00", "site01")
        monitor.record_transfer_failure("site01", "site00")  # either order
        assert monitor.link_open("site00", "site01")
        assert monitor.link_open("site01", "site00")

    def test_success_resets_and_closes(self):
        sim, grid = make_grid(BEAT)
        monitor = grid.layers.health
        for _ in range(LINK_FAILURE_THRESHOLD):
            monitor.record_transfer_failure("site00", "site01")
        assert monitor.link_open("site00", "site01")
        monitor.record_transfer_success("site00", "site01")
        assert not monitor.link_open("site00", "site01")
        breaker = monitor.link_breakers[("site00", "site01")]
        assert breaker.failures == 0

    def test_success_interleaved_prevents_trip(self):
        sim, grid = make_grid(BEAT)
        monitor = grid.layers.health
        for _ in range(10):
            monitor.record_transfer_failure("site00", "site01")
            monitor.record_transfer_success("site00", "site01")
        assert not monitor.link_open("site00", "site01")

    def test_local_copies_ignored(self):
        sim, grid = make_grid(BEAT)
        monitor = grid.layers.health
        for _ in range(10):
            monitor.record_transfer_failure("site00", "site00")
        assert not monitor.link_breakers

    def test_open_link_deprioritizes_source_not_bans_it(self):
        """A source behind an open link is still used when it holds the
        only replica — and the successful fetch closes the breaker."""
        sim, grid = make_grid(BEAT)
        monitor = grid.layers.health
        for _ in range(LINK_FAILURE_THRESHOLD):
            monitor.record_transfer_failure("site00", "site03")
        assert monitor.link_open("site00", "site03")
        job = Job(job_id=1, user="u", origin_site="site03",
                  input_files=["d0"], runtime_s=10)  # d0 only at site00
        done = grid.submit(job)
        sim.run(until=done)
        assert job.response_time > 0
        assert not monitor.link_open("site00", "site03")


class TestObservedOnly:
    PLAN = FaultPlan(site_outages=[SiteOutage("site02", 100.0, 400.0)])
    POLICY = HealthPolicy(heartbeat_interval_s=10.0, phi_threshold=3.0,
                          probe_interval_s=15.0, probe_backoff_cap_s=30.0,
                          observed_only=True)

    def test_oracle_channel_is_cut(self):
        """The outage itself no longer hides the site — only the
        detector's trip does, a few intervals later."""
        sim, grid = make_grid(self.POLICY, plan=self.PLAN)
        sim.run(until=110.0)
        # Down since t=100, but the schedulers don't know yet.
        assert not grid.layers.faults.is_up("site02")
        assert "site02" in grid.info.site_names
        sim.run(until=200.0)
        # Now the detector noticed.
        assert "site02" not in grid.info.site_names

    def test_oracle_mode_marks_down_immediately(self):
        policy = HealthPolicy(heartbeat_interval_s=10.0, phi_threshold=3.0)
        sim, grid = make_grid(policy, plan=self.PLAN)
        sim.run(until=110.0)
        assert "site02" not in grid.info.site_names

    def test_jobs_complete_through_observed_detection(self):
        sim, grid = make_grid(self.POLICY, plan=self.PLAN)
        jobs = [Job(job_id=i, user="u", origin_site="site02",
                    input_files=["d0"], runtime_s=20) for i in range(4)]
        done = [grid.submit(job) for job in jobs]
        sim.run(until=sim.all_of(done))
        assert all(job.state.value == "done" for job in jobs)


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        def run(seed):
            tracer = Tracer()
            plan = FaultPlan(site_outages=[SiteOutage("site02", 100.0,
                                                      400.0)])
            policy = HealthPolicy(heartbeat_interval_s=10.0,
                                  heartbeat_jitter=0.3,
                                  phi_threshold=2.0,
                                  probe_interval_s=15.0,
                                  probe_backoff_cap_s=30.0,
                                  probe_jitter=0.2)
            sim, grid = make_grid(policy, plan=plan, tracer=tracer,
                                  health_seed=seed)
            sim.run(until=2000.0)
            return [(r.time, r.kind, tuple(sorted(r.detail.items())))
                    for r in tracer.records]

        assert run(7) == run(7)
        assert run(7) != run(8)
