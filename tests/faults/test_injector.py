"""Unit tests for the FaultInjector against a small wired grid."""

import random

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkDegradation, SiteOutage
from repro.grid import DataGrid, Dataset, DatasetCollection
from repro.grid.datamover import DataUnavailableError
from repro.network import Topology
from repro.scheduling import DataDoNothing, FIFOLocalScheduler, JobLocal
from repro.sim import Simulator


def make_grid(plan=None, fault_seed=0):
    """A 4-site star grid, optionally built with a fault plan installed."""
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
        fault_rng=random.Random(fault_seed) if plan is not None else None,
    )
    grid.place_initial_replicas({"d0": "site00", "d1": "site01"})
    return sim, grid


class TestInstallation:
    def test_null_plan_installs_nothing(self):
        _, grid = make_grid(FaultPlan.none())
        assert grid.layers.faults is None
        assert grid.layers.admit == grid.layers.fetch == ()

    def test_injector_rejects_null_plan(self):
        sim, grid = make_grid()
        with pytest.raises(ValueError, match="null fault plan"):
            FaultInjector(sim, grid, FaultPlan.none())

    def test_active_plan_wires_every_layer(self):
        _, grid = make_grid(FaultPlan(transfer_fail_prob=0.5))
        faults = grid.layers.faults
        assert faults is not None
        assert grid.datamover.layers is grid.layers
        for point in ("admit", "usable", "fetch", "source_choice"):
            assert getattr(grid.layers, point) == (faults,)

    def test_unknown_site_rejected(self):
        plan = FaultPlan(site_outages=[SiteOutage("nowhere", 0.0, 10.0)])
        with pytest.raises(ValueError, match="unknown site"):
            make_grid(plan)

    def test_unknown_link_rejected(self):
        plan = FaultPlan(
            link_degradations=[LinkDegradation("site00", "site01", 0, 9, 0.5)])
        with pytest.raises(ValueError, match="nonexistent link"):
            make_grid(plan)


class TestScriptedOutages:
    def test_window_takes_site_down_and_back(self):
        plan = FaultPlan(site_outages=[SiteOutage("site02", 100.0, 400.0)])
        sim, grid = make_grid(plan)
        faults = grid.layers.faults
        assert faults.is_up("site02")
        sim.run(until=200.0)
        assert not faults.is_up("site02")
        assert "site02" not in grid.info.site_names
        sim.run(until=500.0)
        assert faults.is_up("site02")
        assert "site02" in grid.info.site_names

    def test_downtime_accounting_closed_window(self):
        plan = FaultPlan(site_outages=[SiteOutage("site02", 100.0, 400.0)])
        sim, grid = make_grid(plan)
        sim.run(until=1000.0)
        downtime = grid.layers.faults.downtime_per_site()
        assert downtime["site02"] == pytest.approx(300.0)
        assert downtime["site00"] == 0.0
        assert grid.layers.faults.total_downtime_s() == pytest.approx(300.0)

    def test_downtime_accounting_open_window(self):
        plan = FaultPlan(site_outages=[SiteOutage("site02", 100.0)])
        sim, grid = make_grid(plan)
        sim.run(until=600.0)
        faults = grid.layers.faults
        assert faults.downtime_per_site()["site02"] == pytest.approx(500.0)
        # Explicit horizon clips the open window.
        assert faults.downtime_per_site(horizon=300.0)["site02"] == \
            pytest.approx(200.0)

    def test_permanent_outage_invalidates_catalog_and_storage(self):
        plan = FaultPlan(site_outages=[SiteOutage("site01", 100.0)])
        sim, grid = make_grid(plan)
        assert grid.catalog.has_replica("d1", "site01")
        sim.run(until=200.0)
        faults = grid.layers.faults
        assert "site01" in faults.dead
        assert not faults.is_up("site01")
        assert not grid.catalog.has_replica("d1", "site01")
        assert grid.storages["site01"].files == []
        assert faults.replicas_invalidated == 1

    def test_outage_aborts_touching_transfers(self):
        plan = FaultPlan(site_outages=[SiteOutage("site00", 10.0, 1000.0)])
        sim, grid = make_grid(plan)
        # d0: 500 MB from site00 over two 10 MB/s hops -> 50 s unfaulted.
        fetch = grid.datamover.ensure_local("site02", "d0", best_effort=True)
        sim.run(until=fetch)
        assert grid.transfers.n_aborted >= 1
        assert fetch.value == 0.0  # best-effort fetch gave up
        assert "d0" not in grid.storages["site02"]


class TestOutageMechanics:
    def test_take_down_twice_is_noop(self):
        sim, grid = make_grid(FaultPlan(transfer_fail_prob=0.1))
        faults = grid.layers.faults
        assert faults.take_site_down("site03")
        assert not faults.take_site_down("site03")
        assert faults.outages_started == 1

    def test_bring_up_requires_down(self):
        sim, grid = make_grid(FaultPlan(transfer_fail_prob=0.1))
        assert not grid.layers.faults.bring_site_up("site03")

    def test_dead_site_never_comes_back(self):
        sim, grid = make_grid(FaultPlan(transfer_fail_prob=0.1))
        faults = grid.layers.faults
        faults.take_site_down("site03", permanent=True)
        assert not faults.bring_site_up("site03")
        assert not faults.is_up("site03")

    def test_recovery_event_fires_on_repair(self):
        sim, grid = make_grid(FaultPlan(transfer_fail_prob=0.1))
        faults = grid.layers.faults
        faults.take_site_down("site03")
        event = faults.recovery_event()
        assert not event.triggered
        faults.bring_site_up("site03")
        assert event.triggered

    def test_fallback_site_avoids_down_sites(self):
        sim, grid = make_grid(FaultPlan(transfer_fail_prob=0.1))
        faults = grid.layers.faults
        for name in ("site00", "site01", "site02"):
            faults.take_site_down(name)
        assert faults.fallback_site() == "site03"

    def test_grid_lost_wakes_waiters(self):
        sim, grid = make_grid(FaultPlan(transfer_fail_prob=0.1))
        faults = grid.layers.faults
        for name in ("site00", "site01", "site02"):
            faults.take_site_down(name, permanent=True)
        event = faults.recovery_event()
        assert not faults.grid_lost
        faults.take_site_down("site03", permanent=True)
        assert faults.grid_lost
        assert not faults.any_site_up()
        assert event.triggered  # parked supervisors must be able to bail out


class TestMtbfOutages:
    def test_mtbf_loop_produces_outages(self):
        plan = FaultPlan(site_mtbf_s=2000.0, site_mttr_s=500.0)
        sim, grid = make_grid(plan)
        sim.run(until=50_000.0)
        assert grid.layers.faults.outages_started > 0
        assert grid.layers.faults.total_downtime_s() > 0

    def test_mtbf_outages_deterministic_per_seed(self):
        plan = FaultPlan(site_mtbf_s=2000.0, site_mttr_s=500.0)

        def observe(fault_seed):
            sim, grid = make_grid(plan, fault_seed=fault_seed)
            sim.run(until=50_000.0)
            return (grid.layers.faults.outages_started,
                    grid.layers.faults.downtime_per_site())

        assert observe(1) == observe(1)
        assert observe(1) != observe(2)


class TestLinkDegradation:
    def test_window_scales_and_restores_capacity(self):
        plan = FaultPlan(
            link_degradations=[
                LinkDegradation("site00", "hub", 100.0, 400.0, 0.25)])
        sim, grid = make_grid(plan)
        link = grid.topology.link_between("site00", "hub")
        assert link.capacity_mbps == 10.0
        sim.run(until=200.0)
        assert link.capacity_mbps == pytest.approx(2.5)
        assert link.base_capacity_mbps == 10.0  # undegraded rating kept
        sim.run(until=500.0)
        assert link.capacity_mbps == 10.0

    def test_dead_link_stalls_transfer_until_failover(self):
        # The only route to d0 crosses a dead link; the fetch must abort on
        # timeout and eventually give up (no alternate replica exists).
        plan = FaultPlan(
            link_degradations=[
                LinkDegradation("site00", "hub", 0.0, 1e9, 0.0)],
            transfer_max_retries=1,
            transfer_backoff_base_s=1.0,
            transfer_backoff_cap_s=1.0,
            transfer_timeout_min_s=60.0,
        )
        sim, grid = make_grid(plan)
        fetch = grid.datamover.ensure_local("site02", "d0")
        with pytest.raises(DataUnavailableError):
            sim.run(until=fetch)
        assert grid.datamover.transfers_failed >= 1


class TestTransferSabotage:
    def test_certain_drop_aborts_every_attempt(self):
        plan = FaultPlan(
            transfer_fail_prob=1.0,
            transfer_max_retries=2,
            transfer_backoff_base_s=1.0,
            transfer_backoff_cap_s=1.0,
        )
        sim, grid = make_grid(plan)
        fetch = grid.datamover.ensure_local("site02", "d0")
        with pytest.raises(DataUnavailableError):
            sim.run(until=fetch)
        assert grid.transfers.n_aborted == 3  # initial try + 2 retries
        assert grid.datamover.transfers_failed == 3

    def test_zero_probability_never_fires(self):
        plan = FaultPlan(site_outages=[SiteOutage("site03", 1e8, 1e9)])
        sim, grid = make_grid(plan)  # active plan, but no drops configured
        fetch = grid.datamover.ensure_local("site02", "d0")
        moved = sim.run(until=fetch)
        assert moved == 500
        assert grid.transfers.n_aborted == 0
