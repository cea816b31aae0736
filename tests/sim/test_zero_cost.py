"""Disabled instrumentation must cost *zero* calls per event.

The kernel's claim is stronger than "cheap when off": a simulator with no
tracing, faults, or overload machinery attached must bind the fast drain
loop and never execute a single guard call per event.  These tests prove
it with call counters — stub hooks that crash or count when entered — on
both the raw kernel and a full ``run_single`` grid campaign.
"""

import pytest

from repro.experiments.runner import run_single
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.trace.golden import golden_config


def _churn_workload(sim, n=50):
    def proc():
        yield sim.timeout(1)
        yield sim.timeout(1)

    for _ in range(n):
        sim.process(proc())


class TestDispatchPlan:
    def test_default_kernel_plans_fast_dispatch(self):
        assert Simulator().dispatch_plan == "fast"

    def test_attaching_a_tracer_switches_to_hooked(self):
        sim = Simulator()
        Tracer().attach_kernel(sim)
        assert sim.dispatch_plan == "hooked"

    def test_manual_hook_switches_to_hooked(self):
        sim = Simulator()
        sim.pre_event_hooks.append(lambda s, e: None)
        assert sim.dispatch_plan == "hooked"


class TestFastPathIsReallyTaken:
    def test_default_run_never_enters_hooked_drain(self, monkeypatch):
        def boom(self):  # pragma: no cover - entering it is the failure
            raise AssertionError("hooked drain bound on a bare kernel")

        monkeypatch.setattr(Simulator, "_drain_hooked", boom)
        sim = Simulator()
        _churn_workload(sim)
        sim.run()
        assert sim.now == 2.0

    def test_hooked_run_never_enters_fast_drain(self, monkeypatch):
        def boom(self):  # pragma: no cover - entering it is the failure
            raise AssertionError("fast drain bound on a hooked kernel")

        monkeypatch.setattr(Simulator, "_drain_fast", boom)
        sim = Simulator()
        sim.pre_event_hooks.append(lambda s, e: None)
        _churn_workload(sim)
        sim.run()
        assert sim.now == 2.0

    def test_disabled_kernel_makes_zero_hook_calls(self):
        """A counting hook list proves nothing iterates it when empty."""
        calls = []

        class CountingList(list):
            def __iter__(self):
                calls.append("iterated")
                return super().__iter__()

        sim = Simulator()
        sim.pre_event_hooks = CountingList()
        _churn_workload(sim)
        sim.run()
        # run() checks truthiness once to pick the drain; the fast drain
        # must never iterate the (empty) hook list per event.
        assert calls == []


class TestHookedCostIsPerEvent:
    def test_attached_tracer_sees_every_event_exactly_once(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.attach_kernel(sim)
        _churn_workload(sim, n=25)
        sim.run()
        kernel_records = tracer.of_kind("kernel.event")
        # Count independently with a second, stepped simulator.
        ref = Simulator()
        _churn_workload(ref, n=25)
        processed = ref.run_until_empty()
        assert len(kernel_records) == processed

    def test_every_hook_runs_per_event(self):
        sim = Simulator()
        counts = [0, 0]
        sim.pre_event_hooks.append(
            lambda s, e: counts.__setitem__(0, counts[0] + 1))
        sim.pre_event_hooks.append(
            lambda s, e: counts.__setitem__(1, counts[1] + 1))
        _churn_workload(sim, n=10)
        sim.run()
        assert counts[0] == counts[1] > 0


class TestCampaignWithFeaturesOff:
    """A default run_single must touch no tracing/fault/overload code."""

    def test_no_tracer_emissions_with_tracing_off(self, monkeypatch):
        emits = []
        original = Tracer.emit
        monkeypatch.setattr(
            Tracer, "emit",
            lambda self, *a, **k: (emits.append(a),
                                   original(self, *a, **k))[1])
        run_single(golden_config(), "JobRandom", "DataRandom")
        assert emits == []

    def test_no_fault_injector_with_faults_off(self, monkeypatch):
        """No optional layer is built with every layer off — not the
        fault injector, nor the staleness view, the overload layer, the
        health monitor, the durability manager or the watchdog."""
        from repro.faults.injector import FaultInjector
        from repro.grid.durability import DurabilityManager
        from repro.grid.health import HealthMonitor
        from repro.grid.overload import OverloadLayer
        from repro.grid.staleness import StaleReplicaView
        from repro.watchdog import Watchdog

        constructed = []
        for cls in (FaultInjector, StaleReplicaView, OverloadLayer,
                    HealthMonitor, DurabilityManager, Watchdog):
            original_init = cls.__init__
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *a, _init=original_init, **k: (
                    constructed.append(type(self).__name__),
                    _init(self, *a, **k))[1])
        run_single(golden_config(), "JobRandom", "DataRandom")
        assert constructed == []

    def test_no_overload_machinery_with_overload_off(self):
        from repro.experiments.runner import build_grid, make_workload
        from repro.grid.layers import HOOK_ORDER, POINTS

        config = golden_config()
        workload = make_workload(config)
        sim, grid = build_grid(config, "JobRandom", "DataRandom", workload)
        layers = grid.layers
        assert [getattr(layers, name) for name in HOOK_ORDER] == \
            [None] * len(HOOK_ORDER)
        # The grid, its sites and its data mover call hook points only
        # through these tuples; all-off, every one is empty.
        assert grid.datamover.layers is layers
        assert all(getattr(layers, point) == () for point in POINTS)
        assert grid.lifecycle.hooks == []
        assert grid.lifecycle.deadline_of is None
        assert grid.tracer is None
        assert grid.watchdog is None
        assert sim.dispatch_plan == "fast"

    def test_default_campaign_binds_the_fast_drain(self, monkeypatch):
        def boom(self):  # pragma: no cover - entering it is the failure
            raise AssertionError(
                "hooked drain bound on a feature-free campaign")

        monkeypatch.setattr(Simulator, "_drain_hooked", boom)
        metrics = run_single(golden_config(), "JobRandom", "DataRandom")
        assert metrics.n_jobs > 0
