"""Differential oracle for the incremental equal-share rates.

A rebalance re-rates only the transfers crossing a link whose membership
(or capacity) changed.  :func:`reference_rates` is the full recompute
over every active transfer; after every rebalance each active rate must
equal it bit for bit (``==``), and a whole run with the reference plugged
in as the allocator must finish every transfer at the same instant with
the same bytes left.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import EqualShareAllocator, Topology, TransferManager
from repro.sim import Simulator


def reference_rates(active):
    """Equal share over every active transfer, totals summed in start
    order."""
    rates = {}
    total_weight = {}
    for t in active:
        for link in t.route:
            total_weight[link] = total_weight.get(link, 0.0) + t.weight
    for t in active:
        rates[t] = min(
            link.capacity_mbps * t.weight / total_weight[link]
            for link in t.route)
    return rates


def reference_totals(active):
    totals = {}
    for t in active:
        for link in t.route:
            totals[link] = totals.get(link, 0.0) + t.weight
    return totals


class ReferenceAllocator:
    """The full recompute as an allocator: every rebalance rates all."""

    name = "reference"

    def affected(self, changed, active):
        return active

    def allocate(self, transfers):
        return reference_rates(transfers)


class CheckedManager(TransferManager):
    """Checks every rate and every link total after each rebalance."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = 0

    def _rebalance(self, changed):
        super()._rebalance(changed)
        self.checks += 1
        expected = reference_rates(self.active)
        for t in self.active:
            assert t.rate == expected[t], (t, t.rate, expected[t])
        totals = reference_totals(self.active)
        for link in self.topology.links:
            assert link.weight_total == totals.get(link, 0.0), link
            assert list(link.active) == [
                t for t in self.active if link in t.route]


TOPOLOGIES = {
    "hierarchical": lambda: Topology.hierarchical(6, 10.0, branching=2),
    "ring": lambda: Topology.ring(6, 10.0),
    "random_geometric": lambda: Topology.random_geometric(
        6, 10.0, rng=random.Random(3)),
}

#: Sizes and delays on a coarse grid, so starts, aborts and capacity
#: changes often land on the very instant a transfer completes.
_start = st.tuples(
    st.just("start"),
    st.integers(0, 5), st.integers(0, 5),             # src, dst site
    st.sampled_from([0.0, 5.0, 10.0, 25.0, 40.0, 100.0]),  # size MB
    st.sampled_from([0.1, 0.7, 1.0, 2.0, 3.0]),        # weight
    st.integers(0, 20).map(lambda n: n * 0.5))          # start time
_abort = st.tuples(
    st.just("abort"), st.integers(0, 30),              # which transfer
    st.integers(0, 40).map(lambda n: n * 0.5))
_capacity = st.tuples(
    st.just("capacity"), st.integers(0, 30),           # which link
    st.sampled_from([0.25, 0.5, 1.0, 3.0]),            # x base capacity
    st.integers(0, 40).map(lambda n: n * 0.5))
storms = st.lists(st.one_of(_start, _start, _abort, _capacity),
                  min_size=1, max_size=25)


def _run(topology_name, ops, manager_cls, allocator=None):
    sim = Simulator()
    topo = TOPOLOGIES[topology_name]()
    tm = manager_cls(sim, topo, allocator=allocator)
    links = topo.links
    started = []

    def op(spec):
        kind = spec[0]
        yield sim.timeout(spec[-1])
        if kind == "start":
            _, src, dst, size, weight, _ = spec
            started.append(tm.start(f"site{src:02d}", f"site{dst:02d}",
                                    size, weight=weight))
        elif kind == "abort":
            if started:
                tm.abort(started[spec[1] % len(started)], reason="test")
        else:
            link = links[spec[1] % len(links)]
            link.capacity_mbps = link.base_capacity_mbps * spec[2]
            tm.rebalance()

    for spec in ops:
        sim.process(op(spec))
    sim.run()
    return tm, started


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@given(ops=storms)
@settings(max_examples=60, deadline=None)
def test_incremental_rates_match_full_recompute(topology_name, ops):
    tm, started = _run(topology_name, ops, CheckedManager)
    ref_tm, ref_started = _run(topology_name, ops, TransferManager,
                               allocator=ReferenceAllocator())
    assert not tm.active and not ref_tm.active
    assert len(started) == len(ref_started)
    for t, ref in zip(started, ref_started):
        assert t.finished_at == ref.finished_at
        assert t.remaining_mb == ref.remaining_mb
        assert t.failed == ref.failed
    for link, ref_link in zip(tm.topology.links, ref_tm.topology.links):
        assert link.bytes_carried == ref_link.bytes_carried


def test_completion_inside_full_rebalance_refreshes_totals():
    """A capacity change on the instant a transfer finishes: the full
    rebalance completes it, and the links it freed must drop its weight."""
    sim = Simulator()
    topo = Topology.hierarchical(4, 10.0, branching=2)
    tm = CheckedManager(sim, topo)
    freed = topo.link_between("site00", "tier1-0")
    seen = []

    def degrade():
        yield sim.timeout(1.0)  # queued before the completion timer
        topo.link_between("tier0", "tier1-1").capacity_mbps = 5.0
        tm.rebalance()
        seen.append((short.finished_at, freed.weight_total))
        tm.start("site00", "site01", 50.0, weight=0.7)

    sim.process(degrade())
    short = tm.start("site00", "site02", 10.0)  # alone: done at t=1
    long = tm.start("site01", "site03", 100.0, weight=0.1)
    sim.run()
    assert seen == [(1.0, 0.0)]
    assert short.remaining_mb == 0.0 and long.remaining_mb == 0.0


def test_link_totals_pin_the_summation_order():
    """0.1 + 0.7 + 1.0 summed in start order is not the float 1.8 the
    reverse order gives; the shares must use the start-order total."""
    sim = Simulator()
    topo = Topology.star(4, 10.0)
    tm = CheckedManager(sim, topo)
    for src, weight in (("site01", 0.1), ("site02", 0.7), ("site03", 1.0)):
        tm.start(src, "site00", 100.0, weight=weight)
    sink = topo.link_between("site00", "hub")
    assert sink.weight_total == (0.1 + 0.7) + 1.0 != (1.0 + 0.7) + 0.1
    sim.run()
    assert tm.checks >= 6


def test_only_transfers_sharing_a_changed_link_are_rerated():
    """Transfers in disjoint regions never re-rate each other."""
    sim = Simulator()
    topo = Topology.hierarchical(4, 10.0, branching=2)
    rated = []

    class Recording(EqualShareAllocator):
        def allocate(self, transfers):
            rated.append(list(transfers))
            return super().allocate(transfers)

    tm = TransferManager(sim, topo, allocator=Recording())
    west = tm.start("site00", "site02", 100.0)  # region tier1-0
    east = tm.start("site01", "site03", 100.0)  # region tier1-1
    shared = tm.start("site00", "site01", 100.0)  # crosses both
    assert rated == [[west], [east], [west, shared, east]]
    tm.rebalance()
    assert set(rated[-1]) == {west, east, shared}
