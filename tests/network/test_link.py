"""Unit tests for the contended link model."""

import pytest

from repro.network.link import Link


class _FakeTransfer:
    def __init__(self, weight=1.0):
        self.weight = weight


class TestLink:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            Link("a", "b", 0)

    def test_equal_share_no_transfers(self):
        link = Link("a", "b", 10)
        assert link.equal_share() == 10

    def test_equal_share_divides_capacity(self):
        link = Link("a", "b", 10)
        t1, t2 = _FakeTransfer(), _FakeTransfer()
        link.attach(t1, now=0.0)
        link.attach(t2, now=0.0)
        assert link.equal_share() == 5
        assert link.concurrency == 2

    def test_detach_restores_share(self):
        link = Link("a", "b", 12)
        t1, t2, t3 = _FakeTransfer(), _FakeTransfer(), _FakeTransfer()
        for t in (t1, t2, t3):
            link.attach(t, now=0.0)
        link.detach(t2, now=1.0, carried_mb=100)
        assert link.equal_share() == 6
        assert link.bytes_carried == 100

    def test_active_iterates_in_attach_order(self):
        """Members iterate in attach order, the order the transfer manager
        sums their weights in; a detach leaves the others' order alone."""
        link = Link("a", "b", 10)
        ts = [_FakeTransfer() for _ in range(4)]
        for t in ts:
            link.attach(t, now=0.0)
        link.detach(ts[1], now=1.0, carried_mb=0)
        assert list(link.active) == [ts[0], ts[2], ts[3]]
        link.attach(ts[1], now=2.0)
        assert list(link.active) == [ts[0], ts[2], ts[3], ts[1]]

    def test_reweigh_sums_in_attach_order(self):
        link = Link("a", "b", 10)
        assert link.weight_total == 0.0
        first, second, third = (_FakeTransfer(w) for w in (0.1, 0.7, 1.0))
        for t in (first, second, third):
            link.attach(t, now=0.0)
        assert link.weight_total == 0.0  # refreshed only by reweigh
        link.reweigh()
        assert link.weight_total == (0.1 + 0.7) + 1.0 != (1.0 + 0.7) + 0.1
        link.detach(first, now=1.0, carried_mb=0)
        link.detach(second, now=1.0, carried_mb=0)
        link.detach(third, now=1.0, carried_mb=0)
        link.reweigh()
        assert link.weight_total == 0.0

    def test_busy_time_integrates_only_when_active(self):
        link = Link("a", "b", 10)
        t = _FakeTransfer()
        link.attach(t, now=5.0)   # idle [0, 5)
        link.detach(t, now=8.0, carried_mb=30)  # busy [5, 8)
        link.account(now=10.0)    # idle [8, 10)
        assert link.busy_time == pytest.approx(3.0)
        assert link.utilization(10.0) == pytest.approx(0.3)

    def test_load_integral_counts_concurrency(self):
        link = Link("a", "b", 10)
        t1, t2 = _FakeTransfer(), _FakeTransfer()
        link.attach(t1, now=0.0)
        link.attach(t2, now=2.0)   # 1 active over [0,2): integral 2
        link.detach(t1, now=5.0, carried_mb=0)  # 2 active over [2,5): +6
        link.detach(t2, now=9.0, carried_mb=0)  # 1 active over [5,9): +4
        assert link.load_integral == pytest.approx(12.0)

    def test_utilization_zero_horizon(self):
        assert Link("a", "b", 10).utilization(0) == 0.0

    def test_endpoints(self):
        assert Link("x", "y", 1).endpoints == ("x", "y")
