"""Wide-area data transfers under link contention.

The :class:`TransferManager` executes every data movement in the grid (job
input fetches *and* asynchronous replications — both compete for the same
links, which is essential to the paper's comparison).  Whenever a transfer
starts, finishes or is aborted, the links on its route change membership;
each of those links refreshes its weight total, and only the transfers
crossing one of them get a new rate — every other transfer's bottleneck
share is unchanged.  A capacity change (:meth:`TransferManager.rebalance`)
counts as a change to every link.

Two rate allocators are provided:

* :class:`EqualShareAllocator` — the paper's model: each link divides its
  capacity equally among the transfers crossing it, and a transfer moves at
  the *minimum* share over its route (the bottleneck link).
* :class:`MaxMinFairAllocator` — classic progressive-filling max–min
  fairness, an extension used in ablation studies; it never allocates more
  total rate through a link than its capacity.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Iterable, List, Optional, Sequence

from repro.network.link import Link
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.sim.core import Simulator
from repro.sim.events import Event

#: Remaining-MB tolerance below which a transfer counts as complete.
_EPSILON_MB = 1e-9
#: Guard against zero-length reschedule loops from float rounding.
_MIN_DT = 1e-9


def _fold(t: "Transfer", now: float) -> None:
    """Fold the progress made at ``t``'s current rate up to ``now``."""
    dt = now - t._last_update
    if dt > 0:
        t.remaining_mb = max(0.0, t.remaining_mb - t.rate * dt)
    t._last_update = now


class Transfer:
    """One in-flight (or finished) data movement.

    Attributes
    ----------
    done:
        Kernel event that succeeds (with the transfer itself as value) when
        the last byte arrives — or when the transfer is *aborted* by fault
        injection.  Waiters must check :attr:`failed` after the event fires;
        ``done`` never fails, so shared waiters (and ``AnyOf`` races) stay
        safe without defusing gymnastics.
    failed:
        ``True`` if the transfer was aborted before the last byte arrived.
    purpose:
        Free-form tag — the grid uses ``"job-fetch"`` and ``"replication"``
        so the metrics layer can attribute traffic.
    """

    __slots__ = (
        "src", "dst", "size_mb", "remaining_mb", "rate", "route",
        "done", "started_at", "finished_at", "purpose", "metadata",
        "weight", "failed", "_last_update",
    )

    def __init__(self, sim: Simulator, src: str, dst: str, size_mb: float,
                 route: List[Link], purpose: str,
                 metadata: Optional[Dict[str, Any]] = None,
                 weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"transfer weight must be positive, "
                             f"got {weight!r}")
        self.src = src
        self.dst = dst
        self.size_mb = float(size_mb)
        self.remaining_mb = float(size_mb)
        self.rate = 0.0
        self.route = route
        self.done = Event(sim)
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        self.purpose = purpose
        self.metadata = metadata or {}
        #: Share weight: a transfer opened with N parallel streams
        #: (GridFTP-style) competes for link capacity as N unit flows.
        self.weight = float(weight)
        self.failed = False
        self._last_update = sim.now

    def __repr__(self) -> str:
        state = "done" if self.finished_at is not None else (
            f"{self.remaining_mb:.1f}MB left @ {self.rate:.2f}MB/s")
        return f"<Transfer {self.src}->{self.dst} {self.size_mb:.0f}MB {state}>"

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) duration; raises if unfinished."""
        if self.finished_at is None:
            raise ValueError("transfer has not finished")
        return self.finished_at - self.started_at


class EqualShareAllocator:
    """The paper's contention model.

    Each link gives each of its ``n`` transfers ``capacity / n``; a transfer
    runs at the minimum share along its route.  (The bottleneck share may be
    left unused on other links — this slight pessimism matches the paper's
    simple description.)

    Weighted transfers (GridFTP-style parallel streams) count as
    ``weight`` unit flows: a link carrying weights {1, 3} gives them 25%
    and 75% of its capacity.

    A share reads the link's ``weight_total``, which the manager refreshes
    for every link whose membership changed, so a rebalance re-rates only
    the members of those links.
    """

    name = "equal-share"

    def affected(self, changed: Dict[Link, None],
                 active: Sequence[Transfer]) -> Collection[Transfer]:
        """The transfers crossing a changed link: only their shares move."""
        members: Dict[Transfer, None] = {}
        for link in changed:
            members.update(link.active)
        return members

    def allocate(self, transfers: Collection[Transfer]
                 ) -> Dict[Transfer, float]:
        """Rate ``transfers`` from each link's current ``weight_total``."""
        return {
            t: min(link.capacity_mbps * t.weight / link.weight_total
                   for link in t.route)
            for t in transfers}


class MaxMinFairAllocator:
    """Progressive-filling max–min fairness (extension / ablation).

    Repeatedly raise all unfrozen transfer rates together until some link
    saturates; freeze the transfers on saturated links; continue with the
    residual capacity.
    """

    name = "max-min"

    def affected(self, changed: Dict[Link, None],
                 active: Sequence[Transfer]) -> Collection[Transfer]:
        """Every active transfer: one change can ripple through all rates."""
        return active

    def allocate(self, transfers: Sequence[Transfer]) -> Dict[Transfer, float]:
        rates: Dict[Transfer, float] = {t: 0.0 for t in transfers}
        if not transfers:
            return rates
        remaining_cap: Dict[Link, float] = {}
        active_on: Dict[Link, set] = {}
        for t in transfers:
            for link in t.route:
                remaining_cap.setdefault(link, link.capacity_mbps)
                active_on.setdefault(link, set()).add(t)
        unfrozen = set(transfers)
        while unfrozen:
            # Smallest per-unit-weight increment that saturates some link
            # (weights model parallel streams, as in EqualShareAllocator).
            increment = min(
                remaining_cap[link]
                / sum(t.weight for t in active_on[link] & unfrozen)
                for link in remaining_cap
                if active_on[link] & unfrozen
            )
            for t in unfrozen:
                rates[t] += increment * t.weight
            newly_frozen = set()
            for link in list(remaining_cap):
                users = active_on[link] & unfrozen
                if not users:
                    continue
                remaining_cap[link] -= increment * sum(
                    t.weight for t in users)
                if remaining_cap[link] <= 1e-12:
                    newly_frozen |= users
            if not newly_frozen:  # pragma: no cover - float safety valve
                break
            unfrozen -= newly_frozen
        return rates


class TransferManager:
    """Runs all transfers in the grid under a shared contention model.

    Parameters
    ----------
    sim:
        The simulator.
    topology:
        The network; routes are shortest paths over it.
    allocator:
        Rate allocator (defaults to the paper's equal-share model).  Each
        rebalance asks its ``affected(changed_links, active)`` which
        transfers need a new rate and passes them to ``allocate``.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 allocator: Optional[Any] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.router = Router(topology)
        self.allocator = allocator or EqualShareAllocator()
        self.active: List[Transfer] = []
        self.completed: List[Transfer] = []
        self._timer_token = 0
        #: Called with each transfer the moment it completes (used by the
        #: NWS-style bandwidth forecaster, tracing, ...).  Aborted
        #: transfers do NOT reach observers — a dropped connection carries
        #: no useful bandwidth sample.
        self.observers: List[Any] = []
        #: Called with each network transfer the moment it starts (used by
        #: the fault injector's sabotage hook).  Empty unless faults are on.
        self.on_start: List[Any] = []
        #: Called with each transfer killed by :meth:`abort`, before its
        #: ``done`` event fires (used by the health layer's circuit
        #: breakers as failure feedback).  Empty unless health is on.
        self.on_abort: List[Any] = []
        #: Transfers killed by :meth:`abort` (fault injection).
        self.n_aborted = 0
        #: Domain-event tracer (None = tracing off; one attribute check).
        self.tracer = None

    # -- public API ----------------------------------------------------------

    def start(self, src: str, dst: str, size_mb: float,
              purpose: str = "data",
              metadata: Optional[Dict[str, Any]] = None,
              weight: float = 1.0) -> Transfer:
        """Begin moving ``size_mb`` MB from ``src`` to ``dst``.

        Returns the :class:`Transfer`; wait on ``transfer.done`` for
        completion.  Local moves (``src == dst``) and empty transfers
        complete instantly at zero network cost.  ``weight`` models
        parallel streams: a weight-``k`` transfer competes as ``k`` unit
        flows when links are shared.
        """
        if size_mb < 0:
            raise ValueError(f"negative transfer size {size_mb!r}")
        route = self.router.route(src, dst)
        transfer = Transfer(self.sim, src, dst, size_mb, route,
                            purpose, metadata, weight=weight)
        if self.tracer is not None:
            self._trace_transfer("transfer.start", transfer)
        if not route or size_mb == 0:
            transfer.remaining_mb = 0.0
            transfer.finished_at = self.sim.now
            self.completed.append(transfer)
            for observer in self.observers:
                observer(transfer)
            if self.tracer is not None:
                self._trace_transfer("transfer.done", transfer, duration_s=0.0)
            transfer.done.succeed(transfer)
            return transfer
        for link in route:
            link.attach(transfer, self.sim.now)
        self.active.append(transfer)
        for hook in self.on_start:
            hook(transfer)
        self._rebalance(route)
        return transfer

    def abort(self, transfer: Transfer, reason: str = "") -> bool:
        """Kill an in-flight transfer (fault injection).

        The partial progress is credited to the links it crossed, the
        transfer is marked :attr:`~Transfer.failed`, and its ``done`` event
        *succeeds* — waiters are woken and must inspect ``failed``.
        Returns ``False`` if the transfer had already finished.
        """
        if transfer.finished_at is not None or transfer not in self.active:
            return False
        now = self.sim.now
        _fold(transfer, now)
        transfer.finished_at = now
        transfer.failed = True
        if reason:
            transfer.metadata.setdefault("abort_reason", reason)
        carried = transfer.size_mb - transfer.remaining_mb
        for link in transfer.route:
            link.detach(transfer, now, carried)
        self.active.remove(transfer)
        self.n_aborted += 1
        if self.tracer is not None:
            self._trace_transfer("transfer.abort", transfer,
                                 reason=reason or "aborted",
                                 carried_mb=carried)
        for hook in self.on_abort:
            hook(transfer)
        transfer.done.succeed(transfer)
        self._rebalance(transfer.route)
        return True

    def rebalance(self) -> None:
        """Re-rate every transfer now.

        Call it after changing any link's capacity: a start, finish or
        abort re-rates only the transfers crossing the links it touched.
        """
        self._rebalance(self.topology.links)

    def estimated_transfer_time(self, src: str, dst: str,
                                size_mb: float) -> float:
        """Uncontended lower bound on the transfer time (used by heuristic
        schedulers that need a cost estimate, not by the paper's four ES
        algorithms)."""
        route = self.router.route(src, dst)
        if not route or size_mb == 0:
            return 0.0
        bottleneck = min(link.capacity_mbps for link in route)
        return size_mb / bottleneck

    def base_transfer_time(self, src: str, dst: str, size_mb: float) -> float:
        """Uncontended time over *nominal* (undegraded) capacities.

        Fault-mode transfer timeouts are sized from this so that a
        degraded link reads as a stall instead of silently inflating the
        allowance.
        """
        route = self.router.route(src, dst)
        if not route or size_mb == 0:
            return 0.0
        bottleneck = min(link.base_capacity_mbps for link in route)
        return size_mb / bottleneck

    # -- internals -----------------------------------------------------------

    def _rebalance(self, changed: Iterable[Link]) -> None:
        """Re-rate the transfers crossing a changed link and re-arm the
        next-completion timer.

        ``changed`` names the links whose membership (or capacity) moved
        since the last rebalance; links freed by completions in this pass
        are added to it.  A transfer crossing none of them keeps its rate:
        its links' totals and capacities are what they were.
        """
        changed = dict.fromkeys(changed)
        self._settle(changed)
        for link in changed:
            link.reweigh()
        if not self.active:
            return
        allocator = self.allocator
        rates = allocator.allocate(allocator.affected(changed, self.active))
        for t, rate in rates.items():
            if rate <= 0:  # pragma: no cover - allocators always give > 0
                raise RuntimeError(f"allocator assigned zero rate to {t!r}")
            t.rate = rate
        next_dt = min(t.remaining_mb / t.rate for t in self.active)
        next_dt = max(next_dt, _MIN_DT)
        self._timer_token += 1
        token = self._timer_token
        timer = self.sim.timeout(next_dt)
        timer.callbacks.append(lambda _ev: self._on_timer(token))

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a later rebalance
        self._rebalance(())

    def _settle(self, changed: Dict[Link, None]) -> None:
        """Fold elapsed time into every active transfer and complete, in
        start order, those with no bytes left; their links join
        ``changed``."""
        now = self.sim.now
        still_active: List[Transfer] = []
        for t in self.active:
            dt = now - t._last_update  # _fold, inlined on the hot path
            if dt > 0:
                t.remaining_mb = max(0.0, t.remaining_mb - t.rate * dt)
            t._last_update = now
            if t.remaining_mb <= _EPSILON_MB:
                t.remaining_mb = 0.0
                t.finished_at = now
                for link in t.route:
                    link.detach(t, now, t.size_mb)
                    changed[link] = None
                self.completed.append(t)
                for observer in self.observers:
                    observer(t)
                if self.tracer is not None:
                    self._trace_transfer("transfer.done", t,
                                         duration_s=t.duration)
                t.done.succeed(t)
            else:
                still_active.append(t)
        self.active = still_active

    def _trace_transfer(self, kind: str, transfer: Transfer,
                        **extra: Any) -> None:
        self.tracer.emit(
            self.sim.now, kind, src=transfer.src, dst=transfer.dst,
            size_mb=transfer.size_mb, purpose=transfer.purpose,
            dataset=transfer.metadata.get("dataset"), **extra)

    # -- statistics ----------------------------------------------------------

    @property
    def total_mb_moved(self) -> float:
        """MB moved by all *completed* transfers."""
        return sum(t.size_mb for t in self.completed)

    def mb_moved_by_purpose(self) -> Dict[str, float]:
        """Completed traffic broken down by purpose tag."""
        out: Dict[str, float] = {}
        for t in self.completed:
            out[t.purpose] = out.get(t.purpose, 0.0) + t.size_mb
        return out
