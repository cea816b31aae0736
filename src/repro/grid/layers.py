"""Optional layers as plug-ins: the hook points the grid core calls.

:class:`~repro.grid.grid.DataGrid`, :class:`~repro.grid.site.Site` and
:class:`~repro.grid.datamover.DataMover` name no optional layer.  A layer
declares in ``hooks`` the points it fills, each with a method of the
point's name, and ``NAME``, its slot in the grid's :class:`Layers`.  A
host calls a point over the layers that fill it, in :data:`HOOK_ORDER`,
looking the method up at call time (a span installed after the build
still sees the call).  The lifecycle engine's ``hooks`` list is one more
point, filled at install.  docs/architecture.md §3 tables the points.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.grid import DataGrid
    from repro.sim.core import Simulator

#: Every hook point (see the module docstring).
POINTS = ("admit", "usable", "select_fallback", "hand_off", "placement",
          "local_access", "fetch", "source_choice", "transfer_start",
          "delivery", "replication_veto")

#: The layers in the order they answer a shared point.
HOOK_ORDER = ("staleness", "faults", "overload", "durability", "health")


class Layers:
    """The armed layers of one grid by name (``None`` when unarmed), and
    per point the tuple of layers that fill it (``()`` when none)."""

    __slots__ = HOOK_ORDER + POINTS

    def __init__(self) -> None:
        for name in HOOK_ORDER:
            setattr(self, name, None)
        for point in POINTS:
            setattr(self, point, ())

    def add(self, layer) -> None:
        """Arm ``layer``: fill its slot and every point it declares."""
        setattr(self, layer.NAME, layer)
        armed = [getattr(self, name) for name in HOOK_ORDER
                 if getattr(self, name) is not None]
        for point in POINTS:
            setattr(self, point, tuple(
                other for other in armed if point in other.hooks))


def _armed(policy) -> bool:
    return policy is not None and not policy.is_null


def build(sim: "Simulator", grid: "DataGrid", *, fault_plan=None,
          fault_rng=None, overload_policy=None, overload_rng=None,
          health_policy=None, health_rng=None, durability_policy=None,
          durability_rng=None, watchdog_interval_s: float = 0.0
          ) -> Iterator:
    """Yield the layers the non-null policies arm, in install order.

    The staleness view is the information service's own.  A fault plan
    with durability faults arms the durability layer in detection-only
    mode when no policy does, so an armed run records what it lost.
    """
    view = grid.info.replica_view
    if view is not None:
        view.grid = grid
        yield view
    if _armed(fault_plan):
        from repro.faults.injector import FaultInjector

        yield FaultInjector(sim, grid, fault_plan, rng=fault_rng)
    if _armed(overload_policy):
        from repro.grid.overload import OverloadLayer

        yield OverloadLayer(sim, grid, overload_policy, rng=overload_rng)
    if _armed(health_policy):
        from repro.grid.health import HealthMonitor

        yield HealthMonitor(sim, grid, health_policy, rng=health_rng)
    if _armed(durability_policy) or (_armed(fault_plan)
                                     and fault_plan.has_durability_faults):
        from repro.grid.durability import DurabilityManager, DurabilityPolicy

        yield DurabilityManager(sim, grid,
                                durability_policy or DurabilityPolicy(),
                                rng=durability_rng)
    if watchdog_interval_s > 0:
        from repro.watchdog import Watchdog

        yield Watchdog(sim, grid, interval_s=watchdog_interval_s)
