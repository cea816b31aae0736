"""Outside-in spans over the simulator's layers.

Nothing under ``src/`` is edited: :func:`install` walks the ``repro``
packages and replaces every public function defined in a class body
with a timing wrapper at class level; :meth:`Installation.uninstall`
puts the originals back.  Spans stay in memory, aggregated per name:

* ``calls`` — wrapped calls (for a generator method: generators made);
* ``self_s`` — span duration minus the part covered by nested spans;
* duration samples, for the names in :data:`SAMPLED` only.

A generator method (a simulation process body) is timed per resumption:
each ``send``/``throw`` the kernel makes is one slice of its span, so
the work a process does lands on its own layer and not on the kernel.

Span names come from the module that defines the method (see
:func:`span_name`).  The kernel package ``repro.sim`` is spanned only at
``Simulator.run`` (``sim``), ``Simulator.process`` (``sim.process``) and
``Tracer.emit`` (``trace.emit``): its other entry points are
sub-microsecond primitives, and their cost stays with the caller.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import math
import pkgutil
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Module prefix → layer, first match wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.network", "network"),
    ("repro.grid.info", "info"),
    ("repro.grid.catalog", "catalog"),
    ("repro.grid.lifecycle", "lifecycle"),
    ("repro.grid.datamover", "datamover"),
    ("repro.grid.staleness", "staleness"),
    ("repro.grid.overload", "overload"),
    ("repro.grid.health", "health"),
    ("repro.grid.durability", "durability"),
    ("repro.grid.site", "site"),
    ("repro.grid.compute", "site"),
    ("repro.grid.storage", "site"),
    ("repro.grid", "grid"),
    ("repro.faults", "faults"),
    ("repro.watchdog", "watchdog"),
    ("repro.scheduling", "scheduling"),
    ("repro.workload", "workload"),
    ("repro.metrics", "metrics"),
    ("repro.trace", "trace"),
)

#: Methods that get a span name of their own, ``(class, method) → name``.
#: ``None`` as the class matches the method on any class of the layer.
METHOD_SPANS: Dict[Tuple[Optional[str], str], str] = {
    (None, "allocate"): "network.allocate",
    (None, "select_site"): "scheduling.select_site",
    ("TransitionEngine", "transition"): "lifecycle.transition",
    ("DataMover", "ensure_local"): "datamover.ensure_local",
}

#: The only spanned methods of ``repro.sim`` (see module docstring).
KERNEL_SPANS: Dict[Tuple[str, str, str], str] = {
    ("repro.sim.core", "Simulator", "run"): "sim",
    ("repro.sim.core", "Simulator", "process"): "sim.process",
    ("repro.sim.trace", "Tracer", "emit"): "trace.emit",
}

#: Packages not spanned at all: the campaign driver and the CLI sit above
#: the simulated grid, and the benchmark calls into the grid directly.
SKIPPED_PACKAGES = ("repro.experiments", "repro.cli", "repro.__main__")

#: Span names whose per-call durations are kept for percentiles.
SAMPLED = ("network.allocate", "scheduling.select_site")


class Recorder:
    """In-memory span aggregates for one traced run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Transfers handed to ``allocate`` summed over calls.
        self.allocate_transfers = 0
        #: Child-time accumulators; the bottom frame is the untraced base.
        self.stack: List[float] = [0.0]


def layer_total(per_span: Dict[str, float], layer: str) -> float:
    """Sum of a per-span aggregate over ``layer`` and its ``layer.*`` spans."""
    return sum(value for name, value in per_span.items()
               if name == layer or name.startswith(layer + "."))


def span_name(module: str, cls: str, method: str) -> Optional[str]:
    """The span a method is recorded under (None = not spanned)."""
    if module.startswith("repro.sim."):
        return KERNEL_SPANS.get((module, cls, method))
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            special = (METHOD_SPANS.get((cls, method))
                       or METHOD_SPANS.get((None, method)))
            if special is not None and special.startswith(layer + "."):
                return special
            return layer
    return None


def _wrap_function(fn: Callable, name: str, rec: Recorder) -> Callable:
    calls, self_s, stack = rec.calls, rec.self_s, rec.stack
    samples = rec.samples[name] if name in SAMPLED else None
    counts_transfers = name == "network.allocate"

    @functools.wraps(fn)
    def span(*args, **kwargs):
        if counts_transfers:
            rec.allocate_transfers += len(args[1])
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = stack.pop()
            stack[-1] += duration
            self_s[name] += duration - child
            calls[name] += 1
            if samples is not None:
                samples.append(duration)

    return span


def _slices(inner, name: str, rec: Recorder):
    """Drive generator ``inner``, timing each resumption as a span slice.

    Values, exceptions, ``close()`` and the return value pass through
    unchanged, so the kernel sees the same process it would without the
    wrapper.
    """
    self_s, stack = rec.self_s, rec.stack
    value = None
    error: Optional[BaseException] = None
    while True:
        stack.append(0.0)
        start = perf_counter()
        try:
            if error is None:
                target = inner.send(value)
            else:
                thrown, error = error, None
                target = inner.throw(thrown)
        except StopIteration as stop:
            return stop.value
        finally:
            duration = perf_counter() - start
            child = stack.pop()
            stack[-1] += duration
            self_s[name] += duration - child
        try:
            value = yield target
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
            error = exc
            value = None


def _wrap_generator(fn: Callable, name: str, rec: Recorder) -> Callable:
    calls = rec.calls

    @functools.wraps(fn)
    def span(*args, **kwargs):
        calls[name] += 1
        inner = fn(*args, **kwargs)
        outer = _slices(inner, name, rec)
        # Process names default to the generator's name; keep them.
        outer.__name__ = inner.__name__
        outer.__qualname__ = inner.__qualname__
        return outer

    return span


def _repro_modules() -> List[str]:
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith(SKIPPED_PACKAGES):
            names.append(info.name)
    return sorted(names)


def _spannable_classes(module) -> List[type]:
    out = []
    for value in vars(module).values():
        if (inspect.isclass(value) and value.__module__ == module.__name__
                and not issubclass(value, (BaseException, enum.Enum))):
            out.append(value)
    return out


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.replaced: List[Tuple[type, str, object]] = []

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self.replaced):
            setattr(cls, attr, original)
        self.replaced.clear()


def install(rec: Optional[Recorder] = None) -> Installation:
    """Wrap every spannable public method; returns the installation."""
    rec = rec if rec is not None else Recorder()
    done = Installation(rec)
    for module_name in _repro_modules():
        module = importlib.import_module(module_name)
        for cls in _spannable_classes(module):
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = span_name(module_name, cls.__name__, attr)
                if name is None:
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    fn = raw.__func__
                elif inspect.isfunction(raw):
                    fn = raw
                else:
                    continue
                wrapper = (_wrap_generator if inspect.isgeneratorfunction(fn)
                           else _wrap_function)(fn, name, rec)
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                elif isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                setattr(cls, attr, wrapper)
                done.replaced.append((cls, attr, raw))
    return done


def percentile_us(samples: List[float], q: float = 0.99) -> float:
    """Nearest-rank percentile of second-valued samples, in µs."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1] * 1e6
