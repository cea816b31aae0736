"""One grid-sweep engine behind every campaign.

The paper's §5.2 method runs each (ES, DS) pair under several seeds with
*paired* workloads: for a given seed every pair, and every value of an
environmental parameter, sees the same users, datasets and jobs.
:func:`grid_sweep` runs it over N named :class:`Axis` objects × pairs ×
seeds through one :class:`ParallelRunner`, so results are identical at
any worker count and cache-replayable.  :func:`sweep`, ``run_matrix``,
``reproduce_figure5`` and the four :mod:`~repro.experiments.sensitivity`
sweeps are axis specs on top of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.metrics.collector import RunMetrics
from repro.metrics.summary import MetricSummary


@dataclass(frozen=True)
class Axis:
    """One named sweep dimension: its values and how a value changes a
    config.  Values must be distinct and hashable (they key the runs)."""

    name: str
    values: Tuple[Any, ...]
    apply: Callable[[SimulationConfig, Any], SimulationConfig]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"no sweep values given for {self.name!r}")
        if len(set(self.values)) != len(self.values):
            raise ValueError(
                f"duplicate sweep values for {self.name!r}: "
                f"{list(self.values)}")

    @classmethod
    def field(cls, name: str, values: Sequence[Any]) -> "Axis":
        """The plain case: set one ``SimulationConfig`` field per value."""
        if name not in SimulationConfig.__dataclass_fields__:
            raise ValueError(f"{name!r} is not a SimulationConfig field")
        return cls(name, tuple(values),
                   lambda config, value: config.with_(**{name: value}))


@dataclass(frozen=True)
class Column:
    """One table column: an axis coordinate (when ``key`` names an axis)
    or the cross-seed mean of a ``RunMetrics`` field.  ``spec`` is a
    format spec or a callable rendering the value as text."""

    header: str
    key: str
    width: int
    spec: Union[str, Callable[[Any], str]] = ".1f"

    def cell(self, value: Any) -> str:
        text = (self.spec(value) if callable(self.spec)
                else format(value, self.spec))
        return f"{text:>{self.width}}"


@dataclass(frozen=True)
class Table:
    """How a :class:`GridResult` renders as an ASCII table.

    ``title`` may use ``{seeds}`` for the replication count.  Rows run
    pair by pair, then over the axes in ``nesting`` order (outermost
    first; default: axis order).  ``footer``, if given, adds one line
    after each run of the innermost axis; it receives the result, the
    pair and the outer coordinates in nesting order.
    """

    title: str
    columns: Tuple[Column, ...]
    nesting: Tuple[str, ...] = ()
    footer: Optional[Callable[..., str]] = None
    pair_column: bool = True


@dataclass
class GridResult:
    """Per-seed metrics of one grid sweep, keyed ``(es, ds, *coords)``
    with the coordinates in axis order."""

    axes: Tuple[Axis, ...]
    pairs: Tuple[Tuple[str, str], ...]
    seeds: Tuple[int, ...]
    runs: Dict[Tuple[Any, ...], List[RunMetrics]]
    layout: Optional[Table] = None

    def values(self, name: str) -> Tuple[Any, ...]:
        """The swept values of the axis called ``name``."""
        (axis,) = [axis for axis in self.axes if axis.name == name]
        return axis.values

    def summary(self, es_name: str, ds_name: str,
                *coords_and_metric: Any) -> MetricSummary:
        """Cross-seed summary at one cell:
        ``summary(es, ds, *coords, metric)``."""
        *coords, metric = coords_and_metric
        return MetricSummary.of([
            float(getattr(m, metric))
            for m in self.runs[(es_name, ds_name, *coords)]])

    def series(self, es_name: str, ds_name: str,
               *coords_and_metric: Any) -> List[float]:
        """Mean of a metric along the first axis, in sweep order, with
        the other axes fixed: ``series(es, ds, *other_coords, metric)``."""
        *others, metric = coords_and_metric
        return [self.summary(es_name, ds_name, value, *others, metric).mean
                for value in self.axes[0].values]

    def table(self) -> str:
        """The result rendered with its :class:`Table` layout."""
        return render_table(self, self.layout)


def render_table(result: GridResult, layout: Table) -> str:
    """ASCII table: one row per (pair, cell), laid out by ``layout``."""
    names = [axis.name for axis in result.axes]
    nesting = [names.index(name) for name in layout.nesting] or list(
        range(len(names)))
    lines = [layout.title.format(seeds=len(result.seeds)),
             (f"{'pair':<34}" if layout.pair_column else "")
             + "".join(f"{c.header:>{c.width}}" for c in layout.columns)]
    for es_name, ds_name in result.pairs:
        label = f"{es_name} + {ds_name}"
        prefix = f"{label:<34}" if layout.pair_column else ""
        for nested in itertools.product(
                *(result.axes[i].values for i in nesting)):
            coords = [nested[nesting.index(i)] for i in range(len(names))]
            row = prefix
            for column in layout.columns:
                row += column.cell(
                    coords[names.index(column.key)] if column.key in names
                    else result.summary(es_name, ds_name, *coords,
                                        column.key).mean)
            lines.append(row)
            # Axis values are distinct: this row ends an innermost run.
            if (layout.footer is not None
                    and nested[-1] == result.axes[nesting[-1]].values[-1]):
                lines.append(
                    layout.footer(result, es_name, ds_name, nested[:-1]))
    return "\n".join(lines)


def grid_sweep(
    config: SimulationConfig,
    axes: Sequence[Axis],
    pairs: Sequence[Tuple[str, str]],
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    layout: Optional[Table] = None,
) -> GridResult:
    """Run every (cell × pair × seed) of a grid with paired workloads.

    A cell's config is ``config`` with each axis applied in axis order.
    ``jobs`` worker processes (1 = serial; None/0 = all cores) and
    ``cache_dir`` (on-disk result cache) go to the one
    :class:`ParallelRunner`.  Runs are ordered cell-major with seeds
    innermost, so consecutive runs share the per-process workload memo.
    """
    axes, pairs, seeds = tuple(axes), tuple(pairs), tuple(seeds)
    if not pairs:
        raise ValueError("no algorithm pairs given")
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"duplicate algorithm pairs: {list(pairs)}")
    if not seeds:
        raise ValueError("no seeds given")
    groups = []  # (run key, cell config), one per seed-replicated group
    for coords in itertools.product(*(axis.values for axis in axes)):
        cell_config = config
        for axis, value in zip(axes, coords):
            cell_config = axis.apply(cell_config, value)
        groups += [((es_name, ds_name, *coords), cell_config)
                   for es_name, ds_name in pairs]
    metrics = ParallelRunner(jobs=jobs, cache_dir=cache_dir).map(
        [RunSpec(cell_config, key[0], key[1], seed)
         for key, cell_config in groups for seed in seeds])
    n = len(seeds)
    runs = {key: metrics[i * n:(i + 1) * n]
            for i, (key, _) in enumerate(groups)}
    return GridResult(axes, pairs, seeds, runs, layout)


class SweepResult:
    """The one-axis, one-pair view of a grid sweep: runs keyed by the
    swept value alone."""

    def __init__(self, grid: GridResult) -> None:
        self.grid = grid
        (axis,) = grid.axes
        ((self.es_name, self.ds_name),) = grid.pairs
        self.parameter = axis.name
        self.values = axis.values
        self.seeds = grid.seeds
        #: value → per-seed metrics.
        self.runs: Dict[Any, List[RunMetrics]] = {
            key[2]: runs for key, runs in grid.runs.items()}

    def series(self, metric: str) -> List[float]:
        """Mean of ``metric`` at each swept value, in sweep order."""
        return self.grid.series(self.es_name, self.ds_name, metric)

    def summary(self, value: Any, metric: str) -> MetricSummary:
        """Cross-seed summary of one metric at one swept value."""
        return self.grid.summary(self.es_name, self.ds_name, value, metric)

    def best_value(self, metric: str = "avg_response_time_s",
                   minimize: bool = True) -> Any:
        """The swept value optimizing a metric."""
        series = self.series(metric)
        pick = min if minimize else max
        return self.values[series.index(pick(series))]

    def table(self, metrics: Sequence[str] = (
            "avg_response_time_s", "avg_data_transferred_mb",
            "idle_fraction")) -> str:
        """ASCII table: one row per swept value."""
        return render_table(self.grid, Table(
            title=(f"sweep of {self.parameter} ({self.es_name} + "
                   f"{self.ds_name}, {{seeds}} seed(s))"),
            columns=(Column(self.parameter, self.parameter, 20, str),)
            + tuple(Column(m, m, 26, ".2f") for m in metrics),
            pair_column=False))


def sweep(
    config: SimulationConfig,
    parameter: str,
    values: Sequence[Any],
    es_name: str = "JobDataPresent",
    ds_name: str = "DataRandom",
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Run ``es_name``/``ds_name`` at every value of one config field.

    Workload-shaping parameters (jobs, datasets, popularity, ...)
    regenerate the workload; for environmental ones (bandwidth, storage,
    staleness) it stays identical across values, giving paired
    comparisons.  ``jobs`` and ``cache_dir`` are as in :func:`grid_sweep`.
    """
    return SweepResult(grid_sweep(
        config, [Axis.field(parameter, values)], [(es_name, ds_name)],
        seeds, jobs=jobs, cache_dir=cache_dir))
