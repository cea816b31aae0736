"""Command-line interface.

Everything the library can do, driveable from a shell::

    python -m repro table1
    python -m repro run --es JobDataPresent --ds DataRandom --scale 0.25
    python -m repro matrix --seeds 0 1 2 -j 4 --cache
    python -m repro figure 3a
    python -m repro workload --out trace.json --scale 0.1

``-j/--jobs`` fans the independent runs of matrix/figure/sweep commands
out over worker processes; results are identical at any worker count.

All commands accept the configuration overrides listed under
``python -m repro run --help``; defaults are the paper's Table 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from typing import Dict, List, Optional

from repro.experiments import sensitivity
from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import DEFAULT_CACHE_DIR
from repro.experiments.paper import (
    reproduce_figure2,
    reproduce_figure3_and_4,
    reproduce_figure5,
    table1_parameters,
)
from repro.experiments.runner import (
    ALLOCATORS,
    TOPOLOGIES,
    make_workload,
    run_matrix,
    run_single,
)
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    NetworkPartition,
    OutageGroup,
    ReplicaCorruption,
    ReplicaLoss,
)
from repro.grid.durability import PLACEMENTS
from repro.metrics.report import format_matrix, format_run
from repro.scheduling.registry import ALL_DS, ALL_ES, DS_NAMES, ES_NAMES
from repro.workload.dag import DAG_SHAPES
from repro.workload.popularity import POPULARITY_MODELS
from repro.workload.traces import save_workload


def _parse_window_spec(spec: str, flag: str):
    """Parse a SITES@START:END spec into (sites, start_s, end_s)."""
    sites_part, sep, window = spec.partition("@")
    start_part, sep2, end_part = window.partition(":")
    sites = tuple(s for s in sites_part.split(",") if s)
    if not sep or not sep2 or not sites:
        raise SystemExit(
            f"bad {flag} spec {spec!r}; expected SITES@START:END like "
            f"site00,site01@1800:3600")
    end = (float("inf") if end_part.lower() in ("inf", "permanent")
           else float(end_part))
    return sites, float(start_part), end


def _parse_replica_spec(spec: str, flag: str):
    """Parse a SITE:DATASET@TIME spec into (site, dataset, time_s)."""
    target, sep, time_part = spec.partition("@")
    site, sep2, dataset = target.partition(":")
    if not sep or not sep2 or not site or not dataset:
        raise SystemExit(
            f"bad {flag} spec {spec!r}; expected SITE:DATASET@TIME like "
            f"site00:d3@1800")
    return site, dataset, float(time_part)



#: Every configuration flag, one row each under its argument-group
#: title: (flag, target field, metavar, help).  The target is a field of
#: the group's class (the fault-injection flags set FaultPlan fields);
#: ``None`` marks ``--scale`` and ``--fault-plan``, which set no field.
_CONFIG_FLAGS = (
    ("configuration overrides (defaults = paper Table 1)",
     SimulationConfig, (
         ("--scale", None, None,
          "scale users/sites/datasets/jobs together "
          "(default 1.0 = paper scale)"),
         ("--bandwidth", "bandwidth_mbps", "MBPS", "link bandwidth in MB/s"),
         ("--n-jobs", "n_jobs", None, "total number of jobs in the workload"),
         ("--sites", "n_sites", None, "number of sites"),
         ("--users", "n_users", None, "number of users"),
         ("--datasets", "n_datasets", None, "number of datasets"),
         ("--storage-gb", "storage_capacity_mb", None,
          "per-site storage in GB"),
         ("--topology", "topology", None, None),
         ("--geometric-p", "geometric_p", None, "geometric popularity skew"),
         ("--popularity", "popularity_model", None, None),
         ("--inputs-per-job", "inputs_per_job", None, None),
         ("--output-fraction", "output_fraction", None,
          "output size as a fraction of input size"),
         ("--info-refresh", "info_refresh_interval_s", "SECONDS",
          "information-service staleness (0 = live)"),
         ("--catalog-delay", "catalog_delay_s", "SECONDS",
          "replica-catalog propagation delay (0 = live catalog)"),
         ("--info-timeout", "info_timeout_s", "SECONDS",
          "serve last-known loads for stale-marked sites up to this long "
          "(0 = off)"),
         ("--watchdog", "watchdog", None,
          "runtime invariant watchdog (read-only checks; default off)"),
         ("--allocator", "allocator", None, None),
         ("--seed", "seed", None, None),
     )),
    ("fault injection (default: no faults; any of these enables the "
     "repro.faults layer — runs stay seed-reproducible)",
     FaultPlan, (
         ("--fault-plan", None, "FILE",
          "JSON fault plan (see FaultPlan.save)"),
         ("--site-mtbf", "site_mtbf_s", "SECONDS",
          "mean time between site failures (exponential; 0 = never)"),
         ("--site-mttr", "site_mttr_s", "SECONDS",
          "mean site repair time (default 1800)"),
         ("--link-drop-rate", "transfer_fail_prob", "PROB",
          "probability that any individual transfer is dropped "
          "mid-flight"),
         ("--fault-seed", "seed", None,
          "seed for the stochastic fault stream (default: the run seed)"),
         ("--partition", "partitions", "SITES@START:END",
          "network partition window, e.g. site00,site01@1800:3600 (end "
          "may be 'inf'; repeatable)"),
         ("--outage-group", "outage_groups", "SITES@START:END",
          "rack-correlated outage: the listed sites fail and recover "
          "together (repeatable)"),
         ("--flap-sites", "flap_sites", "SITES",
          "comma-separated sites that flap on their own fast MTBF/MTTR "
          "loop"),
         ("--flap-mtbf", "flap_mtbf_s", "SECONDS",
          "mean up-time between flaps"),
         ("--flap-mttr", "flap_mttr_s", "SECONDS",
          "mean flap outage duration (default 60)"),
         ("--corrupt-replica", "replica_corruptions", "SITE:DATASET@TIME",
          "silently corrupt one stored copy at the given time, e.g. "
          "site00:d3@1800 (repeatable)"),
         ("--lose-replica", "replica_losses", "SITE:DATASET@TIME",
          "destroy one stored copy outright at the given time "
          "(repeatable)"),
         ("--corruption-mtbf", "corruption_mtbf_s", "SECONDS",
          "mean time between silent bit-rot events per site (0 = never)"),
         ("--corruption-sites", "corruption_sites", "SITES",
          "comma-separated sites subject to bit-rot (default: all sites)"),
     )),
    ("overload protection (default: all off — unbounded queues, no "
     "deadlines, no reservations; the paper's model)",
     SimulationConfig, (
         ("--queue-capacity", "queue_capacity", "JOBS",
          "per-site waiting-job bound (0 = unbounded); dispatches onto a "
          "full queue deflect, then shed"),
         ("--deflect-budget", "deflect_budget", "N",
          "deflections tolerated per dispatch before a job is shed "
          "(default 1)"),
         ("--job-deadline", "job_deadline_s", "SECONDS",
          "queue-wait deadline per job (0 = none); expired jobs leave the "
          "queue counted, never run"),
         ("--aging-factor", "aging_factor", "RATE",
          "priority-aging rate for queue-reordering local schedulers "
          "(0 = off)"),
         ("--degraded-es", "degraded_es", "ES",
          "External Scheduler used for deflection targets (default: "
          "least-loaded scan)"),
         ("--storage-reservations", "storage_reservations", None,
          "route transfers through the storage reservation ledger (no "
          "overcommit)"),
         ("--arrival-rate", "arrival_rate_per_s", "JOBS_PER_S",
          "open-loop Poisson arrival rate replacing the closed-loop users "
          "(0 = closed loop)"),
     )),
    ("DAG workloads (default: none — the paper's independent jobs)",
     SimulationConfig, (
         ("--dag-shape", "dag_shape", None,
          "wire each user's jobs into dependency motifs; jobs are "
          "released as their parents complete"),
         ("--dag-width", "dag_width", "N",
          "fan-out / map count for shapes that have one (default 3)"),
         ("--bulk", "bulk_submission", None,
          "place each released batch group-at-a-time by input-set "
          "signature (needs a DAG shape)"),
     )),
    ("failure detection (default: all off — no heartbeats, no breakers, "
     "no speculation; the paper's oracle model)",
     SimulationConfig, (
         ("--heartbeat", "health_heartbeat_s", "SECONDS",
          "heartbeat interval; > 0 installs the observed failure detector "
          "(0 = off)"),
         ("--heartbeat-jitter", "health_heartbeat_jitter", "FRACTION",
          "uniform jitter fraction on heartbeat spacing, in [0, 1)"),
         ("--phi-threshold", "health_phi_threshold", "PHI",
          "suspect a site when the silence exceeds this multiple of its "
          "mean heartbeat spacing (default 3)"),
         ("--probe-interval", "health_probe_interval_s", "SECONDS",
          "base delay between recovery probes of a tripped site "
          "(default 30)"),
         ("--observed-only", "health_observed_only", None,
          "cut the oracle channel: schedulers learn of failures only "
          "through heartbeats and dispatch errors"),
         ("--speculate-quantile", "speculate_quantile", "Q",
          "straggler quantile in [0, 1); > 0 enables speculative backup "
          "execution (0 = off)"),
         ("--speculate-multiplier", "speculate_multiplier", "X",
          "a job is a straggler once it runs this multiple of the "
          "quantile duration (default 2)"),
     )),
    ("data durability (default: all off — no checksums, no scrubbing, "
     "single unrepaired primaries; the paper's model)",
     SimulationConfig, (
         ("--replication-factor", "replication_factor", "N",
          "target live replicas per dataset (> 1 needs --repair on; "
          "default 1)"),
         ("--repair", "durability_repair", None,
          "re-replicate datasets that fall below the target factor"),
         ("--scrub-interval", "scrub_interval_s", "SECONDS",
          "background checksum-scrubber period (0 = detect on access "
          "only)"),
         ("--repair-placement", "repair_placement", None,
          "repair source/destination policy (default closest)"),
     )),
)

#: The allowed values of the fields that name a registered choice.
_CHOICES = {
    "topology": TOPOLOGIES,
    "popularity_model": POPULARITY_MODELS,
    "allocator": ALLOCATORS,
    "dag_shape": DAG_SHAPES,
    "repair_placement": PLACEMENTS,
}

#: The repeatable fault specs: flag → (spec parser, FaultPlan record).
_SPECS = {
    "--partition": (_parse_window_spec, NetworkPartition),
    "--outage-group": (_parse_window_spec, OutageGroup),
    "--corrupt-replica": (_parse_replica_spec, ReplicaCorruption),
    "--lose-replica": (_parse_replica_spec, ReplicaLoss),
}


def _field_types(owner) -> Dict[str, str]:
    """Field name → declared type, as written, of a config dataclass."""
    return {f.name: f.type for f in dataclasses.fields(owner)}


def _parse_switch(text: str) -> bool:
    """An on/off switch value as a bool."""
    if text not in ("on", "off"):
        raise ValueError(f"expected on or off, got {text!r}")
    return text == "on"


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the :data:`_CONFIG_FLAGS`.  A flag's type comes from its
    field's declared type, bool fields take on/off, and every flag but
    ``--scale`` and ``--seed`` defaults to None (leave the field be)."""
    for title, owner, rows in _CONFIG_FLAGS:
        group = parser.add_argument_group(title)
        types = _field_types(owner)
        for flag, field, metavar, text in rows:
            kind = types.get(field)
            options = {"default": None, "metavar": metavar, "help": text}
            if kind == "bool":
                options["choices"] = ["on", "off"]
            elif field in _CHOICES:
                options["choices"] = list(_CHOICES[field])
            elif kind in ("int", "float"):
                options["type"] = {"int": int, "float": float}[kind]
            if flag in _SPECS:
                options["action"] = "append"
            elif flag == "--scale":
                options.update(type=float, default=1.0)
            elif flag == "--seed":
                options["default"] = 0
            group.add_argument(flag, **options)


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    """The configuration the parsed :data:`_CONFIG_FLAGS` describe."""
    config = SimulationConfig.paper()
    if args.scale != 1.0:
        # Scale first, so explicit counts still win.
        config = config.scaled(args.scale)
    plan = (FaultPlan.load(args.fault_plan)
            if args.fault_plan is not None else FaultPlan.none())
    settings = {SimulationConfig: {}, FaultPlan: {}}
    for _, owner, rows in _CONFIG_FLAGS:
        types = _field_types(owner)
        for flag, field, _, _ in rows:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is None or field is None:
                continue
            if flag in _SPECS:
                parse, record = _SPECS[flag]
                value = getattr(plan, field) + tuple(
                    record(*parse(spec, flag)) for spec in value)
            elif flag == "--storage-gb":
                value *= 1000.0
            elif types[field] == "bool":
                value = _parse_switch(value)
            elif types[field] == "Tuple[str, ...]":
                value = tuple(s for s in value.split(",") if s)
            settings[owner][field] = value
    # Without fault flags the plan stays None, not a null plan: the two
    # give different cache keys.
    if args.fault_plan is not None or settings[FaultPlan]:
        settings[SimulationConfig]["fault_plan"] = plan.with_(
            **settings[FaultPlan])
    return config.with_(**settings[SimulationConfig])


def _add_scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--es", default="JobDataPresent", choices=ES_NAMES,
                        help="external scheduler (+Health = circuit-"
                             "breaker-aware variant)")
    parser.add_argument("--ds", default="DataRandom", choices=DS_NAMES,
                        help="dataset scheduler")


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("parallel execution")
    group.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes for independent runs "
                            "(1 = serial, 0 = all cores; results are "
                            "identical at any worker count)")
    group.add_argument("--cache", action="store_true",
                       help=f"reuse finished runs via an on-disk cache "
                            f"under {DEFAULT_CACHE_DIR}/")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (implies --cache)")


def _add_campaign_parser(sub, name: str, func,
                         **kwargs) -> argparse.ArgumentParser:
    """A subcommand that runs a seed-replicated campaign: ``--seeds``,
    the configuration overrides and the parallel-execution flags."""
    parser = sub.add_parser(name, **kwargs)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    _add_config_arguments(parser)
    _add_parallel_arguments(parser)
    parser.set_defaults(func=func)
    return parser


def _cache_dir(args: argparse.Namespace):
    if args.cache_dir is not None:
        return args.cache_dir
    return DEFAULT_CACHE_DIR if args.cache else None


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_parameters(_build_config(args))
    width = max(len(k) for k in rows) + 2
    print("Table 1: Simulation parameters used in study")
    for key, value in rows.items():
        print(f"{key:<{width}}{value}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    metrics = run_single(config, args.es, args.ds, seed=args.seed)
    print(format_run(metrics, label=f"{args.es} + {args.ds} "
                     f"(seed {args.seed})"))
    return 0


#: The paper's three ES × DS views: (title, RunMetrics field).
_FIGURE_VIEWS = {
    "3a": ("Figure 3a: average response time per job (seconds)",
           "avg_response_time_s"),
    "3b": ("Figure 3b: average data transferred per job (MB)",
           "avg_data_transferred_mb"),
    "4": ("Figure 4: average idle time of processors (%)", "idle_percent"),
}


def _print_matrices(result, views) -> None:
    """Print one ES × DS table per (title, metric) view."""
    print("\n\n".join(
        format_matrix(title, result.metric_matrix(metric), ALL_ES, ALL_DS)
        for title, metric in views))


def _cmd_matrix(args: argparse.Namespace) -> int:
    result = run_matrix(_build_config(args), seeds=tuple(args.seeds),
                        jobs=args.jobs, cache_dir=_cache_dir(args))
    _print_matrices(result, _FIGURE_VIEWS.values())
    return 0


def _cmd_dag(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if config.dag_shape == "none":
        # The campaign is about dependencies; default to the diamond
        # motif unless the user picked a shape explicitly.
        config = config.with_(dag_shape="diamond")
    result = run_matrix(config, seeds=tuple(args.seeds),
                        jobs=args.jobs, cache_dir=_cache_dir(args))
    bulk = "on" if config.bulk_submission else "off"
    print(f"DAG campaign: shape={config.dag_shape} "
          f"width={config.dag_width} bulk={bulk} "
          f"seeds={list(args.seeds)}")
    print()
    _print_matrices(result, [
        ("Average response time per job (seconds)", "avg_response_time_s"),
        ("Average data transferred per job (MB)", "avg_data_transferred_mb"),
        ("Jobs completed", "n_jobs")])
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = _build_config(args)
    seeds = tuple(args.seeds)
    if args.which == "2":
        for name, count in reproduce_figure2(config, seed=args.seed,
                                             top_n=args.top):
            print(f"{name:<16}{count:>8}")
        return 0
    if args.which == "5":
        out = reproduce_figure5(config, seeds=seeds,
                                jobs=args.jobs, cache_dir=_cache_dir(args))
        print(f"{'':<16}{'10MB/sec':>12}{'100MB/sec':>12}")
        for es in ALL_ES:
            print(f"{es:<16}{out['10MB/sec'][es]:>12.1f}"
                  f"{out['100MB/sec'][es]:>12.1f}")
        return 0
    result = reproduce_figure3_and_4(config, seeds=seeds, jobs=args.jobs,
                                     cache_dir=_cache_dir(args))
    _print_matrices(result.matrix, [_FIGURE_VIEWS[args.which]])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import sweep

    config = _build_config(args)
    # A bool field takes on/off like its flag: any other text would be a
    # truthy string that arms the knob for every value.
    parse = (_parse_switch
             if _field_types(SimulationConfig).get(args.parameter) == "bool"
             else _parse_value)
    values = [parse(v) for v in args.values]
    result = sweep(config, args.parameter, values,
                   es_name=args.es, ds_name=args.ds,
                   seeds=tuple(args.seeds),
                   jobs=args.jobs, cache_dir=_cache_dir(args))
    print(result.table())
    best = result.best_value()
    print(f"\nbest {args.parameter} for response time: {best}")
    return 0


def _parse_pairs(specs) -> Optional[tuple]:
    """Parse --pairs entries like 'JobDataPresent+DataLeastLoaded'.

    ES names may themselves contain '+' (the +Health variants), so the
    DS name is whatever follows the last '+'.
    """
    if specs is None:
        return None
    pairs = []
    for spec in specs:
        es_name, sep, ds_name = spec.rpartition("+")
        if not sep or es_name not in ES_NAMES or ds_name not in DS_NAMES:
            raise ValueError(
                f"bad pair {spec!r}; expected ES+DS like "
                f"JobDataPresent+DataLeastLoaded")
        pairs.append((es_name, ds_name))
    return tuple(pairs)


#: The swept-value flags of ``repro sensitivity``:
#: (flag, type, default, metavar, help).
_SENSITIVITY_AXES = (
    ("--delays", float, sensitivity.DEFAULT_DELAYS, "SECONDS",
     "catalog propagation delays to sweep (staleness-sweep)"),
    ("--rates", float, sensitivity.DEFAULT_RATES, "JOBS_PER_S",
     "open-loop arrival rates to sweep (overload-sweep)"),
    ("--capacities", int, sensitivity.DEFAULT_CAPACITIES, "JOBS",
     "per-site queue capacities to sweep (overload-sweep)"),
    ("--thresholds", float, sensitivity.DEFAULT_THRESHOLDS, "PHI",
     "phi suspicion thresholds to sweep (recovery-sweep)"),
    ("--mtbfs", float, sensitivity.DEFAULT_MTBFS, "SECONDS",
     "site MTBF values to sweep; 0 = no random failures (recovery-sweep)"),
    ("--corruption-mtbfs", float, sensitivity.DEFAULT_CORRUPTION_MTBFS,
     "SECONDS", "per-site bit-rot MTBF values to sweep; 0 = no corruption "
     "(durability-sweep)"),
    ("--rfs", int, sensitivity.DEFAULT_RFS, "N",
     "replication factors to sweep; factors > 1 arm the repair manager "
     "(durability-sweep)"),
    ("--scrubs", float, sensitivity.DEFAULT_SCRUBS, "SECONDS",
     "scrubber periods to sweep; 0 = on-access detection only "
     "(durability-sweep)"),
)


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    config = _build_config(args)
    pairs = _parse_pairs(args.pairs)
    common = dict(seeds=tuple(args.seeds), jobs=args.jobs,
                  cache_dir=_cache_dir(args))
    if pairs:
        common["pairs"] = pairs
    verdicts = []
    if args.mode == "durability-sweep":
        result = sensitivity.durability_sweep(
            config, mtbfs=tuple(args.corruption_mtbfs),
            rfs=tuple(args.rfs), scrubs=tuple(args.scrubs), **common)
        for (es, ds), mtbf, scrub in itertools.product(
                result.pairs, result.values("corruption_mtbf_s"),
                result.values("scrub_interval_s")):
            rf = sensitivity.surviving_rf(result, es, ds, mtbf, scrub)
            verdicts.append(
                f"lowest surviving RF for {es} + {ds}, corruption mtbf "
                f"{mtbf:g}, scrub {scrub:g}: "
                + (f"{rf}" if rf is not None else "none swept"))
    elif args.mode == "recovery-sweep":
        result = sensitivity.recovery_sweep(
            config, thresholds=tuple(args.thresholds),
            mtbfs=tuple(args.mtbfs), partitioned={
                "both": (False, True), "on": (True,), "off": (False,)
            }[args.partition_cells], **common)
        for (es, ds), part, mtbf in itertools.product(
                result.pairs, result.values("partitioned"),
                result.values("site_mtbf_s")):
            safe = sensitivity.safe_threshold(result, es, ds, mtbf, part)
            verdicts.append(
                f"lowest safe threshold (fp <= 5%) for {es} + {ds}, mtbf "
                f"{mtbf:g}, partition {'on' if part else 'off'}: "
                + (f"{safe:g}" if safe is not None else "none swept"))
    elif args.mode == "overload-sweep":
        result = sensitivity.overload_sweep(
            config, rates=tuple(args.rates),
            capacities=tuple(args.capacities), **common)
    else:
        result = sensitivity.staleness_sensitivity(
            config, delays=tuple(args.delays), **common)
        verdicts = [
            f"worst-case response-time degradation for {es} + {ds}: "
            f"{100 * (sensitivity.degradation(result, es, ds) - 1):.1f} %"
            for es, ds in result.pairs]
    print(result.table())
    if verdicts:
        print()
        print("\n".join(verdicts))
    return 0


def _parse_value(text: str):
    """Interpret a sweep value as int, float, or string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.trace import Tracer
    from repro.trace import (
        count_by_kind,
        expand_kinds,
        format_timelines,
        read_jsonl,
        trace_digest,
        write_jsonl,
    )

    if args.action == "summarize":
        records = read_jsonl(args.trace_file)
        print(f"{len(records)} records from {args.trace_file} "
              f"(digest {trace_digest(records)[:12]}…)")
        for kind, count in count_by_kind(records).items():
            print(f"  {kind:<24}{count:>8}")
        print()
        print(format_timelines(records, limit=args.limit))
        return 0

    kinds = (expand_kinds(args.trace_kinds)
             if args.trace_kinds is not None else None)
    tracer = Tracer(kinds=kinds)
    config = _build_config(args)
    metrics = run_single(config, args.es, args.ds, seed=args.seed,
                         tracer=tracer)
    print(f"{len(tracer.records)} records "
          f"({args.es} + {args.ds}, seed {args.seed}, digest "
          f"{trace_digest(tracer.records)[:12]}…)")
    for kind, count in tracer.counts_by_kind().items():
        print(f"  {kind:<24}{count:>8}")
    if args.trace_out is not None:
        lines = write_jsonl(tracer.records, args.trace_out)
        print(f"wrote {lines} records to {args.trace_out}")
    if args.summarize:
        print()
        print(format_timelines(tracer.records, limit=args.limit))
    print(f"\nmakespan: {metrics.makespan_s:.1f} s, "
          f"avg response: {metrics.avg_response_time_s:.1f} s")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    config = _build_config(args)
    workload = make_workload(config, seed=args.seed)
    save_workload(workload, args.out)
    print(f"wrote {workload.n_jobs} jobs / {len(workload.datasets)} "
          f"datasets / {len(workload.user_sites)} users to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Ranganathan & Foster (HPDC 2002): "
                    "decoupled Data Grid scheduling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="print Table 1")
    _add_config_arguments(p_table)
    p_table.set_defaults(func=_cmd_table1)

    p_run = sub.add_parser("run", help="run one algorithm combination")
    _add_scheduler_arguments(p_run)
    _add_config_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    _add_campaign_parser(sub, "matrix", _cmd_matrix,
                         help="run the full 4x3 sweep (Figures 3a/3b/4)")
    _add_campaign_parser(sub, "dag", _cmd_dag,
                         help="run the full ES x DS sweep on a DAG workload")

    p_figure = _add_campaign_parser(sub, "figure", _cmd_figure,
                                    help="reproduce one paper figure")
    p_figure.add_argument("which", choices=["2", "3a", "3b", "4", "5"])
    p_figure.add_argument("--top", type=int, default=60,
                          help="datasets to list for figure 2")

    p_sweep = _add_campaign_parser(
        sub, "sweep", _cmd_sweep,
        help="sweep one config field across values")
    p_sweep.add_argument("parameter",
                         help="SimulationConfig field to vary")
    p_sweep.add_argument("values", nargs="+",
                         help="values to sweep (parsed as int/float/str)")
    _add_scheduler_arguments(p_sweep)

    p_sens = _add_campaign_parser(
        sub, "sensitivity", _cmd_sensitivity,
        help="degradation sweeps: catalog staleness, offered overload, "
             "failure detection/recovery, or data durability")
    p_sens.add_argument("mode", nargs="?",
                        choices=["staleness-sweep", "overload-sweep",
                                 "recovery-sweep", "durability-sweep"],
                        default="staleness-sweep",
                        help="staleness-sweep: response time vs catalog "
                             "delay (default); overload-sweep: arrival "
                             "rate x queue capacity degradation table; "
                             "recovery-sweep: detection threshold x MTBF "
                             "x partition detector-quality table; "
                             "durability-sweep: corruption rate x "
                             "replication factor x scrub period survival "
                             "table")
    for flag, kind, default, metavar, text in _SENSITIVITY_AXES:
        p_sens.add_argument(flag, type=kind, nargs="+", default=list(default),
                            metavar=metavar, help=text)
    p_sens.add_argument("--partition-cells", default="both",
                        choices=["both", "on", "off"],
                        help="whether recovery-sweep cells include the "
                             "canonical network partition (default: "
                             "sweep both)")
    p_sens.add_argument("--pairs", nargs="+", default=None,
                        metavar="ES+DS",
                        help="algorithm pairs, e.g. "
                             "JobDataPresent+DataLeastLoaded "
                             "(default: decoupled winner vs "
                             "compute-only baseline)")

    p_trace = sub.add_parser(
        "trace", help="run one combination traced / summarize a trace")
    trace_sub = p_trace.add_subparsers(dest="action", required=True)
    p_trace_run = trace_sub.add_parser(
        "run", help="run one combination with domain-event tracing on")
    _add_scheduler_arguments(p_trace_run)
    p_trace_run.add_argument("--trace-out", default=None, metavar="FILE",
                             help="write the trace as JSONL")
    p_trace_run.add_argument("--trace-kinds", nargs="+", default=None,
                             metavar="KIND",
                             help="only record these kinds/groups "
                                  "(e.g. 'job transfer.done')")
    p_trace_run.add_argument("--summarize", action="store_true",
                             help="also print per-job timelines")
    p_trace_run.add_argument("--limit", type=int, default=20,
                             help="timelines to print with --summarize")
    _add_config_arguments(p_trace_run)
    p_trace_run.set_defaults(func=_cmd_trace)
    p_trace_sum = trace_sub.add_parser(
        "summarize", help="reconstruct per-job timelines from a JSONL trace")
    p_trace_sum.add_argument("trace_file", help="JSONL trace path")
    p_trace_sum.add_argument("--limit", type=int, default=20,
                             help="timelines to print")
    p_trace_sum.set_defaults(func=_cmd_trace)

    p_workload = sub.add_parser(
        "workload", help="generate a workload trace (JSON)")
    p_workload.add_argument("--out", required=True,
                            help="output trace path")
    _add_config_arguments(p_workload)
    p_workload.set_defaults(func=_cmd_workload)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Configuration and fault-plan mistakes are user errors, not crashes:
    they print one structured line on stderr and exit 2 — never a
    traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FaultPlanError as exc:
        print(f"error: invalid fault plan [{exc.field}]: "
              f"{str(exc).partition(': ')[2] or exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
