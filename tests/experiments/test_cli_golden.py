"""Golden CLI surface: the argument parsers and the configs they build.

Two oracles, both checked against files under
``tests/experiments/golden/``:

* ``cli_parser.json`` — for every subcommand (``trace run`` and
  ``trace summarize`` included), the ordered argparse actions of each
  argument group: option strings, metavar, choices, default, nargs,
  help, type name and action class.  ``dest`` is left out (it is an
  implementation detail of how parsed values are applied), and nothing
  in the dump depends on the Python version.
* ``cli_configs.json`` — for a set of ``repro run`` command lines that
  together use every configuration flag, ``dataclasses.asdict`` of the
  :class:`SimulationConfig` the command hands to ``run_single``.

Together they pin the whole flag surface and its meaning, so a rewrite
of how flags are declared and applied is checkable.

Regenerate intentionally changed baselines with::

    PYTHONPATH=src python -m pytest tests/experiments/test_cli_golden.py --regen-golden
"""

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.faults.plan import FaultPlan, NetworkPartition, ReplicaLoss

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Titles of the argument groups holding configuration flags.
CONFIG_GROUPS = (
    "configuration overrides (defaults = paper Table 1)",
    "fault injection (default: no faults; any of these enables the "
    "repro.faults layer — runs stay seed-reproducible)",
    "overload protection (default: all off — unbounded queues, no "
    "deadlines, no reservations; the paper's model)",
    "DAG workloads (default: none — the paper's independent jobs)",
    "failure detection (default: all off — no heartbeats, no breakers, "
    "no speculation; the paper's oracle model)",
    "data durability (default: all off — no checksums, no scrubbing, "
    "single unrepaired primaries; the paper's model)",
)

#: case name → ``repro run`` arguments; ``{plan}`` is replaced by the
#: path of a saved :data:`PLAN_FILE` fault plan.
CASES = {
    "defaults": [],
    "table1-counts": [
        "--scale", "0.5", "--bandwidth", "100", "--n-jobs", "500",
        "--sites", "10", "--users", "20", "--datasets", "40",
        "--storage-gb", "30", "--seed", "3"],
    "scale-only": ["--scale", "0.05"],
    "workload-model": [
        "--scale", "0.1", "--topology", "ring", "--popularity", "zipf",
        "--geometric-p", "0.1", "--inputs-per-job", "2",
        "--output-fraction", "0.25", "--allocator", "max-min"],
    "information": [
        "--info-refresh", "0", "--catalog-delay", "600",
        "--info-timeout", "120", "--watchdog", "on"],
    "faults-scalar": [
        "--site-mtbf", "3600", "--site-mttr", "900",
        "--link-drop-rate", "0.05", "--fault-seed", "9",
        "--flap-sites", "site00,site01", "--flap-mtbf", "600",
        "--flap-mttr", "30"],
    "faults-specs": [
        "--fault-plan", "{plan}",
        "--partition", "site00,site01@1800:3600",
        "--partition", "site02@100:inf",
        "--outage-group", "site03,site04@500:900",
        "--corrupt-replica", "site00:d3@1800",
        "--lose-replica", "site01:d4@2400",
        "--corruption-mtbf", "5000", "--corruption-sites", "site00,site02"],
    "fault-seed-only": ["--fault-seed", "4"],
    "overload": [
        "--queue-capacity", "4", "--deflect-budget", "2",
        "--job-deadline", "3600", "--aging-factor", "0.5",
        "--degraded-es", "JobLeastLoaded", "--storage-reservations", "on",
        "--arrival-rate", "0.2"],
    "dag": ["--dag-shape", "mapreduce", "--dag-width", "4", "--bulk", "on"],
    "health": [
        "--heartbeat", "30", "--heartbeat-jitter", "0.2",
        "--phi-threshold", "4", "--probe-interval", "60",
        "--observed-only", "on", "--speculate-quantile", "0.9",
        "--speculate-multiplier", "3"],
    "durability": [
        "--replication-factor", "2", "--repair", "on",
        "--scrub-interval", "600", "--repair-placement", "forecast"],
    "switches-off": [
        "--scale", "1.0", "--watchdog", "off",
        "--storage-reservations", "off", "--bulk", "off",
        "--observed-only", "off", "--repair", "off"],
}

#: The plan behind ``--fault-plan``: the CLI's specs must append to its
#: partitions and replica losses, and its scalars must survive.
PLAN_FILE = FaultPlan(
    partitions=(NetworkPartition(sites=("site05",), start_s=10.0,
                                 end_s=20.0),),
    replica_losses=(ReplicaLoss(site="site06", dataset="d1", time_s=50.0),),
    transfer_fail_prob=0.01, seed=11)


def _subcommands(parser, path=()):
    """Yield (command path, parser) for every leaf subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _subcommands(child, path + (name,))


def _describe(action):
    choices = action.choices
    if choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(action.option_strings),
        "metavar": action.metavar,
        "choices": choices,
        "default": action.default,
        "nargs": action.nargs,
        "help": action.help,
        "type": None if action.type is None else action.type.__name__,
        "action": type(action).__name__,
    }


def _parser_dump():
    dump = {}
    for path, parser in _subcommands(build_parser()):
        dump[path] = [
            {"group": group.title, **_describe(action)}
            for group in parser._action_groups
            for action in group._group_actions]
    return dump


class _Captured(Exception):
    """Raised by the stand-in ``run_single`` to stop ``main`` early."""


def _config_for(argv, monkeypatch):
    def capture(config, *args, **kwargs):
        raise _Captured(config)

    monkeypatch.setattr(repro.cli, "run_single", capture)
    with pytest.raises(_Captured) as info:
        main(["run", *argv])
    return dataclasses.asdict(info.value.args[0])


def _check(name, actual, request):
    # Through JSON once, so tuples compare equal to the stored lists.
    actual = json.loads(json.dumps(actual))
    path = GOLDEN_DIR / name
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=1) + "\n")
        return
    assert path.exists(), f"no golden {name}; generate with --regen-golden"
    assert actual == json.loads(path.read_text()), f"{name} drifted"


def test_parser_matches_golden(request):
    _check("cli_parser.json", _parser_dump(), request)


def test_configs_match_golden(request, monkeypatch, tmp_path):
    plan_path = tmp_path / "plan.json"
    PLAN_FILE.save(plan_path)
    configs = {
        case: _config_for([str(plan_path) if arg == "{plan}" else arg
                           for arg in argv], monkeypatch)
        for case, argv in CASES.items()}
    _check("cli_configs.json", configs, request)


def test_cases_use_every_config_flag():
    (run,) = [p for path, p in _subcommands(build_parser()) if path == "run"]
    flags = {action.option_strings[-1]
             for group in run._action_groups if group.title in CONFIG_GROUPS
             for action in group._group_actions}
    assert len(flags) == 53
    used = {arg for argv in CASES.values() for arg in argv}
    assert flags - used == set()
