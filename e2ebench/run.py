#!/usr/bin/env python3
"""End-to-end benchmark of the grid simulator.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload decoupled --seed 0 --seconds 25 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
sub-runs go round-robin over the seed's fixed sub-seeds, each in a fresh
forked process, until ``--seconds`` have passed and every sub-seed ran
once.  ``--trace 1`` makes one untraced and one span-traced run of the
first sub-seed and reports the per-layer metrics.  ``--workload all``
does both for every workload.  Human-readable lines come first; the last
line of standard output is one JSON object.  README.md lists the
workloads, the metrics, and which metric should move where.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import multiprocessing
import multiprocessing.connection
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no simulator sources at {ROOT / 'src' / 'repro'}; "
             "run from the root of a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads as wl  # noqa: E402

#: Optional layers that must cost zero calls when they are off.
OPTIONAL_LAYERS = ("faults", "staleness", "overload", "health",
                   "durability", "watchdog")


@functools.lru_cache(maxsize=None)
def reference(workload: str) -> Dict[str, Any]:
    """The committed reference outcomes of one workload (see README.md)."""
    return json.loads((HERE / "reference.json").read_text())[workload]


def registered(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json registers, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


# -- forked sub-processes -----------------------------------------------------

def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _child_main(conn, fn: Callable, args: Tuple) -> None:
    try:
        result = fn(*args)
        result["rss_mb"] = _peak_rss_mb()
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        result = {"child_error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
    conn.send(result)
    conn.close()


def start_child(fn: Callable, *args):
    """Start ``fn(*args)`` in a fresh forked process; returns (proc, pipe).

    Fork, not spawn: this process starts no threads, and a spawned child
    would pay the ~1 s ``repro`` import (scipy) before every sub-run.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(send, fn, args))
    proc.start()
    send.close()
    return proc, recv


def finish_child(proc, recv) -> Dict[str, Any]:
    """Collect a child's result and wait for the child to end."""
    try:
        result = recv.recv()
    except EOFError:
        result = {"child_error": "child process died without a result"}
    finally:
        proc.join()
        recv.close()
    if proc.exitcode not in (0, None) and "child_error" not in result:
        result["child_error"] = f"child exited with code {proc.exitcode}"
    return result


def in_child(fn: Callable, *args) -> Dict[str, Any]:
    """Run ``fn(*args)`` in a fresh forked process and wait for it."""
    return finish_child(*start_child(fn, *args))


# -- one unit of work per child -----------------------------------------------

def one_run(workload: wl.Workload, seed: int) -> Dict[str, Any]:
    if workload.campaign:
        return wl.run_campaign(workload, seed)
    (es, ds), = workload.pairs
    return wl.run_pair(workload, es, ds, seed)


def traced_probe(workload: wl.Workload, seed: int) -> Dict[str, Any]:
    """An untraced run, then the same run under spans, in one process."""
    rec = spans.Recorder()
    untraced = one_run(workload, seed)
    traced = []
    for es, ds in workload.pairs:
        gc.collect()  # no earlier run's garbage in the traced run
        traced.append(wl.run_pair(
            workload, es, ds, seed,
            on_built=lambda: spans.install(rec).uninstall))
    return {"untraced": untraced, "traced": traced,
            "calls": dict(rec.calls), "self_s": dict(rec.self_s),
            "p99_us": {name: spans.percentile_us(rec.samples[name])
                       for name in spans.SAMPLED},
            "samples": {name: len(rec.samples[name])
                        for name in spans.SAMPLED},
            "allocate_transfers": rec.allocate_transfers,
            "open_spans": len(rec.stack) - 1}


# -- checks -------------------------------------------------------------------

def pair_runs(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The per-pair runs inside one sub-run result."""
    return result["runs"] if "runs" in result else [result]


def check_run(workload: wl.Workload, run: Dict[str, Any]) -> List[str]:
    """Why one finished pair run is wrong (empty = correct)."""
    problems = list(run.get("problems", ()))
    metrics = run.get("metrics")
    if metrics is None:
        return problems or ["no metrics"]
    if workload.campaign and not (
            run["jobs"] == metrics["n_jobs"] == workload.config.n_jobs):
        problems.append(
            f"conservation: {run['jobs']} terminal / {metrics['n_jobs']} "
            f"done of {workload.config.n_jobs} jobs")
    ref = reference(workload.name)["paper"].get(f"{run['es']}/{run['ds']}")
    for name, (low, high) in (ref or {}).items():
        if not low <= metrics[name] <= high:
            problems.append(
                f"{run['es']}/{run['ds']} {name}={metrics[name]!r} outside "
                f"the reference range [{low!r}, {high!r}]")
    return problems


def classify(workload: wl.Workload, result: Dict[str, Any]
             ) -> Tuple[int, List[str], List[str]]:
    """(pair runs attempted, failure messages, wrong-output messages)."""
    if "child_error" in result:
        return len(workload.pairs), [result["child_error"]], []
    attempted, failures, wrong = 0, [], []
    for run in pair_runs(result):
        attempted += 1
        if run.get("error"):
            failures.append(run["error"])
            continue
        problems = check_run(workload, run)
        if problems:
            failures.append("; ".join(problems))
            wrong.extend(problems)
    return attempted, failures, wrong


# -- the two modes ------------------------------------------------------------

def measure(workload: wl.Workload, seed: int, seconds: float
            ) -> Dict[str, Any]:
    """Sub-runs round-robin over the sub-seeds, each in a fresh process,
    ``parallel_slots()`` at a time (one campaign at a time for matrix,
    whose pool uses them), until ``seconds`` passed and each ran once."""
    seeds = wl.sub_seeds(workload, seed)
    slots = 1 if workload.campaign else wl.parallel_slots()
    by_seed: Dict[int, List[Dict[str, Any]]] = {s: [] for s in seeds}
    running: Dict[Any, Tuple[Any, int]] = {}
    start = time.perf_counter()
    index = 0
    try:
        while True:
            while len(running) < slots and (
                    index < len(seeds)
                    or time.perf_counter() - start < seconds):
                sub = seeds[index % len(seeds)]
                proc, recv = start_child(one_run, workload, sub)
                running[recv] = (proc, sub)
                index += 1
            if not running:
                break
            for recv in multiprocessing.connection.wait(list(running)):
                proc, sub = running.pop(recv)
                by_seed[sub].append(finish_child(proc, recv))
    finally:
        for recv, (proc, _) in running.items():
            proc.terminate()
            proc.join()
            recv.close()
    measured_s = time.perf_counter() - start

    attempted, failures, wrong, rss, setup = 0, [], [], [], []
    jobs = run_s = 0.0
    ref_digests = reference(workload.name)["digests"]
    ref_checked = ref_matched = 0
    for sub, results in by_seed.items():
        for result in results:
            n, fails, bad = classify(workload, result)
            attempted += n
            failures += fails
            wrong += bad
            if "child_error" not in result:
                rss.append(result["rss_mb"])
                setup += result["setup_s"]
            if str(sub) in ref_digests and "digest" in result:
                ref_checked += 1
                ref_matched += result["digest"] == ref_digests[str(sub)]
        timed = [r for r in results if "run_s" in r]
        if timed:
            # Inputs repeat exactly per sub-seed: take the median time.
            run_s += statistics.median(r["run_s"] for r in timed)
            jobs += timed[0]["jobs"]
    return {
        "metrics": {"jobs_per_s": jobs / run_s if run_s else 0.0,
                    "setup_s": statistics.median(setup) if setup else 0.0,
                    "peak_rss_mb": statistics.median(rss) if rss else 0.0},
        "attempted": attempted, "failures": failures, "wrong": wrong,
        "sub_runs": index, "measured_s": measured_s,
        "reference_digests": (ref_matched, ref_checked),
    }


def per_layer(workload: wl.Workload, seed: int) -> Dict[str, Any]:
    sub = wl.sub_seeds(workload, seed)[0]
    probe = in_child(traced_probe, workload, sub)
    if "child_error" in probe:
        raise RuntimeError(f"traced run failed to complete: "
                           f"{probe['child_error']}\n{probe.get('traceback')}")
    untraced, traced = probe["untraced"], probe["traced"]
    untraced_runs = pair_runs(untraced)
    calls, self_s = probe["calls"], probe["self_s"]

    def layer_calls(layer: str) -> int:
        return spans.layer_total(calls, layer)

    def layer_self(layer: str) -> float:
        return spans.layer_total(self_s, layer)

    attempted, failures, wrong = 0, [], []
    for result in (untraced, *traced):
        n, fails, bad = classify(workload, result)
        attempted += n
        failures += fails
        wrong += bad

    # Non-perturbation: spans must not change a single simulated number.
    for plain, spanned in zip(untraced_runs, traced):
        if plain["digest"] != spanned["digest"]:
            wrong.append(f"traced run of {spanned['es']}/{spanned['ds']} "
                         f"differs from the untraced run")
    traced_digest = (wl.digest([r["metrics"] for r in traced])
                     if workload.campaign else traced[0]["digest"])
    expected = reference(workload.name)["digests"].get(
        str(sub), untraced["digest"])
    sim_exact = traced_digest == expected

    counters = [r["counters"] for r in traced]

    def total(field: str) -> float:
        return sum(c[field] for c in counters)

    optional_calls = sum(layer_calls(layer) for layer in OPTIONAL_LAYERS)
    optional_calls += calls.get("trace.emit", 0)
    if workload.layers_off and optional_calls:
        wrong.append(
            "zero-cost: optional layers ran with every layer off: "
            + ", ".join(f"{layer}={layer_calls(layer)}"
                        for layer in (*OPTIONAL_LAYERS, "trace.emit")
                        if layer_calls(layer)))
    allocate_calls = calls.get("network.allocate", 0)
    if not workload.moves_data and (allocate_calls or total("mb_moved")):
        wrong.append(f"zero-cost: {allocate_calls} allocate calls on a "
                     "workload that moves no data")
    if probe["open_spans"]:
        wrong.append(f"{probe['open_spans']} spans left open")

    done = total("replications_done")
    tried = done + total("replications_skipped")
    submitted = total("submitted")
    untraced_run_s = sum(r["run_s"] for r in untraced_runs)
    traced_run_s = sum(r["run_s"] for r in traced)
    workers = untraced.get("workers", 1)
    values = {
        "network.allocate.calls": allocate_calls,
        "network.allocate.self_s": self_s.get("network.allocate", 0.0),
        "network.allocate.p99_us": probe["p99_us"]["network.allocate"],
        "network.allocate.p99_samples": probe["samples"]["network.allocate"],
        "network.allocate.transfers_per_call":
            probe["allocate_transfers"] / allocate_calls
            if allocate_calls else 0.0,
        "network.self_s": layer_self("network"),
        "network.mb_moved": total("mb_moved"),
        "info.calls": layer_calls("info"),
        "info.self_s": layer_self("info"),
        "catalog.self_s": layer_self("catalog"),
        "scheduling.select_site.self_s":
            self_s.get("scheduling.select_site", 0.0),
        "scheduling.select_site.p99_us":
            probe["p99_us"]["scheduling.select_site"],
        "scheduling.select_site.p99_samples":
            probe["samples"]["scheduling.select_site"],
        "scheduling.self_s": layer_self("scheduling"),
        "scheduling.replication_useful_ratio": done / tried if tried else 0.0,
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.process.calls": calls.get("sim.process", 0),
        "lifecycle.transition.calls": calls.get("lifecycle.transition", 0),
        "lifecycle.transition.self_s":
            self_s.get("lifecycle.transition", 0.0),
        "lifecycle.self_s": layer_self("lifecycle"),
        "datamover.ensure_local.calls": calls.get("datamover.ensure_local", 0),
        "datamover.self_s": layer_self("datamover"),
        "datamover.transfer_wait_sim_s":
            total("transfer_wait_sim_s") / len(counters),
        "site.self_s": layer_self("site"),
        "site.queue_wait_sim_s": total("queue_wait_sim_s") / len(counters),
        "site.peak_queue_depth": max(c["peak_queue_depth"] for c in counters),
        "grid.self_s": layer_self("grid"),
        "faults.self_s": layer_self("faults"),
        "staleness.self_s": layer_self("staleness"),
        "overload.admitted_ratio":
            1.0 - total("shed") / submitted if submitted else 0.0,
        "overload.self_s": layer_self("overload"),
        "health.self_s": layer_self("health"),
        "durability.self_s": layer_self("durability"),
        "watchdog.self_s": layer_self("watchdog"),
        "trace.emit.self_s": self_s.get("trace.emit", 0.0),
        "trace.jsonl_s": sum(r.get("jsonl_s", 0.0) for r in traced),
        "optional.calls": optional_calls,
        "workload.generate_s": sum(r["generate_s"] for r in traced),
        "grid.build_s": sum(r["build_s"] for r in traced),
        "experiments.pool_overhead_s":
            untraced["wall_s"] - sum(r["spec_s"] for r in untraced_runs)
            / workers if workload.campaign else 0.0,
        "bench.sim_exact": 1 if sim_exact else 0,
        "bench.span_overhead_ratio":
            traced_run_s / untraced_run_s if untraced_run_s else 0.0,
        "failed_run_fraction": len(failures) / attempted,
    }
    return {"metrics": values, "attempted": attempted, "failures": failures,
            "wrong": wrong, "sub_seed": sub}


# -- output -------------------------------------------------------------------

def failure_kinds(failures: List[str]) -> Dict[str, List[str]]:
    """Failure messages (first lines) grouped by exception and invariant."""
    kinds: Dict[str, List[str]] = {}
    for message in failures:
        first = message.splitlines()[0]
        match = re.match(r"(\w+): (?:\[t=[^\]]*\] )?([\w-]+)", first)
        kind = " ".join(match.groups()) if match else first
        kinds.setdefault(kind, []).append(first)
    return kinds


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref
    return ref


def meta(workload: wl.Workload, seed: int, trace: int) -> Dict[str, Any]:
    """What ran, where, at which revision (printed before every result)."""
    nproc = os.cpu_count() or 1
    return {
        "workload": workload.name, "seed": seed,
        "sub_seeds": wl.sub_seeds(workload, seed), "trace": trace,
        "nproc": nproc, "python": platform.python_version(),
        "git_rev": git_rev(),
        "scale": {"n_jobs": workload.config.n_jobs,
                  "n_sites": workload.config.n_sites,
                  "n_users": workload.config.n_users,
                  "pairs": len(workload.pairs)},
        # Pool workers for matrix, concurrent sub-runs for the others.
        "workers": wl.parallel_slots(),
        # A pool speed-up is only meaningful with two or more cores.
        "pool_speedup_claimed": workload.campaign and nproc >= 2,
    }


def report(workload: wl.Workload, seed: int, seconds: float,
           trace: int) -> Dict[str, Any]:
    """Run one mode on one workload, print it by name; return the result."""
    print("meta " + json.dumps(meta(workload, seed, trace), sort_keys=True))
    if trace:
        result = per_layer(workload, seed)
        kind = "per_layer"
    else:
        result = measure(workload, seed, seconds)
        kind = "end_to_end"
        matched, checked = result["reference_digests"]
        print(f"sub-runs {result['sub_runs']} in "
              f"{result['measured_s']:.1f} s; reference digests matched "
              f"{matched}/{checked}")
    named = {name: (result["metrics"][name], unit)
             for name, unit in registered(kind)}
    failed = len(result["failures"])
    for name, (value, unit) in named.items():
        print(f"{workload.name:>10} {name:<40} {value:>16.6g} {unit}")
    if "failed_run_fraction" not in named:
        print(f"{workload.name:>10} {'failed_run_fraction':<40} "
              f"{failed / result['attempted']:>16.6g} ratio "
              f"({failed}/{result['attempted']})")
    for kind, messages in failure_kinds(result["failures"]).items():
        print(f"failed runs: {len(messages)} x {kind}; first: {messages[0]}")
    for message in result["wrong"]:
        print(f"WRONG: {message}")
    return {
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in named.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"],
                        help="'all' runs every workload in both modes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = report(wl.WORKLOADS[args.workload], args.seed,
                        args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    # Every workload, end-to-end then per layer; metric names in the
    # closing summary are prefixed with the workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS.values():
        for trace in (0, 1):
            result = report(workload, args.seed, args.seconds, trace)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update(
                (f"{workload.name}/{name}", value)
                for name, value in result["metrics"].items())
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
