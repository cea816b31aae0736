"""Layer-path golden digests: pin every optional branch of a job's path.

``test_golden.py`` locks the default path (FIFO, every layer off) for the
12 algorithm pairs.  This oracle locks the other branches a job can take
through :class:`~repro.grid.grid.DataGrid`, :class:`~repro.grid.site.Site`
and :class:`~repro.grid.datamover.DataMover`: the dispatch-mode Local
Scheduler, queue deadlines, storage reservations and remote reads,
saturation deflection, stale-catalog misdirection, transfer failover,
speculation (oracle and observed-only), durability repair, and every
layer at once under the watchdog.

Each case runs ``golden_config()`` with a few knobs changed under a
handful of pairs and stores two digests per run: the trace fingerprint
and a digest of the :class:`~repro.metrics.collector.RunMetrics`.  Each
case also names the counters it exists to exercise and asserts they are
non-zero, so the oracle cannot silently stop covering its branch.

Regenerate intentionally changed baselines with::

    PYTHONPATH=src python -m pytest tests/trace/test_layer_golden.py \\
        --regen-golden
"""

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.runner import run_single
from repro.faults.plan import FaultPlan
from repro.sim.trace import Tracer
from repro.trace.golden import describe_divergence, fingerprint, golden_config

GOLDEN_PATH = Path(__file__).parent / "golden" / "layer_digests.json"

PAIRS = (("JobDataPresent", "DataLeastLoaded"),
         ("JobLeastLoaded", "DataRandom"),
         ("JobRandom", "DataDoNothing"))

_SMALL_STORAGE = dict(storage_capacity_mb=8000.0)
_RESERVATIONS = dict(_SMALL_STORAGE, storage_reservations=True,
                     queue_capacity=3)
_SPECULATION = dict(health_heartbeat_s=30.0, speculate_quantile=0.5,
                    speculate_multiplier=1.0)

#: name -> (config changes, counters that must be > 0 summed over PAIRS).
#: A counter is a RunMetrics field, or a trace kind when it has a dot.
CASES = {
    "dispatch-ls": (
        dict(local_scheduler="FIFO-DataAware"), ("ls.pick",)),
    "dispatch-ls-faults": (
        dict(local_scheduler="FIFO-DataAware",
             fault_plan=FaultPlan(site_mtbf_s=4000.0)),
        ("ls.pick", "jobs_retried")),
    "deadline": (
        dict(job_deadline_s=300.0), ("jobs_expired",)),
    "deadline-dispatch-ls": (
        dict(local_scheduler="FIFO-DataAware", job_deadline_s=300.0),
        ("jobs_expired",)),
    "deadline-aging-sjf": (
        dict(local_scheduler="SJF", aging_factor=1.0, job_deadline_s=300.0),
        ("jobs_expired",)),
    "reservations": (
        _RESERVATIONS, ("remote_reads", "jobs_deflected")),
    "reservations-faults": (
        dict(_RESERVATIONS,
             fault_plan=FaultPlan(transfer_fail_prob=0.1,
                                  site_mtbf_s=20000.0)),
        ("remote_reads", "jobs_deflected", "failovers")),
    "stale-catalog": (
        dict(_SMALL_STORAGE, catalog_delay_s=600.0),
        ("misdirected_jobs", "bounced_jobs")),
    "transfer-faults": (
        dict(fault_plan=FaultPlan(transfer_fail_prob=0.2)), ("failovers",)),
    "speculation": (
        _SPECULATION, ("speculative_losers",)),
    "speculation-observed": (
        dict(_SPECULATION, health_observed_only=True,
             fault_plan=FaultPlan(site_mtbf_s=4000.0)),
        ("speculative_losers",)),
    "durability": (
        dict(replication_factor=2, durability_repair=True,
             scrub_interval_s=600.0,
             fault_plan=FaultPlan(corruption_mtbf_s=3000.0)),
        ("replicas_repaired", "replicas_quarantined")),
    "all-layers": (
        dict(fault_plan=FaultPlan(site_mtbf_s=40000.0,
                                  transfer_fail_prob=0.05,
                                  corruption_mtbf_s=5000.0),
             catalog_delay_s=60.0, queue_capacity=4,
             storage_reservations=True, health_heartbeat_s=30.0,
             health_heartbeat_jitter=0.1, speculate_quantile=0.5,
             replication_factor=2, durability_repair=True,
             scrub_interval_s=1800.0, watchdog=True),
        ("failovers", "speculative_losers", "replicas_repaired",
         "misdirected_jobs", "jobs_deflected")),
}

_RUNS = {}


def _run(case, es, ds):
    key = (case, es, ds)
    if key not in _RUNS:
        tracer = Tracer()
        metrics = run_single(golden_config().with_(**CASES[case][0]),
                             es, ds, tracer=tracer)
        _RUNS[key] = (tracer.records, metrics)
    return _RUNS[key]


def metrics_digest(metrics):
    """Bitwise digest of a RunMetrics (floats by exact repr)."""
    blob = json.dumps(dataclasses.asdict(metrics), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load():
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def _store(key, entry):
    digests = _load()
    digests[key] = entry
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")


RUN_IDS = [(case, es, ds) for case in CASES for es, ds in PAIRS]


@pytest.mark.parametrize("case,es,ds", RUN_IDS,
                         ids=[f"{c}-{es}-{ds}" for c, es, ds in RUN_IDS])
def test_layer_path_matches_golden(case, es, ds, request):
    records, metrics = _run(case, es, ds)
    entry = {"trace": fingerprint(records), "metrics": metrics_digest(metrics)}
    key = f"{case}/{es}/{ds}"
    if request.config.getoption("--regen-golden"):
        _store(key, entry)
        return
    stored = _load().get(key)
    assert stored is not None, (
        f"no layer digest for {key}; generate with "
        f"pytest tests/trace/test_layer_golden.py --regen-golden")
    trace = stored["trace"]
    assert (entry["trace"]["digest"], entry["trace"]["count"]) == (
        trace["digest"], trace["count"]), describe_divergence(trace, records)
    assert entry["metrics"] == stored["metrics"], (
        f"{key}: trace matches but RunMetrics differ")


@pytest.mark.parametrize("case", list(CASES))
def test_case_exercises_its_branch(case):
    """Each case must keep reaching the branch it exists to pin."""
    totals = Counter()
    for es, ds in PAIRS:
        records, metrics = _run(case, es, ds)
        for counter in CASES[case][1]:
            if "." in counter:
                totals[counter] += sum(1 for r in records
                                       if r.kind == counter)
            else:
                totals[counter] += getattr(metrics, counter)
    idle = [c for c in CASES[case][1] if totals[c] <= 0]
    assert not idle, f"{case} no longer exercises {idle}: {dict(totals)}"
