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
handful of pairs (its own, or :data:`PAIRS`) and stores two digests per
run: the trace fingerprint and a digest of the
:class:`~repro.metrics.collector.RunMetrics`.  Each case also names the
counters it exists to exercise and asserts they are non-zero, so the
oracle cannot silently stop covering its branch.  A counter is one of:

* a ``RunMetrics`` field (``failovers``);
* a trace kind (``ls.pick``), or a kind and the ``reason`` its records
  carry (``replicate.skip:breaker-open``);
* a method and an outcome (``repro.grid.health.HealthMonitor.link_open->True``):
  the calls of that method that returned that value (by ``repr``) or
  raised that exception (by class name), or every call for ``->*``, for
  a branch that leaves no trace of its own.

Regenerate intentionally changed baselines with::

    PYTHONPATH=src python -m pytest tests/trace/test_layer_golden.py \\
        --regen-golden
"""

import dataclasses
import hashlib
import importlib
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
_FALSE_SUSPICIONS = dict(health_heartbeat_s=30.0, health_heartbeat_jitter=0.9,
                         health_phi_threshold=1.05,
                         health_probe_interval_s=600.0)
_ES_WEDGE = "repro.scheduling.external.JobLeastLoaded.select_site->ValueError"

#: name -> (config changes, counters that must be > 0 summed over the
#: case's pairs[, pairs when not PAIRS]).  See the module docstring for
#: the counter forms.
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
    # The health layer vetoes a Dataset Scheduler push at a site whose
    # breaker is open.  Only DataBestClient targets sites the detector
    # hides (its candidates are the observed demand origins), and only
    # observed mode keeps a down site advertised as available.
    "replication-veto": (
        dict(health_heartbeat_s=30.0, health_observed_only=True,
             fault_plan=FaultPlan(site_mtbf_s=4000.0)),
        ("replicate.skip:breaker-open",),
        (("JobDataPresent", "DataBestClient"),
         ("JobLeastLoaded", "DataRandom"))),
    # Repeated transfer failures open link breakers, and the source
    # choice then passes over the sources behind them.
    "link-breakers": (
        dict(health_heartbeat_s=30.0,
             fault_plan=FaultPlan(transfer_fail_prob=0.5)),
        ("repro.grid.health.HealthMonitor.link_open->True", "failovers")),
    # Durability without a fault plan: the fault-free wire fetch, and
    # every local hit checksum-verified.
    "durability-no-faults": (
        dict(replication_factor=2, durability_repair=True,
             scrub_interval_s=600.0),
        ("replicas_repaired", "transfer.done",
         "repro.grid.durability.DurabilityManager.verify_local->True")),
    # False suspicions (heavy heartbeat jitter, a low threshold, slow
    # probes) hide every site, so JobLeastLoaded wedges: the degraded ES
    # places the job.  The data-present pair sheds at a full queue.
    "es-wedge-degraded": (
        dict(_FALSE_SUSPICIONS, queue_capacity=3, degraded_es="JobLocal"),
        ("es.degraded", "jobs_shed"),
        (("JobLeastLoaded", "DataRandom"),
         ("JobDataPresent", "DataLeastLoaded"))),
    # The same wedge with only the health layer: the job is placed over
    # all sites instead.
    "es-wedge-health": (
        _FALSE_SUSPICIONS, (_ES_WEDGE,), (("JobLeastLoaded", "DataRandom"),)),
    # The same wedge under a fault plan in observed mode: the recovery
    # supervisor parks the job until a site is re-admitted.
    "es-wedge-faults": (
        dict(_FALSE_SUSPICIONS, health_observed_only=True,
             fault_plan=FaultPlan(site_mtbf_s=4000.0)),
        (_ES_WEDGE, "jobs_retried"),
        (("JobLeastLoaded", "DataRandom"),
         ("JobDataPresent", "DataLeastLoaded"))),
    "shed": (
        dict(queue_capacity=1, deflect_budget=0), ("jobs_shed",)),
    # DAG release batches go through bulk submission: hinted placement
    # without faults, per-job supervisors with them.
    "bulk-dag": (
        dict(dag_shape="diamond", bulk_submission=True),
        ("repro.grid.grid.DataGrid.submit_bulk->*",)),
    "bulk-dag-faults": (
        dict(dag_shape="diamond", bulk_submission=True,
             fault_plan=FaultPlan(site_mtbf_s=4000.0)),
        ("repro.grid.grid.DataGrid.submit_bulk->*", "jobs_retried")),
    # Bit-rot with detection only: datasets are lost, and the supervisor
    # abandons the jobs that read them.
    "data-lost": (
        dict(fault_plan=FaultPlan(corruption_mtbf_s=1500.0)),
        ("jobs_abandoned_data_lost", "datasets_lost"),
        (("JobDataPresent", "DataLeastLoaded"),
         ("JobRandom", "DataDoNothing"))),
    # No retry budget: a killed attempt with a live speculation partner
    # concedes instead of failing.
    "speculation-retire": (
        dict(_SPECULATION,
             fault_plan=FaultPlan(site_mtbf_s=3000.0, job_max_retries=0)),
        ("repro.grid.health.HealthMonitor.retire_dead_attempt->True",
         "speculative_losers")),
}


def _pairs(case):
    return CASES[case][2] if len(CASES[case]) > 2 else PAIRS

_RUNS = {}


def _spy(counter, calls):
    """Count, in ``calls[counter]``, the calls of a ``module.Class.method
    ->outcome`` counter's method that end with that outcome.  Returns a
    function that removes the spy."""
    target, outcome = counter.split("->")
    module, cls_name, method = target.rsplit(".", 2)
    cls = getattr(importlib.import_module(module), cls_name)
    original = vars(cls)[method]

    def spied(*args, **kwargs):
        try:
            value = original(*args, **kwargs)
        except Exception as exc:
            if outcome in ("*", type(exc).__name__):
                calls[counter] += 1
            raise
        if outcome in ("*", repr(value)):
            calls[counter] += 1
        return value

    setattr(cls, method, spied)
    return lambda: setattr(cls, method, original)


def _run(case, es, ds):
    key = (case, es, ds)
    if key not in _RUNS:
        calls = Counter()
        undo = [_spy(counter, calls) for counter in CASES[case][1]
                if "->" in counter]
        tracer = Tracer()
        try:
            metrics = run_single(golden_config().with_(**CASES[case][0]),
                                 es, ds, tracer=tracer)
        finally:
            for remove in undo:
                remove()
        _RUNS[key] = (tracer.records, metrics, calls)
    return _RUNS[key]


def _count(counter, records, metrics, calls):
    if "->" in counter:
        return calls[counter]
    if ":" in counter:
        kind, reason = counter.split(":")
        return sum(1 for r in records
                   if r.kind == kind and r.detail.get("reason") == reason)
    if "." in counter:
        return sum(1 for r in records if r.kind == counter)
    return getattr(metrics, counter)


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


RUN_IDS = [(case, es, ds) for case in CASES for es, ds in _pairs(case)]


@pytest.mark.parametrize("case,es,ds", RUN_IDS,
                         ids=[f"{c}-{es}-{ds}" for c, es, ds in RUN_IDS])
def test_layer_path_matches_golden(case, es, ds, request):
    records, metrics, _calls = _run(case, es, ds)
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
    for es, ds in _pairs(case):
        records, metrics, calls = _run(case, es, ds)
        for counter in CASES[case][1]:
            totals[counter] += _count(counter, records, metrics, calls)
    idle = [c for c in CASES[case][1] if totals[c] <= 0]
    assert not idle, f"{case} no longer exercises {idle}: {dict(totals)}"
