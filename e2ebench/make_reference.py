#!/usr/bin/env python3
"""Regenerate reference.json, the per-workload reference outcomes.

Usage (from the root of a checkout)::

    python3 e2ebench/make_reference.py [--seeds 20]

For benchmark seeds ``0 .. seeds-1`` it runs the first sub-seed of every
workload untraced and records:

* ``digests`` — the bitwise outcome fingerprint per sub-seed.  A traced
  run of that sub-seed must reproduce it (``bench.sim_exact``); a change
  that only makes the simulator faster keeps every digest.
* ``paper`` — per (ES, DS) pair and paper metric, the accepted range
  ``[low, high]``: half the smallest to twice the largest value seen over
  the seeds.  The paper metrics vary a lot from seed to seed (hotspot
  queues), so the range only catches gross errors; the digests catch
  every bit.  A metric that read 0 on every seed (no data moved) must
  stay exactly 0.

Regenerate only when simulated behaviour is meant to change, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    reference = {}
    for name, workload in wl.WORKLOADS.items():
        digests = {}
        values = defaultdict(lambda: defaultdict(list))
        for seed in range(args.seeds):
            sub = wl.sub_seeds(workload, seed)[0]
            result = run.in_child(run.one_run, workload, sub)
            if "child_error" in result:
                raise SystemExit(f"{name} seed {seed}: "
                                 f"{result['child_error']}")
            digests[str(sub)] = result["digest"]
            for pair in run.pair_runs(result):
                if pair.get("error") or pair.get("problems"):
                    continue
                for metric in wl.PAPER_METRICS:
                    values[f"{pair['es']}/{pair['ds']}"][metric].append(
                        pair["metrics"][metric])
            print(f"{name} seed {seed}: {result['digest']}", flush=True)
        paper = {}
        for pair, metrics in sorted(values.items()):
            paper[pair] = {}
            for metric, samples in metrics.items():
                paper[pair][metric] = [min(samples) / 2, max(samples) * 2]
        reference[name] = {"paper": paper, "digests": digests}
    out = HERE / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
