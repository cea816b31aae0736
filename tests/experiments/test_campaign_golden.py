"""Golden campaign outputs: CLI stdout and run identities, frozen.

Each case runs one experiment campaign through the CLI at a tiny scale
and checks two things against the files under
``tests/experiments/golden/``:

* ``<case>.stdout`` — the exact text the command prints;
* ``<case>.keys`` — the sorted :meth:`RunSpec.cache_key` of every run
  the campaign hands to :meth:`ParallelRunner.map`, one per line.  The
  key hashes the full cell config, so this pins every cell's
  configuration, not only the numbers that reach the table.

Together they make refactors of the campaign code checkable: the output
must stay byte-identical and no cell may change its identity (which
would also silently invalidate users' on-disk caches).

Regenerate intentionally changed baselines with::

    PYTHONPATH=src python -m pytest tests/experiments/test_campaign_golden.py --regen-golden
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.parallel import ParallelRunner

GOLDEN_DIR = Path(__file__).parent / "golden"

TINY = ["--users", "4", "--sites", "4", "--datasets", "8", "--n-jobs", "16"]

#: case name → CLI argv.  The grids cover every axis of every campaign
#: with at least two values, and the fault-plan sweeps start from a null
#: plan that carries a seed (``--fault-seed``), which each cell must keep.
CASES = {
    "staleness-sweep": [
        "sensitivity", "--scale", "0.05", "--storage-gb", "8",
        "--delays", "0", "600", "--seeds", "0", "1"],
    "overload-sweep": [
        "sensitivity", "overload-sweep", *TINY,
        "--rates", "0.005", "0.3", "--capacities", "2", "8",
        "--pairs", "JobDataPresent+DataRandom"],
    "recovery-sweep": [
        "sensitivity", "recovery-sweep", *TINY,
        "--thresholds", "2", "6", "--mtbfs", "0", "3600",
        "--partition-cells", "both", "--fault-seed", "5",
        "--pairs", "JobDataPresent+DataRandom"],
    "durability-sweep": [
        "sensitivity", "durability-sweep", "--scale", "0.05",
        "--corruption-mtbfs", "0", "3000", "--rfs", "1", "2",
        "--scrubs", "0", "600", "--fault-seed", "3",
        "--pairs", "JobDataPresent+DataRandom"],
    "sweep": [
        "sweep", "bandwidth_mbps", "5", "10", "100", "--es", "JobLocal",
        "--ds", "DataDoNothing", "--scale", "0.05", "--seeds", "0", "1"],
    "dag": ["dag", *TINY, "--seeds", "0", "1"],
    "matrix": ["matrix", "--scale", "0.05"],
    "figure5": ["figure", "5", "--scale", "0.05", "--seeds", "0", "1"],
}


def _run_campaign(argv, monkeypatch, capsys):
    """Run one CLI campaign; return (stdout, sorted cache keys)."""
    keys = []
    original = ParallelRunner.map

    def recording_map(self, specs):
        specs = list(specs)
        keys.extend(spec.cache_key() for spec in specs)
        return original(self, specs)

    monkeypatch.setattr(ParallelRunner, "map", recording_map)
    assert main(argv) == 0
    return capsys.readouterr().out, sorted(keys)


@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_matches_golden(case, request, monkeypatch, capsys):
    out, keys = _run_campaign(CASES[case], monkeypatch, capsys)
    assert keys, "the campaign requested no runs"
    stdout_path = GOLDEN_DIR / f"{case}.stdout"
    keys_path = GOLDEN_DIR / f"{case}.keys"
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        stdout_path.write_text(out)
        keys_path.write_text("\n".join(keys) + "\n")
        return
    assert stdout_path.exists() and keys_path.exists(), (
        f"no golden files for {case}; generate with --regen-golden")
    assert out == stdout_path.read_text(), f"{case}: stdout drifted"
    assert keys == keys_path.read_text().split(), (
        f"{case}: the set of run identities (cell configs) drifted")
