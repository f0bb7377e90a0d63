"""The committed-digest gates, run in-process as part of tier-1.

CI runs the same two commands as separate jobs; running them here too
means a local ``pytest`` run sees a drifted scorecard or trace digest
before it reaches CI:

- the chaos smoke campaign against ``benchmarks/chaos-baseline.json``;
- ``examples/continuum_scale.py`` with the CI ``scale-smoke`` arguments
  on the sequential backend against ``examples/continuum_scale.digest``
  (its ``--check`` also compares against the single-shard twin).
"""

import importlib.util
from pathlib import Path

from repro.chaos.cli import main as chaos_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_chaos_smoke_matches_committed_scorecard(capsys):
    code = chaos_main(["run", "--campaign", "smoke", "--seed", "7",
                       "--check",
                       str(REPO_ROOT / "benchmarks/chaos-baseline.json")])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "scorecard matches" in out


def test_continuum_scale_matches_committed_digest(capsys):
    spec = importlib.util.spec_from_file_location(
        "continuum_scale", REPO_ROOT / "examples/continuum_scale.py")
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    code = example.main([
        "--devices", "1000", "--zones", "4", "--shards", "4",
        "--horizon", "200", "--workers", "0", "--profile",
        "--check", str(REPO_ROOT / "examples/continuum_scale.digest")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "check passed" in out
