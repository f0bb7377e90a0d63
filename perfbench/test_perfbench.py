"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import genproject  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import (Patches, SpanRecorder, covered, self_times,  # noqa: E402
                     summarize)


# -- generator ---------------------------------------------------------------

def test_generator_same_seed_same_bytes():
    a, b = genproject.generate(7), genproject.generate(7)
    assert a.files == b.files
    assert a.planted == b.planted
    assert genproject.generate(8).files != a.files


def test_generator_plants_every_rule():
    project = genproject.generate(3)
    rules = {rule for rule, _, _ in project.planted}
    assert rules == set(genproject.LINT_RULES + genproject.FLOW_RULES)
    assert [r for r, _, _ in project.planted].count("flow-dead-topic") == 1


@pytest.mark.parametrize("seed", [0, 11])
def test_analyzer_reports_exactly_the_planted_findings(seed, tmp_path):
    work = workloads.Analysis(seed, tmp_path)
    assert work.op(0)
    assert work.counters() == {"analysis.findings": len(work.project.planted)}


def test_analysis_check_fails_on_a_wrong_expectation(tmp_path):
    work = workloads.Analysis(1, tmp_path)
    work.project.planted = work.project.planted[1:]
    records, _ = run._run_ops(work, 0.0, traced=False)
    assert [ok for _, _, ok, _ in records] == [False]


# -- self-time arithmetic -----------------------------------------------------

def test_covered_merges_overlapping_children_and_clips():
    assert covered(0, 100, []) == 0
    assert covered(0, 100, [(10, 20), (30, 40)]) == 20
    assert covered(0, 100, [(10, 30), (20, 40)]) == 30  # overlap once
    assert covered(0, 100, [(10, 40), (20, 30)]) == 30  # contained
    assert covered(10, 50, [(0, 20), (40, 90)]) == 20  # clipped
    assert covered(0, 10, [(20, 30)]) == 0


def test_self_times_nested_and_overlapping():
    spans = [
        (0, 100, -1, 0),   # 0: root
        (10, 60, 0, 5),    # 1: child of root, 5 ns folded
        (20, 30, 1, 0),    # 2: grandchild
        (40, 70, 0, 0),    # 3: overlaps span 1 (parallel child)
    ]
    # root: 100 - |[10,70)| = 40; span 1: 50 - 10 - 5 = 35
    assert self_times(spans) == [40, 35, 10, 30]


def test_recorder_wrap_and_fold_charge_the_parent():
    recorder = SpanRecorder()
    ticks = iter(range(0, 1000, 10))
    recorder.clock = lambda: next(ticks)
    outbox: list = []
    leaf = recorder.fold(outbox.append, "leaf", probe=outbox.__len__)
    inner = recorder.wrap(lambda: leaf(1), "inner")
    outer = recorder.wrap(lambda: inner(), "outer")
    outer()
    summary = summarize(recorder)
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["calls"] == 1
    assert summary["leaf"]["calls"] == 1 and summary["leaf"]["useful"] == 1
    # Clock reads: outer starts 0, inner 10, leaf 20..30, inner ends
    # 40, outer 50. outer: 50 - inner's 30 = 20; inner: 30 - leaf 10.
    assert summary["outer"]["self_s"] == pytest.approx(20e-9)
    assert summary["inner"]["self_s"] == pytest.approx(20e-9)
    assert summary["leaf"]["self_s"] == pytest.approx(10e-9)


def test_patches_restore_exactly():
    class Target:
        def method(self):
            return 1
    original = vars(Target)["method"]
    patches = Patches()
    patches.replace(Target, "method", lambda self: 2)
    assert Target().method() == 2
    patches.restore()
    assert vars(Target)["method"] is original


# -- corrupted pins count as failures ----------------------------------------

def test_corrupted_scorecard_raises_failed_ratio():
    pinned = json.loads((HERE / "pinned.json").read_text())
    good = workloads.Chaos(0, pinned)
    assert good.op(0)
    corrupt = dict(pinned)
    corrupt["chaos"] = list(pinned["chaos"])
    corrupt["chaos"][good.start] = "0" * 64
    bad = workloads.Chaos(0, corrupt)
    records, _ = run._run_ops(bad, 0.0, traced=False)
    assert [ok for _, _, ok, _ in records] == [False]


def test_corrupted_digest_raises_failed_ratio():
    from repro.continuum.scale import ScaleConfig, run_scale_scenario

    small = dict(devices=2000, zones=4, shards=4, horizon_s=100.0)
    result = run_scale_scenario(ScaleConfig(seed=0, **small))
    truth = {"trace": result.digest(),
             "metrics": workloads.metrics_digest(result.sharded)}
    for corrupt_key in (None, "trace", "metrics"):
        entry = dict(truth)
        if corrupt_key:
            entry[corrupt_key] = "f" * 64
        work = workloads.Metro(0, {"metro": {"0": entry}}, workers=0)
        work._config = lambda **kw: ScaleConfig(**small, **kw)
        records, _ = run._run_ops(work, 0.0, traced=False)
        assert [ok for _, _, ok, _ in records] == [corrupt_key is None]


def test_traced_op_is_digest_neutral_and_reports_every_layer():
    pinned = json.loads((HERE / "pinned.json").read_text())
    work = workloads.Chaos(5, pinned)
    records, recorder = run._run_ops(work, 0.0, traced=True)
    assert [ok for _, _, ok, _ in records] == [True, True]
    metrics = layers.layer_metrics(recorder, 1, 1.0, 0.0)
    assert metrics["mirto.mape.iterations"][0] > 0
    assert metrics["kb.store.put.calls"][0] > 0
    assert metrics["continuum.fleet.step.calls"][0] == 0  # bypassed


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    recorder = SpanRecorder()
    names = set(layers.layer_metrics(recorder, 1, 1.0, 0.0))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(spec["paths"]) == {HERE.name}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
