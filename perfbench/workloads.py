"""The four benchmark workloads, each driven through public entry points.

A workload is built once per run (``setup``) and then runs ops one after
another, closed-loop with one client. ``op(i)`` runs op *i* and returns
whether its output passed the check; a raise also counts as a failed op.
Inputs come from the workload seed alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
from pathlib import Path
from typing import Any

from genproject import generate


def metrics_digest(sharded: Any) -> str:
    """SHA-256 of the canonical aggregated-metrics JSON (the second line
    of ``examples/continuum_scale.digest``)."""
    payload = sharded.snapshot_observability()["metrics"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def scorecard_digest(card: dict) -> str:
    """SHA-256 of one chaos scorecard in canonical JSON."""
    blob = json.dumps(card, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Metro:
    """``ScaleConfig.metro_100k()`` on one shard backend. Op *i* runs the
    pinned scenario seed at position *i* of a seed-shuffled order."""

    def __init__(self, seed: int, pinned: dict, workers: int):
        from repro.continuum.scale import ScaleConfig, run_scale_scenario
        self._config = ScaleConfig.metro_100k
        self._run = run_scale_scenario
        self.workers = workers
        self.expected = pinned["metro"]
        self.order = sorted(int(s) for s in self.expected)
        random.Random(seed).shuffle(self.order)
        self.last: Any = None

    def op(self, i: int, profile: bool = False) -> bool:
        scenario_seed = self.order[i % len(self.order)]
        # The profiler times the worker processes, which the traced run
        # cannot wrap; the sequential backend is traced directly.
        config = self._config(workers=self.workers, seed=scenario_seed,
                              profile=profile and self.workers > 0)
        result = self._run(config)
        trace = result.digest()
        metrics = metrics_digest(result.sharded)
        # Keep only what counters() reads: holding the whole run would
        # double the next op's peak memory.
        profiler = result.sharded.profiler
        self.last = (result.sharded.events_executed,
                     profiler.to_payload() if profiler else None)
        want = self.expected[str(scenario_seed)]
        return trace == want["trace"] and metrics == want["metrics"]

    def counters(self) -> dict[str, float]:
        """Counts from the last op's run (worker times when profiled)."""
        events, profile = self.last
        out = {"continuum.simulator.events": events}
        if profile is not None:
            shards = profile["shards"]
            out["runtime.parallel.advance_s"] = \
                sum(s["advance_ns"] for s in shards) / 1e9
            out["runtime.parallel.barrier_wait_s"] = \
                sum(s["wait_ns"] for s in shards) / 1e9
            out["runtime.parallel.relays"] = sum(s["relay"] for s in shards)
            out["runtime.parallel.epochs"] = len(profile["epochs"])
        return out


class Chaos:
    """The ``full`` chaos campaign: op *i* is ``run_scenario`` plus
    ``score_run`` for one scenario seed, sweeping the pinned seeds from
    a seed-chosen start."""

    def __init__(self, seed: int, pinned: dict):
        from repro.chaos import run_scenario, score_run
        self._run = run_scenario
        self._score = score_run
        self.expected = pinned["chaos"]
        self.start = random.Random(seed).randrange(len(self.expected))
        self.last: Any = None

    def op(self, i: int, profile: bool = False) -> bool:
        scenario_seed = (self.start + i) % len(self.expected)
        run = self._run(scenario_seed, "full")
        card = self._score(run)
        self.last = (run, card)
        return scorecard_digest(card) == self.expected[scenario_seed]

    def counters(self) -> dict[str, float]:
        """Counts from the last op's run and scorecard."""
        run, card = self.last
        ctx = run["ctx"]
        return {
            "continuum.simulator.events": ctx.sim.processed_events,
            "kube.evictions": card["pods_evicted"],
            "kube.breaker_opens": sum(
                states.count("open")
                for states in card["breaker_states"].values()),
            "continuum.gateway.deliveries": card["deliveries"],
            "continuum.gateway.drops": card["messages_dropped"],
            "chaos.retry.attempts":
                len(ctx.trace.records("chaos.policy.retry")),
        }


class Analysis:
    """``repro-analysis --check --no-cache`` over a generated project.

    The project is written once per run; every op analyzes it cold: no
    parse cache, and the analyzer's in-process memo caches are emptied
    before each op, as a fresh ``repro-analysis`` process would have
    them."""

    def __init__(self, seed: int, workdir: Path):
        # The flow and lint engines are imported lazily by the CLI; import
        # them here so setup carries the import cost and the memo caches
        # below can be found.
        import repro.analysis.flow  # noqa: F401
        import repro.analysis.lint  # noqa: F401
        from repro.analysis.cli import main
        self._main = main
        self.project = generate(seed)
        self.root = workdir / f"analysis-{seed}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.project.write(self.root)
        self._caches = [
            obj for name, module in sorted(sys.modules.items())
            if name.startswith("repro.analysis") and module is not None
            for obj in vars(module).values()
            if callable(getattr(obj, "cache_clear", None))]
        self.findings = 0

    def op(self, i: int, profile: bool = False) -> bool:
        for cached in self._caches:
            cached.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._main(["--check", "--no-cache", "--json",
                               "--root", str(self.root)])
        report = json.loads(out.getvalue())
        found = sorted((f["rule"], f["path"], f["line"])
                       for f in report["new"])
        self.findings = len(found)
        return code == 1 and found == self.project.planted

    def counters(self) -> dict[str, float]:
        return {"analysis.findings": self.findings}


WORKLOADS = ("metro_100k.seq", "metro_100k.x2", "chaos_full",
             "analysis_check")

#: Worker processes each workload asks for (refused above ``nproc``).
WORKERS = {"metro_100k.seq": 0, "metro_100k.x2": 2, "chaos_full": 0,
           "analysis_check": 0}


def build(name: str, seed: int, pinned: dict, workdir: Path):
    if name.startswith("metro_100k."):
        return Metro(seed, pinned, workers=WORKERS[name])
    if name == "chaos_full":
        return Chaos(seed, pinned)
    if name == "analysis_check":
        return Analysis(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
