"""Which layer functions the traced run wraps, and the per-layer metrics.

Spans are named after the repo's modules. On ``metro_100k.x2`` only the
coordinator's functions are wrapped: the shard heaps run in forked
workers, whose times come from the opt-in ``ShardProfiler`` instead.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

from tracing import Patches, SpanRecorder, summarize

#: span name -> (module, attribute path) of a public function or method.
FULL = {
    "continuum.fleet.step": ("repro.continuum.fleet", "DeviceFleet.step"),
    "continuum.simulator.run": ("repro.continuum.simulator",
                                "Simulator.run"),
    "core.events.publish": ("repro.core.events", "EventBus.publish"),
    "runtime.shard.relay_deliver": ("repro.runtime.shard",
                                    "relay_deliver"),
    "runtime.trace.record": ("repro.runtime.trace",
                             "TraceRecorder.record"),
    "runtime.trace.render_hash": ("repro.runtime.shard",
                                  "ShardedContext.digest"),
    "obs.tracer.start_span": ("repro.obs.spans", "Tracer.start_span"),
    "obs.tracer.span_exit": ("repro.obs.spans", "Span.__exit__"),
    "obs.metrics.snapshot": ("repro.runtime.shard",
                             "ShardedContext.snapshot_observability"),
    "obs.metrics.snapshot.ctx": ("repro.runtime.context",
                                 "RuntimeContext.snapshot_observability"),
    "mirto.mape.iterate": ("repro.mirto.mape", "MapeLoop.iterate"),
    "mirto.mape.sense": ("repro.mirto.mape", "MapeLoop.sense"),
    "mirto.mape.analyze": ("repro.mirto.mape", "MapeLoop.analyze"),
    "mirto.mape.plan": ("repro.mirto.mape", "MapeLoop.plan"),
    "mirto.mape.execute": ("repro.mirto.mape", "MapeLoop.execute"),
    "kb.store.put": ("repro.kb.store", "KnowledgeBase.put"),
    "kb.raft.tick": ("repro.kb.raft", "RaftCluster.tick"),
    "kube.reconcile": ("repro.kube.cluster", "KubeCluster.reconcile"),
    "tosca.parse": ("repro.tosca.parser", "parse_service_template"),
    "net.path": ("repro.net.topology", "Network.path"),
    "analysis.parse": ("repro.analysis.cache", "parse_source"),
    "analysis.lint": ("repro.analysis.lint.engine", "LintEngine.run"),
    "analysis.flow.load_project": ("repro.analysis.flow", "load_project"),
    "analysis.flow.topicflow": ("repro.analysis.flow.topicflow",
                                "analyze_topic_flow"),
    "analysis.flow.des": ("repro.analysis.flow.des",
                          "analyze_des_contracts"),
}

COORDINATOR = {
    "runtime.parallel.spawn": ("repro.runtime.parallel",
                               "ParallelShardedContext.__init__"),
    "runtime.parallel.finalize": ("repro.runtime.parallel",
                                  "ParallelShardedContext.finalize"),
    "runtime.trace.render_hash": ("repro.runtime.parallel",
                                  "ParallelShardedContext.digest"),
    "obs.metrics.snapshot": (
        "repro.runtime.parallel",
        "ParallelShardedContext.snapshot_observability"),
}

#: Strategies the per-strategy solve rows cover.
STRATEGIES = ("greedy", "portfolio")


def _replace(patches: Patches, module_name: str, path: str,
             make: Callable[[Callable], Callable]) -> None:
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        patches.replace(owner, attr, make(vars(owner)[attr]))
        return
    # A module-level function: replace it in every repro module that
    # imported it by name, so callers resolve the wrapper.
    original = getattr(module, path)
    wrapped = make(original)
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("repro") and mod is not None \
                and vars(mod).get(path) is original:
            patches.replace(mod, path, wrapped)


def install(recorder: SpanRecorder, coordinator_only: bool) -> Patches:
    """Wrap the layer functions; returns the patches to undo."""
    patches = Patches()
    table = COORDINATOR if coordinator_only else FULL
    for name, (module, path) in table.items():
        _replace(patches, module, path,
                 lambda fn, name=name: recorder.wrap(fn, name))
    if coordinator_only:
        return patches

    def wrap_tap_factory(make_tap: Callable) -> Callable:
        def make_relay_tap(src: Any, outbox: list, mark: list):
            return recorder.fold(make_tap(src, outbox, mark),
                                 "runtime.shard.relay_tap",
                                 probe=outbox.__len__)
        return make_relay_tap

    _replace(patches, "repro.runtime.shard", "make_relay_tap",
             wrap_tap_factory)
    _replace(patches, "repro.kb.raft", "RaftNode.handle",
             lambda fn: recorder.fold(fn, "kb.raft.message"))

    def wrap_solve(solve: Callable) -> Callable:
        per_strategy: dict[str, Callable] = {}

        def traced_solve(self: Any, request: Any) -> Any:
            name = getattr(self, "name", type(self).__name__)
            inner = per_strategy.get(name)
            if inner is None:
                inner = per_strategy[name] = recorder.wrap(
                    solve, f"mirto.placement.solve.{name}")
            result = inner(self, request)
            recorder.count("mirto.placement.solves")
            recorder.count("mirto.placement.nodes",
                           sum(s.nodes for s in result.stats))
            recorder.count("mirto.placement.optimal", int(result.optimal))
            return result
        return traced_solve

    _replace(patches, "repro.mirto.placement", "PlacementStrategy.solve",
             wrap_solve)
    return patches


def layer_metrics(recorder: SpanRecorder, traced_ops: int,
                  overhead_ratio: float, failed_ratio: float
                  ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value per traced op, unit)``;
    layers a workload bypasses read 0."""
    spans = summarize(recorder)
    per_op = 1.0 / max(1, traced_ops)
    counters = recorder.counters

    def field(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0) * per_op

    def count(name: str) -> float:
        return counters.get(name, 0) * per_op

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def calls_self(name: str) -> None:
        out[f"{name}.calls"] = (field(name, "calls"), "count")
        out[f"{name}.self_s"] = (field(name, "self_s"), "s")

    calls_self("continuum.fleet.step")
    out["continuum.simulator.events"] = (
        count("continuum.simulator.events"), "count")
    out["continuum.simulator.run.self_s"] = (
        field("continuum.simulator.run", "self_s"), "s")
    calls_self("core.events.publish")
    calls_self("runtime.shard.relay_tap")
    tap = spans.get("runtime.shard.relay_tap", {})
    out["runtime.shard.relay_tap.useful_ratio"] = (
        ratio(tap.get("useful", 0), tap.get("calls", 0)), "ratio")
    calls_self("runtime.shard.relay_deliver")
    calls_self("runtime.trace.record")
    out["runtime.trace.render_hash_s"] = (
        field("runtime.trace.render_hash", "total_s"), "s")
    out["runtime.parallel.spawn_s"] = (
        field("runtime.parallel.spawn", "total_s"), "s")
    for key in ("advance_s", "barrier_wait_s"):
        out[f"runtime.parallel.{key}"] = (
            count(f"runtime.parallel.{key}"), "s")
    for key in ("relays", "epochs"):
        out[f"runtime.parallel.{key}"] = (
            count(f"runtime.parallel.{key}"), "count")
    out["runtime.parallel.finalize_s"] = (
        field("runtime.parallel.finalize", "total_s"), "s")
    out["obs.tracer.start_span.calls"] = (
        field("obs.tracer.start_span", "calls"), "count")
    out["obs.tracer.start_span.self_s"] = (
        field("obs.tracer.start_span", "self_s")
        + field("obs.tracer.span_exit", "self_s"), "s")
    out["obs.metrics.snapshot_s"] = (
        field("obs.metrics.snapshot", "total_s")
        + field("obs.metrics.snapshot.ctx", "total_s"), "s")
    for phase in ("sense", "analyze", "plan", "execute"):
        out[f"mirto.mape.{phase}.self_s"] = (
            field(f"mirto.mape.{phase}", "self_s"), "s")
    out["mirto.mape.iterations"] = (
        field("mirto.mape.iterate", "calls"), "count")
    for strategy in STRATEGIES:
        calls_self(f"mirto.placement.solve.{strategy}")
    out["mirto.placement.nodes"] = (count("mirto.placement.nodes"), "count")
    out["mirto.placement.optimal_ratio"] = (ratio(
        counters.get("mirto.placement.optimal", 0),
        counters.get("mirto.placement.solves", 0)), "ratio")
    calls_self("kb.store.put")
    calls_self("kb.raft.tick")
    out["kb.raft.messages_per_put"] = (ratio(
        spans.get("kb.raft.message", {}).get("calls", 0),
        spans.get("kb.store.put", {}).get("calls", 0)), "ratio")
    calls_self("kube.reconcile")
    for name in ("kube.evictions", "kube.breaker_opens",
                 "continuum.gateway.deliveries", "continuum.gateway.drops",
                 "chaos.retry.attempts"):
        out[name] = (count(name), "count")
    calls_self("tosca.parse")
    calls_self("net.path")
    out["analysis.parse.files"] = (field("analysis.parse", "calls"),
                                   "count")
    out["analysis.parse.self_s"] = (field("analysis.parse", "self_s"), "s")
    out["analysis.lint.self_s"] = (field("analysis.lint", "self_s"), "s")
    for key in ("load_project", "topicflow", "des"):
        out[f"analysis.flow.{key}_s"] = (
            field(f"analysis.flow.{key}", "total_s"), "s")
    out["analysis.findings"] = (count("analysis.findings"), "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["failed_ratio"] = (failed_ratio, "ratio")
    return out
