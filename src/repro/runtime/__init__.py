"""Runtime layer: the shared spine every subsystem is injected with.

:class:`RuntimeContext` owns the canonical simulator (virtual clock),
the traced event bus, the RNG seed tree and the structured trace
recorder; :meth:`RuntimeContext.adopt` is the single context-injection
surface that normalizes legacy ``Simulator``-style injection onto it
(the old ``ensure_context`` / ``as_simulator`` helpers are deprecated
shims over it). See DESIGN.md ("Runtime layer").
"""

from repro.runtime.context import (
    RuntimeContext,
    TracedEventBus,
    as_simulator,
    ensure_context,
)
from repro.runtime.parallel import ParallelShardedContext, ShardWorkerError
from repro.runtime.shard import (
    SHARD_SCOPED_METRICS,
    ShardedContext,
    WorkerSpec,
    ZoneRuntime,
)
from repro.runtime.shard_worker import ShardWorkerHost
from repro.runtime.trace import TraceRecord, TraceRecorder, jsonify

__all__ = [
    "ParallelShardedContext",
    "RuntimeContext",
    "SHARD_SCOPED_METRICS",
    "ShardedContext",
    "ShardWorkerError",
    "ShardWorkerHost",
    "TracedEventBus",
    "TraceRecord",
    "TraceRecorder",
    "WorkerSpec",
    "ZoneRuntime",
    "as_simulator",
    "ensure_context",
    "jsonify",
]
