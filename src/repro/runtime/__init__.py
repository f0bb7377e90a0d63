"""Runtime layer: the shared spine every subsystem is injected with.

:class:`RuntimeContext` owns the canonical simulator (virtual clock),
the traced event bus, the RNG seed tree and the structured trace
recorder; :meth:`RuntimeContext.adopt` is the single context-injection
surface, and it also wraps a bare ``Simulator`` handed in by the caller.
See DESIGN.md ("Runtime layer").
"""

from repro.runtime.context import RuntimeContext, TracedEventBus
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
    "jsonify",
]
