"""Pipe transport: each shard host in its own worker process.

:class:`ParallelShardedContext` is a
:class:`~repro.runtime.shard.ShardedContext` whose shard hosts live in
worker processes (:func:`~repro.runtime.shard_worker.worker_main`), so
all shards advance *concurrently* between conservative epoch barriers.
The coordinator — epoch grid, relayed-pattern set, routing, merged
trace, digest, metrics fold, profiler — is the one in
:mod:`repro.runtime.shard`; only the transport differs. The pipe
transport ships each step as a message (newly relayed patterns ride the
next advance; each worker's outbox batches come back keyed by source
zone and go out to every other worker), keeps per-zone replicas of the
trace rings (from per-epoch record batches the workers stream back) and
of the metric registries (from the deltas on each sync), so the merged
trace and its digest are byte-identical to the in-process run.

The coordinator never blocks forever on a dead worker: every receive
polls the pipe with the process's liveness and a timeout
(:data:`WORKER_TIMEOUT_S`), and a worker that dies, hangs or reports a
traceback raises :class:`ShardWorkerError` after terminating the fleet.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from typing import Any, Sequence

from repro.core.errors import ConfigurationError, ReproError
from repro.runtime.shard import ShardedContext, WorkerSpec
from repro.runtime.shard_worker import worker_main
from repro.runtime.trace import TraceRecord

#: Worker start method: fork where the platform has it (any builder
#: callable works), otherwise spawn (builders must be module-level).
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() \
    else "spawn"

#: Longest wait for one worker reply before the run is declared hung.
WORKER_TIMEOUT_S = 600.0


class ShardWorkerError(ReproError):
    """A shard worker process died, timed out or raised; the run is
    unrecoverable and every sibling worker has been terminated."""


class _Worker:
    __slots__ = ("spec", "proc", "conn")

    def __init__(self, spec: WorkerSpec, proc: Any, conn: Any):
        self.spec = spec
        self.proc = proc
        self.conn = conn


class _PipeTransport:
    """Serves the coordinator's steps over one pipe per worker."""

    backend = "parallel"

    def __init__(self, specs: list[WorkerSpec]):
        n = len(specs[0].zones)
        # Per-zone replicas: trace rings with the worker rings' capacity
        # and eviction, and metric payloads kept current by deltas.
        self.rings = [deque(maxlen=specs[0].trace_capacity)
                      for _ in range(n)]
        self._zone_metrics: list[dict] = [{} for _ in range(n)]
        self._batches = 0
        self._events = [0] * len(specs)
        self._patterns: list[str] = []
        self.closed = False
        mp = multiprocessing.get_context(START_METHOD)
        self._workers: list[_Worker] = []
        try:
            for spec in specs:
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=worker_main, args=(child_conn, spec),
                    name=f"repro-shard-{spec.worker_id}", daemon=True)
                proc.start()
                child_conn.close()
                self._workers.append(_Worker(spec, proc, parent_conn))
            for worker in self._workers:
                self._recv(worker, "ready")
        except BaseException:
            self._abort()
            raise

    @property
    def zone_runtimes(self) -> Sequence:
        raise ConfigurationError(
            "zones live in worker processes; build them with "
            "zone_builder(ctx, zone, args) and collect results with "
            "zone_finalizer — ParallelShardedContext cannot hand out "
            "a live RuntimeContext")

    # -- pipe protocol -----------------------------------------------------

    def _recv(self, worker: _Worker, expect: str) -> tuple:
        spec = worker.spec
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        try:
            while not worker.conn.poll(0.05):
                if not worker.proc.is_alive():
                    # Drain a final message (an error report may have
                    # been flushed right before exit).
                    if worker.conn.poll(0.2):
                        break
                    self._abort()
                    raise ShardWorkerError(
                        f"shard worker {spec.worker_id} (zones "
                        f"{[spec.zones[r] for r in spec.local_ranks]}) "
                        f"died with exit code {worker.proc.exitcode} "
                        f"before the {expect!r} reply")
                if time.monotonic() > deadline:
                    self._abort()
                    raise ShardWorkerError(
                        f"shard worker {spec.worker_id} did not reply "
                        f"within {WORKER_TIMEOUT_S}s (awaiting {expect!r})")
            msg = worker.conn.recv()
        except (EOFError, OSError) as exc:
            self._abort()
            raise ShardWorkerError(
                f"pipe to shard worker {spec.worker_id} broke "
                f"(awaiting {expect!r}): {exc}") from None
        if msg[0] == "error":
            self._abort()
            raise ShardWorkerError(
                f"shard worker {spec.worker_id} raised:\n{msg[1]}")
        if msg[0] != expect:  # pragma: no cover - protocol guard
            self._abort()
            raise ShardWorkerError(
                f"shard worker {spec.worker_id} sent {msg[0]!r}, "
                f"expected {expect!r}")
        return msg

    def _send_all(self, messages: Sequence[tuple]) -> None:
        for worker, message in zip(self._workers, messages):
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                self._abort()
                raise ShardWorkerError(
                    f"pipe to shard worker {worker.spec.worker_id} broke "
                    f"on send: {exc}") from None

    def _absorb_trace(self, batches: list) -> None:
        for rank, records in batches:
            self.rings[rank].extend(TraceRecord(*rec) for rec in records)
            self._batches += 1

    def _absorb(self, shard: int, batches: list, metrics: dict,
                events: int) -> None:
        self._absorb_trace(batches)
        for rank, delta in metrics.items():
            self._zone_metrics[rank].update(delta)
        self._events[shard] = events

    # -- coordinator steps -------------------------------------------------

    def install(self, patterns: list[str]) -> None:
        # Shipped with the next advance: nothing publishes on a worker
        # between a flush and the next epoch.
        self._patterns.extend(patterns)

    def advance(self, t_next: float) -> tuple[dict, list[int]]:
        patterns, self._patterns = self._patterns, []
        self._send_all([("advance", t_next, patterns)]
                       * len(self._workers))
        remote: dict[int, list] = {}
        advance_ns = []
        for worker in self._workers:
            _, out, ns, batches = self._recv(worker, "barrier")
            remote.update(out)
            advance_ns.append(ns)
            self._absorb_trace(batches)
        return remote, advance_ns

    def flush(self, epoch: int, t_barrier: float, remote_for: list[dict],
              record_barrier: bool) -> tuple[dict, list[int]]:
        self._send_all([("flush", epoch, t_barrier, remote_in,
                         record_barrier) for remote_in in remote_for])
        reports: dict[int, list[str]] = {}
        relay = []
        for worker in self._workers:
            _, injected, patterns = self._recv(worker, "flushed")
            reports.update(patterns)
            relay.append(injected)
        return reports, relay

    def sync(self) -> dict[int, list[str]]:
        self._send_all([("sync",)] * len(self._workers))
        reports: dict[int, list[str]] = {}
        for shard, worker in enumerate(self._workers):
            msg = self._recv(worker, "synced")
            reports.update(msg[1])
            self._absorb(shard, *msg[2:])
        return reports

    def finalize(self) -> dict[str, Any]:
        self._send_all([("finalize",)] * len(self._workers))
        results: dict[str, Any] = {}
        for shard, worker in enumerate(self._workers):
            msg = self._recv(worker, "final")
            results.update(msg[1])
            self._absorb(shard, *msg[2:])
        return results

    def close(self) -> None:
        """Shut the worker fleet down."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():  # pragma: no cover - slow exit
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
            worker.conn.close()

    def _abort(self) -> None:
        """Terminate every worker after a failure; idempotent."""
        self.closed = True
        for worker in self._workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- replicas ----------------------------------------------------------

    def trace_version(self) -> int:
        return self._batches

    def zone_metrics(self) -> list[dict]:
        return self._zone_metrics

    def events_executed(self) -> int:
        """DES events across every worker heap, as of the last sync."""
        return sum(self._events)


class ParallelShardedContext(ShardedContext):
    """A :class:`~repro.runtime.shard.ShardedContext` with one worker
    process per shard host.

    Zones live in other processes, so scenario code cannot poke a
    zone's context: pass a module-level ``zone_builder(ctx, zone_name,
    zone_args)`` (called once per zone, in rank order, inside its
    worker) and optionally a ``zone_finalizer(state, zone_name,
    zone_args)`` whose picklable return value :meth:`finalize` collects.
    Use as a context manager (or call :meth:`close`) so worker
    processes are reaped deterministically.
    """

    def __init__(self, seed: int = 0, zones: Sequence[str] = ("zone-00",),
                 workers: int = 1, **kwargs: Any):
        self._transport_type = _PipeTransport
        super().__init__(seed, zones, workers, **kwargs)

    # In this class's own __dict__: perfbench patches methods per class.
    finalize = ShardedContext.finalize
    digest = ShardedContext.digest
    snapshot_observability = ShardedContext.snapshot_observability
