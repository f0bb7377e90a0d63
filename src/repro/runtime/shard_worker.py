"""Shard host: one ``Simulator`` heap and the zones grouped on it.

A :class:`ShardWorkerHost` owns one shard of a
:class:`~repro.runtime.shard.ShardedContext`: a single
:class:`~repro.continuum.simulator.Simulator` heap shared by a
contiguous rank-block of zones, each with its own
:class:`~repro.runtime.context.RuntimeContext`. The coordinator drives
every host through the same steps, either by direct calls (the
in-process transport) or through :func:`worker_main` in a worker
process (the pipe transport of :mod:`repro.runtime.parallel`), which
serves them as messages over a duplex pipe:

``("advance", t_next, taps)``
    install the coordinator's relay-tap directives, run the heap to the
    epoch boundary, reply ``("barrier", remote_outboxes, advance_ns,
    trace_batches)``. Outboxes destined for zones on *other* hosts are
    shipped as value snapshots; locally-destined buffers stay in place
    for the flush.
``("flush", epoch, t_barrier, remote_in, record_barrier)``
    barrier injection for the host's zones — source batches merged
    from local buffers and coordinator-routed remote batches in
    *global* rank order, messages in send order — then reply
    ``("flushed", injected, pattern_report)`` so subscriptions added
    during the epoch *or* by flush-time record handlers reach the
    coordinator's relay model before the next epoch runs.
``("sync",)`` / ``("finalize",)`` / ``("close",)``
    report subscription patterns and drain the remaining trace
    records, metric deltas and event count; run the zone finalizers
    and return their results (plus the same drain); exit.

Determinism: hosts run the *same* tap/delivery/injection primitives
whichever transport drives them (``make_relay_tap``,
``flush_zone_inbox`` — single implementation, see
:mod:`repro.runtime.shard`), the zone seed subtree hangs off the zone
name, and tap installation order only perturbs bus bookkeeping, never
delivery order. In a worker process any exception is wrapped as
``("error", traceback)`` so the coordinator raises instead of
deadlocking on a silent barrier.
"""

from __future__ import annotations

import traceback
from typing import Any

from repro.core.rng import derive_seed
from repro.obs.metrics import payload_delta
from repro.obs.profiler import ShardProfiler
from repro.runtime.context import RuntimeContext
from repro.runtime.shard import (
    PARTITION_TOPIC,
    WorkerSpec,
    ZoneRuntime,
    flush_zone_inbox,
    make_relay_tap,
)


class ShardWorkerHost:
    """One shard: builds its zones and owns their relay buffers."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        # runtime/ is the allowlisted home for direct Simulator
        # construction (continuum-lint).
        from repro.continuum.simulator import Simulator
        self.sim = Simulator(spec.start_time)
        self.zones: list[ZoneRuntime] = []
        self.by_rank: dict[int, ZoneRuntime] = {}
        self._local = set(spec.local_ranks)
        for rank in spec.local_ranks:
            name = spec.zones[rank]
            ctx = RuntimeContext(
                seed=derive_seed(spec.seed, f"shard.zone.{name}"),
                start_time=spec.start_time,
                trace_capacity=spec.trace_capacity, sim=self.sim)
            zone = ZoneRuntime(name, rank, spec.worker_id, ctx)
            self.zones.append(zone)
            self.by_rank[rank] = zone
            zone.ctx.publish(PARTITION_TOPIC, {
                "zone": name, "rank": rank,
                "epoch_s": spec.epoch_payload,
                "lookahead_s": spec.lookahead_payload,
                "time_s": spec.start_time})
        self.state: dict[int, Any] = {}
        if spec.builder is not None:
            for zone in self.zones:
                self.state[zone.rank] = spec.builder(
                    zone.ctx, zone.name, spec.builder_args)
        # Relay plumbing: one outbox/mark per (src, dest) pair, tap
        # closures per install round. Tap subscriptions are tracked so
        # organic pattern reports exclude them (the coordinator models
        # tap-pattern propagation itself).
        self._outbox: dict[tuple[int, int], list] = {}
        self._marks: dict[tuple[int, int], list[int]] = {}
        self._tap_subs: dict[int, set] = {z.rank: set() for z in self.zones}
        self._order_reported: dict[int, int] = \
            {z.rank: -1 for z in self.zones}
        # Metrics piggybacking: the last payload snapshot shipped per
        # zone, so each reply carries only the entries that changed.
        self._metrics_sent: dict[int, dict] = \
            {z.rank: {} for z in self.zones}
        #: Wall time of the last :meth:`advance` (profiler column).
        self.advance_ns = 0

    # -- coordinator steps -------------------------------------------------

    def pattern_report(self) -> dict[int, list[str]]:
        """Organic (non-tap) subscription patterns per local zone, for
        zones whose bus gained subscriptions since the last report."""
        report: dict[int, list[str]] = {}
        for zone in self.zones:
            order = zone.ctx.bus._order
            if order == self._order_reported[zone.rank]:
                continue
            self._order_reported[zone.rank] = order
            taps = self._tap_subs[zone.rank]
            patterns: list[str] = []
            seen: set[str] = set()
            for sub in zone.ctx.bus._subs:
                if sub.active and sub not in taps \
                        and sub.pattern not in seen:
                    seen.add(sub.pattern)
                    patterns.append(sub.pattern)
            report[zone.rank] = patterns
        return report

    def install_taps(self, directives: list[tuple[int, int, str]]) -> None:
        """Subscribe the relay-tap directives whose source zone is local.
        One tap closure per (src, dest) pair per call, shared by every
        pattern that pair taps in this round."""
        round_taps: dict[tuple[int, int], Any] = {}
        for src_rank, dest_rank, pattern in directives:
            src = self.by_rank.get(src_rank)
            if src is None:
                continue
            pair = (src_rank, dest_rank)
            if pair not in self._outbox:
                self._outbox[pair] = []
                self._marks[pair] = [-1]
            tap = round_taps.get(pair)
            if tap is None:
                tap = make_relay_tap(src, self._outbox[pair],
                                     self._marks[pair])
                round_taps[pair] = tap
            sub = src.ctx.bus.subscribe(pattern, tap)
            self._tap_subs[src_rank].add(sub)
            # Installing a tap bumps the bus order; that must not
            # masquerade as an organic subscription next barrier.
            self._order_reported[src_rank] = src.ctx.bus._order

    def advance(self, t_next: float) -> None:
        t0 = ShardProfiler.clock()
        self.sim.run(until=t_next)
        self.advance_ns = ShardProfiler.clock() - t0

    def collect_remote(self) -> dict[tuple[int, int], list]:
        """Snapshot-and-clear outboxes destined for other hosts. The
        buffer object itself stays in place — tap closures hold it."""
        remote: dict[tuple[int, int], list] = {}
        for (src_rank, dest_rank), batch in self._outbox.items():
            if dest_rank not in self._local and batch:
                remote[(src_rank, dest_rank)] = list(batch)
                batch.clear()
        return remote

    def flush(self, epoch: int, t_barrier: float,
              remote_in: dict[tuple[int, int], list],
              record_barrier: bool) -> int:
        """Barrier injection for local destination zones: source batches
        in global rank order (local buffers and coordinator-routed
        remote snapshots interleaved by source rank). Returns the
        messages injected."""
        latency = self.spec.link_latency_s or 0.0
        n = len(self.spec.zones)
        injected = 0
        for dest in self.zones:
            batches = []
            for src_rank in range(n):
                if src_rank == dest.rank:
                    continue
                if src_rank in self._local:
                    batch = self._outbox.get((src_rank, dest.rank))
                else:
                    batch = remote_in.get((src_rank, dest.rank))
                if batch:
                    batches.append(batch)
            injected += flush_zone_inbox(dest, batches, latency, epoch,
                                         t_barrier, record_barrier)
            for batch in batches:
                batch.clear()
        return injected

    def finalize(self) -> dict[str, Any]:
        results: dict[str, Any] = {}
        if self.spec.finalizer is not None:
            for zone in self.zones:
                results[zone.name] = self.spec.finalizer(
                    self.state.get(zone.rank), zone.name,
                    self.spec.builder_args)
        return results

    # -- worker-process replies --------------------------------------------

    def drain_trace(self) -> list[tuple[int, list[tuple]]]:
        """Stream out each local zone's retained records (rank order)
        and clear the rings — sequence counters keep counting, so the
        coordinator's replica rings evict exactly like local ones."""
        batches = []
        for zone in self.zones:
            records = [(rec.seq, rec.time_s, rec.topic, rec.payload,
                        rec.span) for rec in zone.ctx.trace]
            if records:
                batches.append((zone.rank, records))
            zone.ctx.trace.clear()
        return batches

    def metrics_report(self) -> dict[int, dict]:
        """Per-zone metric deltas since the last report (rank-keyed).
        Deltas are whole-entry snapshots, so applying them is a dict
        update and their order across zones cannot matter."""
        report: dict[int, dict] = {}
        for zone in self.zones:
            current = zone.ctx.metrics.to_payload()
            delta = payload_delta(self._metrics_sent[zone.rank], current)
            if delta:
                report[zone.rank] = delta
                self._metrics_sent[zone.rank] = current
        return report

    def drain(self) -> tuple[list, dict[int, dict], int]:
        """Trace batches, metric deltas and event count for the
        coordinator's replicas."""
        return (self.drain_trace(), self.metrics_report(),
                self.sim.processed_events)


def worker_main(conn, spec: WorkerSpec) -> None:
    """Subprocess entry point: serve coordinator steps until close.

    Every exception — build errors included — is reported as
    ``("error", traceback)`` before exit so the coordinator's barrier
    receive raises instead of hanging.
    """
    try:
        host = ShardWorkerHost(spec)
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                _, t_next, taps = msg
                if taps:
                    host.install_taps(taps)
                host.advance(t_next)
                conn.send(("barrier", host.collect_remote(),
                           host.advance_ns, host.drain_trace()))
            elif cmd == "flush":
                injected = host.flush(*msg[1:])
                conn.send(("flushed", injected, host.pattern_report()))
            elif cmd == "sync":
                conn.send(("synced", host.pattern_report(),
                           *host.drain()))
            elif cmd == "finalize":
                conn.send(("final", host.finalize(), *host.drain()))
            elif cmd == "close":
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown shard command {cmd!r}")
    except EOFError:  # coordinator went away; nothing left to report
        return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
