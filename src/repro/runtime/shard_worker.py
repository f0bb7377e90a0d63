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

``("advance", t_next, patterns)``
    subscribe every local zone's relay tap to the newly relayed
    patterns, run the heap to the epoch boundary, take every local
    zone's outbox and reply ``("barrier", batches, advance_ns,
    trace_batches)``. ``batches`` maps source rank to that zone's
    outbox batch; it is empty when this host owns every zone.
``("flush", epoch, t_barrier, remote_in, record_barrier)``
    barrier injection for the host's zones — each destination reads
    every other zone's batch (local ones taken at the advance,
    coordinator-routed ``remote_in`` ones by source rank) in *global*
    rank order, messages in send order — then reply
    ``("flushed", injected, pattern_report)`` so subscriptions added
    during the epoch *or* by flush-time record handlers reach the
    coordinator's relayed-pattern set before the next epoch runs.
``("sync",)`` / ``("finalize",)`` / ``("close",)``
    report subscription patterns and drain the remaining trace
    records, metric deltas and event count; run the zone finalizers
    and return their results (plus the same drain); exit.

Determinism: hosts run the *same* tap/delivery/injection primitives
whichever transport drives them (``make_relay_tap``,
``flush_zone_inbox`` — single implementation, see
:mod:`repro.runtime.shard`), the zone seed subtree hangs off the zone
name, and outboxes are taken before any injection, so what a barrier
delivers never depends on which host flushes first. In a worker process
any exception is wrapped as
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
        self.sim = Simulator()
        self.zones: list[ZoneRuntime] = []
        # The epoch is the lookahead; both payload keys stay for the
        # shard.partition.assign topic contract.
        lookahead = spec.link_latency_s
        for rank in spec.local_ranks:
            name = spec.zones[rank]
            ctx = RuntimeContext(
                seed=derive_seed(spec.seed, f"shard.zone.{name}"),
                trace_capacity=spec.trace_capacity, sim=self.sim)
            zone = ZoneRuntime(name, rank, spec.worker_id, ctx)
            self.zones.append(zone)
            zone.ctx.publish(PARTITION_TOPIC, {
                "zone": name, "rank": rank, "epoch_s": lookahead,
                "lookahead_s": lookahead, "time_s": 0.0})
        self.state: dict[int, Any] = {}
        if spec.builder is not None:
            for zone in self.zones:
                self.state[zone.rank] = spec.builder(
                    zone.ctx, zone.name, spec.builder_args)
        # Relay plumbing: one outbox and one tap per local zone, the tap
        # subscribed once per relayed pattern. make_relay_tap is looked
        # up as a module global here, so wrapping it instruments taps.
        self._outbox: dict[int, list] = {z.rank: [] for z in self.zones}
        self._taps = {z.rank: make_relay_tap(z, self._outbox[z.rank], [-1])
                      for z in self.zones}
        #: Local batches taken at the last advance, by source rank.
        self._taken: dict[int, list] = {}
        self._owns_all = len(self.zones) == len(spec.zones)
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
        """Subscription patterns per local zone, for zones whose bus
        gained subscriptions since the last report. Tap subscriptions
        are reported too; their patterns are already relayed."""
        report: dict[int, list[str]] = {}
        for zone in self.zones:
            order = zone.ctx.bus._order
            if order == self._order_reported[zone.rank]:
                continue
            self._order_reported[zone.rank] = order
            report[zone.rank] = list(dict.fromkeys(
                sub.pattern for sub in zone.ctx.bus._subs if sub.active))
        return report

    def install_taps(self, patterns: list[str]) -> None:
        """Subscribe every local zone's relay tap to *patterns*."""
        for zone in self.zones:
            tap = self._taps[zone.rank]
            for pattern in patterns:
                zone.ctx.bus.subscribe(pattern, tap)

    def advance(self, t_next: float) -> None:
        t0 = ShardProfiler.clock()
        self.sim.run(until=t_next)
        self.advance_ns = ShardProfiler.clock() - t0

    def collect_remote(self) -> dict[int, list]:
        """Take every local outbox (the list objects stay in place —
        tap closures hold them) and return the batches by source rank
        for the coordinator to route to the other hosts; nothing when
        this host owns every zone. Taking them here, before any host
        flushes, keeps flush-time publishes out of this barrier."""
        self._taken = {}
        for rank, outbox in self._outbox.items():
            if outbox:
                self._taken[rank] = outbox[:]
                outbox.clear()
        return {} if self._owns_all else self._taken

    def flush(self, epoch: int, t_barrier: float,
              remote_in: dict[int, list], record_barrier: bool) -> int:
        """Barrier injection for local destination zones: each reads
        every other zone's batch — taken locally at the advance or
        routed in ``remote_in`` — in global source rank order. Returns
        the messages injected."""
        latency = self.spec.link_latency_s or 0.0
        sources = {**self._taken, **remote_in}
        self._taken = {}
        order = sorted(sources)
        injected = 0
        for dest in self.zones:
            batches = [sources[rank] for rank in order if rank != dest.rank]
            injected += flush_zone_inbox(dest, batches, latency, epoch,
                                         t_barrier, record_barrier)
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
                _, t_next, patterns = msg
                if patterns:
                    host.install_taps(patterns)
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
