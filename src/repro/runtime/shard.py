"""Zone-sharded simulation: one coordinator, conservative epoch barriers.

City-scale scenarios (10k+ devices) cannot run through one monolithic
:class:`~repro.continuum.simulator.Simulator` heap and one global bus.
A :class:`ShardedContext` partitions the continuum *by zone*: every zone
gets its own logical runtime view (a :class:`~repro.runtime.context.
RuntimeContext` with its own RNG seed subtree, trace recorder and traced
bus), and zones are grouped onto shard hosts
(:class:`~repro.runtime.shard_worker.ShardWorkerHost`) — one
``Simulator`` heap per shard. Shards advance independently inside an
epoch and synchronize at conservative barriers.

The coordinator is the only epoch loop. It drives the hosts through a
small transport with advance / flush / sync / finalize / close steps
(plus ``install`` for relay-tap directives): the in-process transport
here calls the hosts directly and reads zone rings and registries live;
the pipe transport of :mod:`repro.runtime.parallel` runs each host in a
worker process. The relayed-pattern set, routing, the merged trace, its
digest and the metrics fold all live on the coordinator, once.

Determinism argument (the invariant everything here serves): the *zone*,
not the shard, is the unit of determinism. A zone's seed subtree is
derived from the root seed and the zone *name* (never the shard id), its
trace records carry zone-local sequence numbers, and zones interact only
through the epoch relay, whose buffering and delivery order is a pure
function of (epoch, source zone rank, send order). Regrouping zones onto
a different shard count — or into worker processes — therefore cannot
change any zone's record stream, and the merged trace — sorted by
``(time_s, zone rank, zone seq)`` — is byte-identical between a
single-shard, an N-shard and a multiprocess run of the same scenario
and seed. ``tests/test_sharded.py`` and ``tests/test_parallel_shard.py``
pin this with hypothesis properties over random partitions and seeds.

Relay rule: every zone relays the union of all zones' subscription
patterns to every other zone. Each zone has one relay tap and one
outbox; the coordinator keeps the relayed-pattern set and, when a
barrier reports new patterns, has every zone subscribe its tap to them.

Epoch-barrier protocol: an epoch is exactly the *lookahead*, the minimum
cross-zone link latency, on a grid anchored at time 0. Any message
published in epoch k (send time t) physically arrives no earlier than
``t + lookahead >= barrier(k)``, so shards can drain epoch k without
seeing each other's traffic. At the barrier every host first takes all
its zones' outboxes, then injects: each destination zone reads every
other zone's batch in source rank order, messages in send order, as DES
events at their true arrival time ``t + link_latency``. Publishes made
while injecting (barrier records and their handlers) land in the fresh
outboxes and cross at the next barrier, on every shard count alike.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import ConfigurationError, NotFoundError
from repro.obs.metrics import METRICS_TOPIC, MetricsRegistry
from repro.obs.profiler import SHARD_PROFILE_TOPIC, ShardProfiler
from repro.obs.spans import SPAN_TOPIC, SpanContext, _RelayScope
from repro.runtime.context import RuntimeContext
from repro.runtime.trace import TraceRecord

_INF = float("inf")

#: Topics the epoch machinery itself publishes (declared as contracts in
#: :mod:`repro.analysis.flow.topics`).
PARTITION_TOPIC = "shard.partition.assign"
BARRIER_TOPIC = "shard.epoch.barrier"
RELAY_TOPIC = "shard.relay.deliver"

#: Metric names excluded from cross-zone aggregation: they read
#: execution-detail state (the *shared* shard heap, the live ring
#: occupancy of a trace that workers drain per epoch), so their values
#: depend on the shard/worker count even though every zone-deterministic
#: fact does not. ``aggregate_metrics`` re-derives the one that has a
#: backend-invariant meaning (total events executed) from coordinator
#: state instead.
SHARD_SCOPED_METRICS = frozenset({
    "continuum.sim.events_executed",
    "runtime.trace.records",
    "runtime.trace.dropped",
})

#: Buckets for the ``runtime.shard.epoch.*`` wall-time histograms:
#: microseconds (trivial shards) up to seconds (100k-device heaps).
EPOCH_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class ZoneRuntime:
    """One zone's logical runtime view inside a :class:`ShardedContext`.

    Owns the zone's :class:`RuntimeContext` (seed subtree, trace, bus —
    the ``Simulator`` underneath is the *shard's* heap, shared with the
    other zones grouped on that shard). Scenario code builds a zone's
    devices, fleets and subscriptions against :attr:`ctx` exactly as it
    would against a standalone context.
    """

    __slots__ = ("name", "rank", "shard", "ctx", "suppress_seq",
                 "relay_scope")

    def __init__(self, name: str, rank: int, shard: int,
                 ctx: RuntimeContext):
        self.name = name
        self.rank = rank
        self.shard = shard
        self.ctx = ctx
        #: Bus publish id of an in-flight relay delivery on this zone;
        #: relay taps skip that publish so a message is relayed once,
        #: from its origin zone, never re-forwarded by a destination.
        self.suppress_seq = -1
        #: Reusable ambient-stack entry for :func:`relay_deliver`.
        #: Deliveries on one zone never nest (they are DES callbacks,
        #: and further relays cross a barrier first) and nothing
        #: retains the scope between deliveries — only its envelope
        #: dict, which IS rebuilt per delivery — so one object serves
        #: every delivery without a per-message allocation.
        self.relay_scope = _RelayScope({})


# -- relay primitives ---------------------------------------------------
#
# Every shard host runs these exact functions, in this process or in a
# worker process. Byte-identity across transports rests on there being
# ONE implementation of tap buffering, relay delivery and barrier
# injection — do not fork copies.

def make_relay_tap(src: ZoneRuntime, outbox: list, mark: list):
    """Tap closure buffering *src*'s relayed publishes in its one
    outbox. ``mark`` holds the last relayed publish id so a publish
    matching several relayed patterns is buffered once.

    Alongside ``(send_s, topic, payload)`` the tap captures the open
    span context: bus delivery is synchronous, so the publisher's span
    is still ambient when the tap fires. It is shipped as a plain
    ``(trace_id, span_id)`` tuple (picklable — the pipe transport
    routes buffers through worker pipes) and resumed in the destination
    zone by :func:`relay_deliver`, which is how one fault's causal tree
    crosses zones and worker processes."""
    bus = src.ctx.bus
    sim = src.ctx.sim
    stack = src.ctx.tracer._stack
    # One ambient span usually covers a burst of publishes (a fault and
    # its fallout), so the shipped tuple is cached per context object.
    # The cache holds a strong reference, so the id can't be recycled
    # under the identity check.
    last = [None, None]

    def tap(topic: str, payload: Any) -> None:
        # The bus publish id is unique per publish on this zone and —
        # unlike the trace sequence — stable for the whole delivery
        # even when an earlier handler records spans or publishes
        # nested messages, so it both dedupes a publish matching
        # several tapped patterns and identifies the relay's own
        # delivery publish (suppress_seq) to stop re-forwarding.
        pub = bus.current_pub
        if mark[0] == pub or src.suppress_seq == pub:
            return
        mark[0] = pub
        if stack:
            context = stack[-1].context
            if context is last[0]:
                shipped = last[1]
            else:
                shipped = (context.trace_id, context.span_id)
                last[0] = context
                last[1] = shipped
        else:
            shipped = None
        outbox.append((sim.now, topic, payload, shipped))
    return tap


#: Prebuilt shape of the ``obs.span`` payload the relay fast path
#: records — copied and filled per delivery so the constant keys cost
#: one ``dict.copy`` instead of a literal rebuild.
_RELAY_SPAN_TEMPLATE = {
    "name": "shard.relay.deliver", "layer": "runtime",
    "trace_id": "", "span_id": "", "parent_id": None,
    "start_s": 0.0, "end_s": 0.0, "status": "ok", "attrs": None,
}


def relay_deliver(dest: ZoneRuntime, topic: str, payload: Any,
                  span: tuple | None = None) -> None:
    """Publish a relayed message on *dest*'s bus without re-forwarding.

    When the buffered publish carried a span context, the delivery
    resumes it and opens a ``shard.relay.deliver`` child span around the
    publish — its id minted from the *destination* zone's ``obs.tracer``
    stream, so the span tree is a pure function of zone streams and
    stays byte-identical for any shard/worker count. Handlers react
    inside the relay span, nesting their own spans (and any further
    relayed publishes) under the original cause.
    """
    bus = dest.ctx.bus
    tracer = dest.ctx.tracer
    if span is None or not tracer.enabled:
        dest.suppress_seq = bus.pub_seq + 1
        bus.publish(topic, payload)
        dest.suppress_seq = -1
        return
    # Hand-inlined equivalent of
    #     with tracer.resume(SpanContext(span[0], span[1])):
    #         with tracer.start_span("shard.relay.deliver",
    #                                layer="runtime", topic=topic,
    #                                zone=dest.name):
    #             <suppressed publish>
    # — same RNG draw, same stack visibility, byte-identical obs.span
    # record (pinned by a test). This runs once per relayed message;
    # the generic context managers would cost more than the relay, and
    # the perf gate holds span propagation at <= 1.3x the bare relay.
    trace_id, parent_id = span
    # Same RNG stream and rendering as Tracer._new_id, minus the call;
    # same clock as Tracer._clock (the context wires the tracer to
    # ``sim.now``), minus the lambda hop.
    span_id = "%016x" % tracer._id_rng.getrandbits(64)
    now = dest.ctx.sim.now
    stack = tracer._stack
    scope = dest.relay_scope
    scope.envelope = {"trace_id": trace_id, "span_id": span_id,
                      "parent_id": parent_id}
    stack.append(scope)
    status = "ok"
    try:
        dest.suppress_seq = bus.pub_seq + 1
        bus.publish(topic, payload)
        dest.suppress_seq = -1
    except BaseException:
        status = "error"
        raise
    finally:
        stack.pop()
        tracer.spans_recorded += 1
        rec = _RELAY_SPAN_TEMPLATE.copy()
        rec["trace_id"] = trace_id
        rec["span_id"] = span_id
        rec["parent_id"] = parent_id
        rec["start_s"] = now
        rec["end_s"] = now
        rec["status"] = status
        rec["attrs"] = {"topic": topic, "zone": dest.name}
        # TraceRecorder.record_raw, inlined (the payload is already
        # JSON-primitive and `now` already a float).
        trace = tracer._trace
        trace._records.append(TraceRecord(trace._seq, now, SPAN_TOPIC,
                                          rec))
        trace._seq += 1


def flush_zone_inbox(dest: ZoneRuntime, batches: Iterable[list],
                     latency: float, epoch: int, t_barrier: float,
                     record_barrier: bool) -> int:
    """Barrier injection for one destination zone: schedule every
    buffered message (one batch per other source zone, in source-rank
    order, messages in send order) as a DES event at its true arrival
    time, then publish the relay/barrier bookkeeping records. Returns
    messages injected."""
    sim = dest.ctx.sim
    count = 0
    spans = 0
    for batch in batches:
        for send_s, topic, payload, span in batch:
            # Mathematically send + latency >= barrier; clamp the
            # one-ulp float shortfall when the sum rounds below
            # the epoch-grid boundary (same clamp on every shard
            # count — the grid is computed identically).
            delay = send_s + latency - sim.now
            arrival = sim.timeout(delay if delay > 0.0 else 0.0)
            arrival.add_callback(
                lambda _ev, _z=dest, _t=topic, _p=payload, _s=span:
                relay_deliver(_z, _t, _p, _s))
            count += 1
            if span is not None:
                spans += 1
    if count:
        dest.ctx.publish(RELAY_TOPIC, {
            "epoch": epoch, "zone": dest.name, "count": count,
            "spans": spans, "time_s": t_barrier})
    if record_barrier:
        dest.ctx.publish(BARRIER_TOPIC, {
            "epoch": epoch, "zone": dest.name, "time_s": t_barrier})
    return count


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard host needs to build its block of zones.

    ``builder``/``finalizer`` must be module-level callables when the
    host runs in a worker process (picklable under the ``spawn`` start
    method). ``zones`` lists *all* zone names in rank order;
    ``local_ranks`` selects the contiguous block this host owns.
    """

    worker_id: int
    seed: int
    zones: tuple[str, ...]
    local_ranks: tuple[int, ...]
    trace_capacity: int
    link_latency_s: float | None
    builder: Callable[[RuntimeContext, str, Any], Any] | None
    builder_args: Any
    finalizer: Callable[[Any, str, Any], Any] | None


class _InProcessTransport:
    """Drives every shard host by direct calls in this process.

    Zone rings and metric registries are read live — nothing is drained
    or copied — so scenario code may also build and poke zones through
    :meth:`ShardedContext.zone`.
    """

    backend = "sequential"

    def __init__(self, specs: list[WorkerSpec]):
        # shard_worker builds on the relay primitives of this module.
        from repro.runtime.shard_worker import ShardWorkerHost
        self.hosts = [ShardWorkerHost(spec) for spec in specs]
        self.zone_runtimes = [zone for host in self.hosts
                              for zone in host.zones]
        self.rings = [zone.ctx.trace for zone in self.zone_runtimes]
        self.closed = False

    def install(self, patterns: list[str]) -> None:
        for host in self.hosts:
            host.install_taps(patterns)

    def advance(self, t_next: float) -> tuple[dict, list[int]]:
        remote: dict[int, list] = {}
        for host in self.hosts:
            host.advance(t_next)
            remote.update(host.collect_remote())
        return remote, [host.advance_ns for host in self.hosts]

    def flush(self, epoch: int, t_barrier: float, remote_for: list[dict],
              record_barrier: bool) -> tuple[dict, list[int]]:
        relay = [host.flush(epoch, t_barrier, remote_in, record_barrier)
                 for host, remote_in in zip(self.hosts, remote_for)]
        return self.sync(), relay

    def sync(self) -> dict[int, list[str]]:
        reports: dict[int, list[str]] = {}
        for host in self.hosts:
            reports.update(host.pattern_report())
        return reports

    def finalize(self) -> dict[str, Any]:
        results: dict[str, Any] = {}
        for host in self.hosts:
            results.update(host.finalize())
        return results

    def close(self) -> None:
        self.closed = True

    def trace_version(self) -> tuple:
        return tuple((ring.total_recorded, len(ring)) for ring in self.rings)

    def zone_metrics(self) -> list[dict]:
        return [zone.ctx.metrics.to_payload() for zone in self.zone_runtimes]

    def events_executed(self) -> int:
        return sum(host.sim.processed_events for host in self.hosts)


class ShardedContext:
    """Coordinates zone shards under conservative epoch barriers.

    ``zones`` fixes the zone names and their ranks (list order); zones
    are grouped onto ``n_shards`` shard hosts — one ``Simulator`` heap
    each — in contiguous rank blocks. ``link_latency_s`` is the minimum
    cross-zone link latency — the lookahead, which is also the epoch
    length.

    Zones are built by scenario code through :meth:`zone` after
    construction, or by a module-level ``zone_builder(ctx, zone_name,
    zone_args)`` called once per zone in rank order; the results of
    ``zone_finalizer(state, zone_name, zone_args)`` are collected by
    :meth:`finalize`. The builder path is the one that also works when
    the hosts live in worker processes
    (:class:`~repro.runtime.parallel.ParallelShardedContext`).

    The sharding is *invisible* to the scenario: the epoch grid, the
    relay order and every zone's record stream depend only on the zone
    list, the seed and the latency configuration — see the module
    docstring for the determinism argument.
    """

    #: How the shard hosts are driven: by direct calls in this process.
    _transport_type: Callable[[list[WorkerSpec]], Any] = _InProcessTransport

    def __init__(self, seed: int = 0, zones: Sequence[str] = ("zone-00",),
                 n_shards: int = 1, *, link_latency_s: float | None = None,
                 trace_capacity: int = 65536,
                 barrier_record_every: int = 1,
                 zone_builder: Callable | None = None,
                 zone_args: Any = None,
                 zone_finalizer: Callable | None = None,
                 profile: bool = False):
        names = list(zones)
        if not names:
            raise ConfigurationError("at least one zone is required")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate zone names in {names}")
        if n_shards < 1:
            raise ConfigurationError("shard count must be >= 1")
        if link_latency_s is not None and link_latency_s <= 0:
            raise ConfigurationError("cross-zone link latency must be > 0")
        if barrier_record_every < 1:
            raise ConfigurationError("barrier_record_every must be >= 1")
        self.seed = int(seed)
        self.n_shards = min(int(n_shards), len(names))
        self.link_latency_s = link_latency_s
        #: Conservative lookahead: how far a shard may run ahead without
        #: missing cross-zone traffic — the minimum cross-zone link
        #: latency, and the epoch length.
        self.lookahead_s = link_latency_s if link_latency_s is not None \
            else _INF
        self._now = 0.0
        self._epoch = 0
        self._barrier_record_every = barrier_record_every
        self._names = names
        self._ranks = {name: rank for rank, name in enumerate(names)}
        n = len(names)
        self._shard_of = [rank * self.n_shards // n for rank in range(n)]
        #: Patterns every zone's relay tap is subscribed to: the union of
        #: every zone's subscriptions reported so far.
        self._relayed: set[str] = set()
        self._final: dict[str, Any] | None = None

        # Merged-trace memoization: --check twin comparisons call
        # digest()/scorecard() repeatedly; re-sorting an unchanged trace
        # is pure waste. The transport's trace version changes whenever
        # a record lands in (or is evicted from) any zone ring.
        self._merge_version: Any = None
        self._merged: list[tuple[str, TraceRecord]] = []
        self._jsonl: str | None = None
        self._digest: str | None = None

        #: Coordinator-side observability (runtime.shard.*): epoch
        #: progress and relay traffic. Lives on the coordinator, not any
        #: zone context, so reading it never perturbs a zone's trace.
        self.metrics = MetricsRegistry()
        self.metrics.gauge_callback(
            "runtime.shard.epochs", lambda: float(self._epoch),
            "completed epoch barriers")
        self._relay_messages = self.metrics.counter(
            "runtime.shard.relay.messages",
            "cross-zone messages injected at barriers", label_key="shard")
        self._relay_routed = self.metrics.counter(
            "runtime.shard.relay.routed",
            "cross-shard messages routed through the coordinator")

        specs = [WorkerSpec(
            worker_id=shard, seed=self.seed, zones=tuple(names),
            local_ranks=tuple(rank for rank in range(n)
                              if self._shard_of[rank] == shard),
            trace_capacity=trace_capacity, link_latency_s=link_latency_s,
            builder=zone_builder, builder_args=zone_args,
            finalizer=zone_finalizer)
            for shard in range(self.n_shards)]
        self._transport = self._transport_type(specs)

        #: Opt-in barrier/straggler profiling. Wall times live on the
        #: coordinator (profiler + runtime.shard.epoch.* histograms),
        #: never in a zone trace — profiling cannot move the digest.
        self.profiler = ShardProfiler(
            self.n_shards, self._transport.backend) if profile else None
        if self.profiler is not None:
            self._h_advance = self.metrics.histogram(
                "runtime.shard.epoch.advance_seconds",
                "per-shard wall time advancing to each epoch barrier",
                buckets=EPOCH_BUCKETS)
            self._h_wait = self.metrics.histogram(
                "runtime.shard.epoch.wait_seconds",
                "per-shard idle wall time at each epoch barrier",
                buckets=EPOCH_BUCKETS)

    @classmethod
    def for_partition(cls, partition: Any, *, seed: int = 0,
                      n_shards: int = 1, **kwargs: Any) -> "ShardedContext":
        """Build from a :meth:`~repro.continuum.infrastructure.
        Infrastructure.partition` result: zone ranks follow the
        partition's zone order and the lookahead is its minimum
        cross-zone link latency."""
        latency = partition.min_cross_latency_s
        if latency == _INF:
            latency = None
        return cls(seed, partition.zones, n_shards, link_latency_s=latency,
                   **kwargs)

    # -- zone access -------------------------------------------------------

    @property
    def zones(self) -> list[str]:
        """Zone names in rank order."""
        return list(self._names)

    @property
    def zone_runtimes(self) -> list[ZoneRuntime]:
        return list(self._transport.zone_runtimes)

    def _rank(self, name: str) -> int:
        try:
            return self._ranks[name]
        except KeyError:
            raise NotFoundError(f"unknown zone {name!r}") from None

    def zone(self, name: str) -> RuntimeContext:
        """The :class:`RuntimeContext` scenario code builds zone *name* on."""
        rank = self._rank(name)
        return self._transport.zone_runtimes[rank].ctx

    def shard_of(self, name: str) -> int:
        """Shard host index a zone is grouped on (execution detail —
        never observable in the merged trace)."""
        return self._shard_of[self._rank(name)]

    @property
    def now(self) -> float:
        """Barrier-synchronized simulated time."""
        return self._now

    @property
    def epoch(self) -> int:
        """Completed epoch count."""
        return self._epoch

    # -- execution ---------------------------------------------------------

    def _refresh_taps(self, reports: dict[int, list[str]]) -> None:
        """Add newly reported subscription patterns to the relayed set
        and subscribe every zone's relay tap to them. Patterns added
        during an epoch take effect at the barrier — identically for
        every shard count and transport. A single zone relays nothing.
        """
        if len(self._names) < 2:
            return
        new = sorted({pattern for patterns in reports.values()
                      for pattern in patterns} - self._relayed)
        if not new:
            return
        if self.lookahead_s == _INF:
            self.close()
            raise ConfigurationError(
                "zones subscribe to each other's topics but no "
                "cross-zone link latency is configured; pass "
                "link_latency_s= so the epoch barrier has a lookahead")
        self._relayed.update(new)
        # Sorted: bus dispatch order is subscription order.
        self._transport.install(new)

    def run(self, until: float) -> None:
        """Advance every shard to *until* through the epoch-barrier loop.

        ``until`` must be finite: an unbounded drain has no barrier
        schedule. The epoch grid is anchored at 0 —
        ``barrier(k) = (k+1) * lookahead_s`` — so it is identical for
        every shard count and for any sequence of ``run()`` calls ending
        at the same horizon. Each epoch: advance every shard to the
        barrier, route every zone's outbox batch to the other shards,
        flush (inject) every zone's inbox, then refresh the relay taps
        from the subscriptions reported after the flush.
        """
        kind = type(self).__name__
        transport = self._transport
        if transport.closed:
            raise ConfigurationError(f"{kind} is closed")
        deadline = float(until)
        if deadline == _INF:
            raise ConfigurationError(f"{kind}.run() needs a finite horizon")
        if deadline < self._now:
            raise ConfigurationError("run(until=...) lies in the past")
        self._refresh_taps(transport.sync())
        profiler = self.profiler
        while self._now < deadline:
            if self.lookahead_s == _INF:
                boundary = deadline
            else:
                boundary = (self._epoch + 1) * self.lookahead_s
            t_next = min(boundary, deadline)
            remote_out, advance_ns = transport.advance(t_next)
            remote_for: list[dict] = [{} for _ in range(self.n_shards)]
            routed = 0
            for src, batch in remote_out.items():
                for shard, remote_in in enumerate(remote_for):
                    if shard != self._shard_of[src]:
                        remote_in[src] = batch
                        routed += len(batch)
            if routed:
                self._relay_routed.inc(routed)
            reports, relay = transport.flush(
                self._epoch, t_next, remote_for,
                self._epoch % self._barrier_record_every == 0)
            for shard, count in enumerate(relay):
                if count:
                    self._relay_messages.inc(count, label=f"shard-{shard}")
            if profiler is not None:
                profiler.record_epoch(self._epoch, t_next, advance_ns,
                                      relay)
                row = profiler.epochs[-1]
                for adv, wait in zip(row["advance_ns"], row["wait_ns"]):
                    self._h_advance.observe(adv / 1e9)
                    self._h_wait.observe(wait / 1e9)
            self._now = t_next
            if boundary <= deadline:
                self._epoch += 1
            self._refresh_taps(reports)
        # Pull what the last flush produced (worker processes stream
        # records and metrics back) so the merged views are complete.
        self._refresh_taps(transport.sync())

    def finalize(self) -> dict[str, Any]:
        """Collect every zone finalizer's result, keyed by zone name.
        Idempotent; call it before :meth:`close`."""
        if self._final is None:
            if self._transport.closed:
                raise ConfigurationError(
                    f"{type(self).__name__} is closed; finalize() before "
                    "close()")
            self._final = self._transport.finalize()
        return self._final

    def close(self) -> None:
        """Release the shard hosts (worker processes are reaped); the
        merged trace, digest and finalize() results stay readable."""
        self._transport.close()

    def __enter__(self) -> "ShardedContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- merged trace ------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Total DES events executed across every shard heap."""
        return self._transport.events_executed()

    def merged_records(self) -> list[tuple[str, TraceRecord]]:
        """Every zone's retained records as one globally ordered stream.

        Sorted by ``(time_s, zone_rank, zone_seq)`` — a total order that
        is a pure function of the per-zone record streams, hence
        invariant to shard count and transport. Memoized until the next
        record lands; treat the returned list as read-only.
        """
        version = self._transport.trace_version()
        if version != self._merge_version:
            keyed = [(rec.time_s, rank, rec.seq, rec)
                     for rank, ring in enumerate(self._transport.rings)
                     for rec in ring]
            keyed.sort(key=lambda item: (item[0], item[1], item[2]))
            names = self._names
            self._merged = [(names[rank], rec) for _, rank, _, rec in keyed]
            self._jsonl = None
            self._digest = None
            self._merge_version = version
        return self._merged

    def to_jsonl(self) -> str:
        """The merged trace as deterministic JSONL (global seq, zone tag)."""
        merged = self.merged_records()
        if self._jsonl is None:
            lines = []
            for seq, (name, rec) in enumerate(merged):
                obj = {"seq": seq, "zone": name, "time_s": rec.time_s,
                       "topic": rec.topic, "payload": rec.payload}
                if rec.span is not None:
                    obj["span"] = rec.span
                lines.append(json.dumps(obj, sort_keys=True,
                                        separators=(",", ":")))
            self._jsonl = "\n".join(lines)
        return self._jsonl

    def export_jsonl(self, path: str | Path, *,
                     observability: bool = False) -> int:
        """Write the merged trace to *path*; returns records written.

        ``observability=True`` appends the aggregated metrics snapshot
        (and the profiler payload when profiling) as trailing rows that
        continue the global seq, so one file feeds every ``repro-obs``
        subcommand. The digest stays over the pure event trace either
        way (profile rows carry nondeterministic wall times)."""
        text = self.to_jsonl()
        if observability:
            lines = [text] if text else []
            seq = len(self.merged_records())
            snapshot = self.snapshot_observability()
            rows = [(METRICS_TOPIC, snapshot["metrics"])]
            if "profile" in snapshot:
                rows.append((SHARD_PROFILE_TOPIC, snapshot["profile"]))
            for seq, (topic, payload) in enumerate(rows, start=seq):
                lines.append(json.dumps(
                    {"seq": seq, "time_s": self._now, "topic": topic,
                     "payload": payload}, sort_keys=True,
                    separators=(",", ":")))
            text = "\n".join(lines)
        Path(path).write_text(text + ("\n" if text else ""))
        return text.count("\n") + 1 if text else 0

    def digest(self) -> str:
        """SHA-256 over the merged trace bytes — the replay fingerprint
        the scale example and CI pin."""
        text = self.to_jsonl()
        if self._digest is None:
            self._digest = hashlib.sha256(text.encode()).hexdigest()
        return self._digest

    # -- aggregated observability ------------------------------------------

    def aggregate_metrics(self) -> MetricsRegistry:
        """Fold every zone's registry into one global registry.

        Merge order is fixed by zone rank, shard-execution-detail
        metrics are excluded (:data:`SHARD_SCOPED_METRICS`) and the
        backend-invariant event total is re-derived from the
        coordinator — so ``to_payload()`` / ``render_exposition`` are
        byte-identical across shard counts and transports. Pinned by
        ``tests/test_obs_sharded.py``."""
        registry = MetricsRegistry()
        for payload in self._transport.zone_metrics():
            registry.merge_payload(payload, exclude=SHARD_SCOPED_METRICS)
        registry.gauge(
            "continuum.sim.events_executed",
            "DES events executed across every shard heap"
        ).set(self.events_executed)
        return registry

    def snapshot_observability(self) -> dict[str, Any]:
        """Aggregated metrics payload plus the shard profile (if
        profiling) — the dict :meth:`export_jsonl` appends and the
        ``repro-obs metrics``/``shards`` subcommands render."""
        snapshot: dict[str, Any] = {
            "metrics": self.aggregate_metrics().to_payload()}
        if self.profiler is not None:
            snapshot["profile"] = self.profiler.to_payload()
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}(seed={self.seed}, "
                f"zones={len(self._names)}, shards={self.n_shards}, "
                f"now={self._now}, epoch={self._epoch})")
