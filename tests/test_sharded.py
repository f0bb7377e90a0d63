"""Tests for zone-sharded simulation (:mod:`repro.runtime.shard`).

The headline property: the merged trace and every scorecard of a
sharded run are byte-identical to its single-shard twin, for random
zone counts, shard counts, fleet sizes and seeds — the zone (not the
shard) is the unit of determinism. Alongside it: the conservative
lookahead bound (epoch lookahead is never smaller than the minimum
cross-zone link latency), the relay's timing/no-echo semantics, the
:meth:`Infrastructure.partition` decomposition and the merged-trace
serialization contract.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import (
    DeviceFleet,
    ScaleConfig,
    build_reference_infrastructure,
    run_scale_scenario,
)
from repro.core.errors import ConfigurationError, NotFoundError
from repro.runtime import (
    ParallelShardedContext,
    RuntimeContext,
    ShardedContext,
)


def _fleet_run(seed: int, n_zones: int, n_shards: int,
               devices: int = 6, horizon: float = 30.0, agg_rank: int = 0):
    """A small cross-zone scenario: per-zone fleets, aggregation on the
    zone of rank *agg_rank*, one forced outage. Returns (digest,
    scorecards, aggregator stream)."""
    zones = [f"z{i}" for i in range(n_zones)]
    sharded = ShardedContext(seed=seed, zones=zones, n_shards=n_shards,
                             link_latency_s=0.5)
    stream = []
    agg_ctx = sharded.zone(zones[agg_rank])
    agg_ctx.subscribe(
        "shard.fleet.telemetry.*",
        lambda t, p: stream.append((agg_ctx.now, p["zone"], p["up"])))
    fleets = []
    for name in zones:
        fleet = DeviceFleet(name, devices, ctx=sharded.zone(name),
                            fail_rate_per_s=5e-3, repair_rate_per_s=5e-2)
        fleet.start(2.5)
        fleets.append(fleet)
    fleets[-1].schedule_outage(10.0, 5.0)
    sharded.run(until=horizon)
    return sharded.digest(), [f.scorecard() for f in fleets], stream


def _subscribe_barrier_on_c(ctx, name, args):
    """Zone builder: zone ``c`` subscribes to the barrier record, a
    topic published while the barrier injects."""
    if name == "c":
        ctx.subscribe("shard.epoch.barrier", lambda t, p: None)


class TestShardCountInvariance:
    @settings(max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_zones=st.integers(min_value=2, max_value=5),
           n_shards=st.integers(min_value=2, max_value=8),
           devices=st.integers(min_value=1, max_value=12),
           agg=st.integers(min_value=0, max_value=4))
    def test_sharded_equals_single_shard_twin(self, seed, n_zones,
                                              n_shards, devices, agg):
        """Random partitions/seeds/aggregator zones: identical digests,
        scorecards and aggregator-observed delivery streams at any
        shard count."""
        agg_rank = agg % n_zones
        sharded = _fleet_run(seed, n_zones, n_shards, devices,
                             agg_rank=agg_rank)
        single = _fleet_run(seed, n_zones, 1, devices, agg_rank=agg_rank)
        assert sharded[0] == single[0]
        assert sharded[1] == single[1]
        assert sharded[2] == single[2]

    @settings(max_examples=5)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           shards=st.integers(min_value=2, max_value=4))
    def test_scale_scenario_digest_and_scorecard(self, seed, shards):
        """The packaged scale scenario obeys the same twin contract."""
        config = ScaleConfig(devices=60, zones=4, shards=shards,
                             horizon_s=80.0, seed=seed, outage_at_s=30.0,
                             outage_duration_s=20.0,
                             barrier_record_every=20)
        sharded = run_scale_scenario(config)
        single = run_scale_scenario(config, n_shards=1)
        assert sharded.digest() == single.digest()
        assert sharded.scorecard() == single.scorecard()

    def test_zone_seed_depends_on_name_not_shard(self):
        """The RNG subtree hangs off the zone name: regrouping zones
        onto different shard counts leaves every zone's seed alone."""
        zones = ("za", "zb", "zc")
        many = ShardedContext(seed=11, zones=zones, n_shards=3,
                              link_latency_s=1.0)
        one = ShardedContext(seed=11, zones=zones, n_shards=1,
                             link_latency_s=1.0)
        for name in zones:
            assert many.zone(name).seed == one.zone(name).seed


class TestLookaheadBound:
    """Regression: epoch lookahead >= minimum cross-zone link latency,
    and the epoch is exactly the lookahead."""

    def test_for_partition_lookahead_covers_min_cross_latency(self):
        infra = build_reference_infrastructure(ctx=RuntimeContext(seed=7))
        part = infra.partition()
        assert part.min_cross_latency_s < float("inf")
        sharded = ShardedContext.for_partition(part, seed=7, n_shards=2)
        assert sharded.lookahead_s >= part.min_cross_latency_s
        for name in sharded.zones:
            assign = [rec.payload for rec in sharded.zone(name).trace
                      if rec.topic == "shard.partition.assign"]
            assert assign[0]["epoch_s"] == sharded.lookahead_s


class TestZonePartition:
    @staticmethod
    def _infra():
        return build_reference_infrastructure(ctx=RuntimeContext(seed=3))

    def test_default_partition_is_by_layer(self):
        infra = self._infra()
        part = infra.partition()
        assert set(part.assignment) == set(infra.devices)
        assert part.zones == tuple(sorted(set(part.assignment.values())))
        for name, device in infra.devices.items():
            assert part.assignment[name] == device.spec.layer.value

    def test_devices_in_inverts_assignment(self):
        part = self._infra().partition()
        for zone in part.zones:
            members = part.devices_in(zone)
            assert members
            assert all(part.assignment[d] == zone for d in members)

    def test_min_cross_latency_bounds_every_cross_link(self):
        infra = self._infra()
        part = infra.partition()
        assert part.cross_links
        by_key = {link.key(): link for link in infra.network.links}
        latencies = [by_key[key].effective_latency()
                     for key in part.cross_links]
        assert part.min_cross_latency_s == min(latencies)

    def test_callable_and_mapping_partitions_agree(self):
        infra = self._infra()
        by_call = infra.partition(
            by=lambda d: f"ring-{len(d.name) % 2}")
        mapping = {name: f"ring-{len(name) % 2}"
                   for name in infra.devices}
        by_map = infra.partition(by=mapping)
        assert by_call == by_map

    def test_single_zone_partition_cuts_no_links(self):
        infra = self._infra()
        part = infra.partition(by=lambda d: "everything")
        assert part.zones == ("everything",)
        assert part.cross_links == ()
        assert part.min_cross_latency_s == float("inf")


class TestEpochRelay:
    def test_cross_zone_delivery_at_send_plus_latency(self):
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5)
        ctx_a, ctx_b = sharded.zone("a"), sharded.zone("b")
        got = []
        ctx_b.subscribe("app.ping",
                        lambda t, p: got.append((ctx_b.now, p["n"])))

        def sender():
            yield ctx_a.sim.timeout(1.25)
            ctx_a.publish("app.ping", {"n": 1})
            yield ctx_a.sim.timeout(2.0)
            ctx_a.publish("app.ping", {"n": 2})

        ctx_a.sim.process(sender())
        sharded.run(until=10.0)
        assert got == [(1.75, 1), (3.75, 2)]

    def test_local_delivery_stays_synchronous(self):
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5)
        ctx_a = sharded.zone("a")
        got = []
        ctx_a.subscribe("app.ping",
                        lambda t, p: got.append(ctx_a.now))

        def sender():
            yield ctx_a.sim.timeout(1.25)
            ctx_a.publish("app.ping", {"n": 1})

        ctx_a.sim.process(sender())
        sharded.run(until=5.0)
        assert got == [1.25]

    def test_relay_is_single_hop_no_echo(self):
        """Three zones all subscribed to the same topic: one publish
        reaches each remote zone exactly once and is never re-forwarded
        by a destination (no echo storm)."""
        sharded = ShardedContext(seed=0, zones=("a", "b", "c"),
                                 n_shards=3, link_latency_s=0.5)
        got = {name: [] for name in ("a", "b", "c")}
        for name in ("a", "b", "c"):
            ctx = sharded.zone(name)
            ctx.subscribe("app.broadcast",
                          lambda t, p, _n=name: got[_n].append(p["n"]))

        ctx_a = sharded.zone("a")

        def sender():
            yield ctx_a.sim.timeout(1.0)
            ctx_a.publish("app.broadcast", {"n": 7})

        ctx_a.sim.process(sender())
        sharded.run(until=20.0)
        assert got == {"a": [7], "b": [7], "c": [7]}

    def test_multiple_matching_patterns_deliver_once_per_subscription(self):
        """A publish matching several tapped patterns crosses the relay
        once; the destination bus then fans it out normally."""
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5)
        ctx_a, ctx_b = sharded.zone("a"), sharded.zone("b")
        got = []
        ctx_b.subscribe("app.*", lambda t, p: got.append(("star", t)))
        ctx_b.subscribe("app.ping", lambda t, p: got.append(("exact", t)))

        def sender():
            yield ctx_a.sim.timeout(1.0)
            ctx_a.publish("app.ping", {"n": 1})

        ctx_a.sim.process(sender())
        sharded.run(until=5.0)
        assert sorted(got) == [("exact", "app.ping"), ("star", "app.ping")]
        relay_records = [rec for rec in ctx_b.trace
                         if rec.topic == "shard.relay.deliver"]
        assert len(relay_records) == 1
        assert relay_records[0].payload["count"] == 1

    def test_cross_zone_subs_without_latency_raise(self):
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2)
        sharded.zone("b").subscribe("app.ping", lambda t, p: None)
        with pytest.raises(ConfigurationError):
            sharded.run(until=1.0)

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_every_zone_relays_every_subscribed_pattern(self, n_shards):
        """Only rank 2 of 3 subscribes, yet from the first epoch on every
        zone holds a relayed copy of every other zone's matching
        publish: each zone relays the union of all zones' subscription
        patterns to every other zone."""
        zones = ("a", "b", "c")
        sharded = ShardedContext(seed=0, zones=zones, n_shards=n_shards,
                                 link_latency_s=1.0)
        for name in zones:
            ctx = sharded.zone(name)

            def ticker(ctx=ctx, name=name):
                while True:
                    yield ctx.sim.timeout(0.4)
                    ctx.publish("app.tick", {"zone": name, "t": ctx.now})

            ctx.sim.process(ticker())
        sharded.zone("c").subscribe("app.tick", lambda t, p: None)
        sharded.run(until=4.0)
        ticks = {name: [rec.payload for rec in sharded.zone(name).trace
                        if rec.topic == "app.tick"] for name in zones}
        sent = {name: [p["t"] for p in ticks[name] if p["zone"] == name]
                for name in zones}
        for dest in zones:
            for src in zones:
                if src == dest:
                    continue
                relayed = [p["t"] for p in ticks[dest] if p["zone"] == src]
                # Sends at 0.4 .. 2.8 s arrive by the 4 s horizon.
                assert relayed == sent[src][:7]

    def test_flush_time_publishes_relay_alike_at_any_shard_count(self):
        """Zone c subscribes to the barrier record, which every zone
        publishes while the barrier injects. Outboxes are taken before
        any injection, so those publishes cross at the next barrier on
        every shard count and backend: one digest for all six runs."""
        zones = ("a", "b", "c")
        kwargs = {"seed": 0, "zones": zones, "link_latency_s": 1.0,
                  "zone_builder": _subscribe_barrier_on_c}
        digests = set()
        for n_shards in (1, 2, 3):
            sharded = ShardedContext(n_shards=n_shards, **kwargs)
            sharded.run(until=6.0)
            digests.add(sharded.digest())
        relayed = [rec.payload for rec in sharded.zone("a").trace
                   if rec.topic == "shard.epoch.barrier"
                   and rec.payload["zone"] == "c"]
        assert relayed  # c's barrier records did cross to zone a
        for workers in (1, 2, 3):
            with ParallelShardedContext(workers=workers,
                                        **kwargs) as parallel:
                parallel.run(until=6.0)
                digests.add(parallel.digest())
        assert len(digests) == 1

    def test_subscription_added_mid_run_takes_effect_at_barrier(self):
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2,
                                 link_latency_s=1.0)
        ctx_a, ctx_b = sharded.zone("a"), sharded.zone("b")
        got = []

        def sender():
            while True:
                yield ctx_a.sim.timeout(1.0)
                ctx_a.publish("app.tick", {"t": ctx_a.now})

        ctx_a.sim.process(sender())
        sharded.run(until=3.0)
        assert got == []
        ctx_b.subscribe("app.tick", lambda t, p: got.append(p["t"]))
        sharded.run(until=6.0)
        assert got  # ticks published after the subscription barrier


class TestShardedContextShape:
    @pytest.mark.parametrize("backend", [ShardedContext,
                                         ParallelShardedContext],
                             ids=["sequential", "parallel"])
    def test_validation(self, backend):
        """One validation block serves both backends; a shard/worker
        count below one is rejected, never clamped."""
        for kwargs in ({"zones": ()}, {"zones": ("a", "a")},
                       {"zones": ("a",), "link_latency_s": 0.0},
                       {"zones": ("a",), "barrier_record_every": 0}):
            with pytest.raises(ConfigurationError):
                backend(**kwargs)
        for count in (0, -1):
            with pytest.raises(ConfigurationError):
                backend(0, ("a",), count)

    def test_run_horizon_validation(self):
        sharded = ShardedContext(zones=("a",))
        with pytest.raises(ConfigurationError):
            sharded.run(until=float("inf"))
        sharded.run(until=5.0)
        with pytest.raises(ConfigurationError):
            sharded.run(until=1.0)

    def test_shard_assignment_is_contiguous_and_clamped(self):
        sharded = ShardedContext(zones=("a", "b", "c"), n_shards=99,
                                 link_latency_s=1.0)
        assert sharded.n_shards == 3
        ranks = [sharded.shard_of(name) for name in ("a", "b", "c")]
        assert ranks == sorted(ranks)
        assert sharded.zones == ["a", "b", "c"]

    def test_unknown_zone_raises(self):
        sharded = ShardedContext(zones=("a",))
        with pytest.raises(NotFoundError):
            sharded.zone("nope")

    def test_shard_of_unknown_zone_raises_not_found(self):
        """shard_of rejects an unknown zone the way zone() does."""
        sharded = ShardedContext(zones=("a", "b"), n_shards=2)
        assert sharded.shard_of("b") == 1
        with pytest.raises(NotFoundError, match="nope"):
            sharded.shard_of("nope")

    def test_epoch_grid_is_anchored_at_start(self):
        sharded = ShardedContext(zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5)
        sharded.run(until=2.0)
        assert sharded.epoch == 4
        assert sharded.now == 2.0


class TestMergedTrace:
    @staticmethod
    def _run():
        sharded = ShardedContext(seed=5, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5)
        for name in ("a", "b"):
            fleet = DeviceFleet(name, 3, ctx=sharded.zone(name),
                                fail_rate_per_s=5e-3)
            fleet.start(1.0)
        sharded.run(until=10.0)
        return sharded

    def test_jsonl_global_seq_and_time_order(self):
        sharded = self._run()
        lines = sharded.to_jsonl().split("\n")
        objs = [json.loads(line) for line in lines]
        assert [o["seq"] for o in objs] == list(range(len(objs)))
        times = [o["time_s"] for o in objs]
        assert times == sorted(times)
        assert {o["zone"] for o in objs} == {"a", "b"}

    def test_digest_is_sha256_of_jsonl(self):
        sharded = self._run()
        expected = hashlib.sha256(sharded.to_jsonl().encode()).hexdigest()
        assert sharded.digest() == expected

    def test_export_jsonl_roundtrip(self, tmp_path):
        sharded = self._run()
        path = tmp_path / "trace.jsonl"
        written = sharded.export_jsonl(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert written == len(text.splitlines())
        assert text.rstrip("\n") == sharded.to_jsonl()

    def test_partition_assign_records_present(self):
        sharded = ShardedContext(seed=1, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.25)
        records = [rec for name in ("a", "b")
                   for rec in sharded.zone(name).trace
                   if rec.topic == "shard.partition.assign"]
        assert len(records) == 2
        assert {rec.payload["zone"] for rec in records} == {"a", "b"}
        for rec in records:
            assert rec.payload["lookahead_s"] == 0.25
