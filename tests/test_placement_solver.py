"""Tests for the anytime placement-solver API.

Covers the request/result contract (budgets, warm starts, stats,
deterministic serialization), the exact branch-and-bound backend
(optimality proofs against brute force, anytime behavior under node
budgets), the deadline-raced portfolio (never worse than any single
lane at equal budget, provenance, early optimality stop), the
latency-SLO feasibility fix in the one-shot heuristics, and the
anytime contract every strategy shares (incumbent callbacks and stats,
swarm budgets as prefixes of the unbudgeted run).
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, OrchestrationError
from repro.continuum import (
    Simulator,
    Task,
    TaskRequirements,
    build_reference_infrastructure,
)
from repro.continuum.workload import Application
from repro.mirto.exact import ExactPlacement
from repro.mirto.placement import (
    AcoPlacement,
    FireflyPlacement,
    GreedyPlacement,
    Placement,
    PlacementConstraints,
    PlacementRequest,
    PsoPlacement,
    RandomPlacement,
    RoundRobinPlacement,
    SolveBudget,
    eligible_devices,
    make_strategy,
    placement_cost,
)
from repro.mirto.portfolio import PortfolioPlacement


def infra():
    return build_reference_infrastructure(Simulator())


def pipeline_app(n_tasks=4, latency_budget_s=10.0):
    app = Application("solver-pipe")
    reqs = TaskRequirements(latency_budget_s=latency_budget_s)
    for i in range(n_tasks):
        app.add_task(Task(f"t{i}", 200.0 + 130.0 * i,
                          input_bytes=50_000, output_bytes=20_000,
                          requirements=reqs))
    for i in range(n_tasks - 1):
        app.connect(f"t{i}", f"t{i + 1}", 30_000)
    return app


def request_for(app, infrastructure, **kwargs):
    return PlacementRequest(
        application=app, infrastructure=infrastructure,
        constraints=PlacementConstraints(source_device="mc-00-0"),
        **kwargs)


class TestSolveBudget:
    def test_defaults_are_unlimited(self):
        budget = SolveBudget()
        assert budget.unlimited
        assert budget.node_limit() is None

    def test_deadline_converts_to_nodes(self):
        budget = SolveBudget(deadline_s=0.050, node_cost_s=25e-6)
        assert budget.node_limit() == 2000

    def test_node_cap_and_deadline_take_min(self):
        budget = SolveBudget(max_nodes=100, deadline_s=1.0)
        assert budget.node_limit() == 100

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            SolveBudget(max_nodes=0)
        with pytest.raises(ConfigurationError):
            SolveBudget(deadline_s=-1.0)
        with pytest.raises(ConfigurationError):
            SolveBudget(node_cost_s=0.0)


class TestExactBackend:
    def test_matches_brute_force_minimum(self):
        infrastructure = infra()
        app = pipeline_app(3)
        constraints = PlacementConstraints(source_device="mc-00-0")
        result = ExactPlacement().solve(
            request_for(app, infrastructure))
        assert result.optimal
        options = [eligible_devices(t, infrastructure, constraints)
                   for t in app.tasks]
        brute = min(
            placement_cost(app, infrastructure,
                           {t.name: d.name for t, d in
                            zip(app.tasks, combo)},
                           source_device="mc-00-0")
            for combo in itertools.product(*options))
        assert result.cost == pytest.approx(brute, abs=1e-12)
        assert result.lower_bound <= result.cost + 1e-12

    def test_not_worse_than_any_metaheuristic(self):
        infrastructure = infra()
        app = pipeline_app(5)
        exact = ExactPlacement().solve(request_for(app, infrastructure))
        assert exact.optimal
        for cls in (PsoPlacement, AcoPlacement, FireflyPlacement):
            meta = cls(random.Random(5), iterations=10).solve(
                request_for(app, infrastructure))
            assert exact.cost <= meta.cost + 1e-12

    def test_budget_exhaustion_still_yields_incumbent(self):
        infrastructure = infra()
        app = pipeline_app(6)
        result = ExactPlacement().solve(request_for(
            app, infrastructure, budget=SolveBudget(max_nodes=1)))
        # The first depth-first dive always completes, so even a
        # one-node budget produces a feasible placement.
        assert set(result.placement.assignment) == \
            {t.name for t in app.tasks}
        assert result.stats[0].incumbents >= 1
        unbounded = ExactPlacement().solve(
            request_for(app, infrastructure))
        assert unbounded.cost <= result.cost + 1e-12

    def test_warm_start_never_hurts(self):
        infrastructure = infra()
        app = pipeline_app(4)
        cold = ExactPlacement().solve(request_for(app, infrastructure))
        warm = ExactPlacement().solve(request_for(
            app, infrastructure, warm_start=cold.placement))
        assert warm.cost <= cold.cost + 1e-12
        assert warm.optimal


class TestPortfolio:
    def test_beats_or_ties_every_single_lane(self):
        infrastructure = infra()
        app = pipeline_app(5)
        budget = SolveBudget(deadline_s=0.050)
        portfolio = PortfolioPlacement(seed=11, iterations=10)
        raced = portfolio.solve(request_for(app, infrastructure,
                                            budget=budget))
        assert raced.provenance in portfolio.backends
        for name in portfolio.backends:
            lane = portfolio.backend(name).solve(
                request_for(app, infrastructure, budget=budget))
            assert raced.cost <= lane.cost + 1e-12

    def test_proves_optimality_on_small_instances(self):
        infrastructure = infra()
        app = pipeline_app(4)
        raced = PortfolioPlacement(seed=3, iterations=8).solve(
            request_for(app, infrastructure,
                        budget=SolveBudget(deadline_s=0.050)))
        exact = ExactPlacement().solve(request_for(app, infrastructure))
        assert raced.optimal
        assert raced.cost == pytest.approx(exact.cost, abs=1e-12)

    def test_same_seed_same_budget_byte_identical(self):
        infrastructure = infra()
        app = pipeline_app(5)
        budget = SolveBudget(deadline_s=0.050)
        first = PortfolioPlacement(seed=7, iterations=10).solve(
            request_for(app, infrastructure, budget=budget))
        second = PortfolioPlacement(seed=7, iterations=10).solve(
            request_for(app, infrastructure, budget=budget))
        assert first.to_json() == second.to_json()

    def test_result_labels_and_stats_cover_all_lanes(self):
        infrastructure = infra()
        app = pipeline_app(4)
        portfolio = PortfolioPlacement(seed=1, iterations=6)
        result = portfolio.solve(request_for(
            app, infrastructure, budget=SolveBudget(deadline_s=0.050)))
        assert result.placement.strategy == "portfolio"
        assert {s.backend for s in result.stats} == \
            set(portfolio.backends)
        payload = result.to_payload()
        assert payload["provenance"] == result.provenance
        assert json.loads(result.to_json()) == payload

    def test_incumbent_events_published(self):
        infrastructure = infra()
        app = pipeline_app(4)
        events = []
        infrastructure.ctx.subscribe(
            "mirto.placement.incumbent",
            lambda topic, payload: events.append(payload))
        PortfolioPlacement(seed=2, iterations=6).solve(
            request_for(app, infrastructure,
                        budget=SolveBudget(deadline_s=0.050)))
        assert events
        assert all({"backend", "cost"} <= set(e) for e in events)
        costs = [e["cost"] for e in events]
        assert costs == sorted(costs, reverse=True)

    def test_unknown_backend_rejected(self):
        with pytest.raises(OrchestrationError):
            PortfolioPlacement(backends=("exact", "annealing"),
                               ).backend("annealing")
        with pytest.raises(OrchestrationError):
            PortfolioPlacement(backends=())


class TestLatencySloFeasibility:
    def _slo_app(self, budget_s):
        app = Application("slo")
        app.add_task(Task("tight", 5000.0, requirements=TaskRequirements(
            latency_budget_s=budget_s)))
        return app

    def test_eligible_devices_drop_too_slow_devices(self):
        infrastructure = infra()
        # 5000 Mops in 300 ms: only the cloud servers are fast enough
        # (per-core throughput; fmdc needs ~635 ms, edge even more).
        app = self._slo_app(0.30)
        devices = eligible_devices(app.task("tight"), infrastructure,
                                   PlacementConstraints())
        assert devices
        assert {d.name for d in devices} == {"cloud-00", "cloud-01"}
        for device in devices:
            fastest = max(device.operating_points.values(),
                          key=lambda op: op.perf_scale)
            assert device.estimate_duration(
                app.task("tight"), fastest.name) <= 0.30

    def test_oneshot_strategies_honor_slo(self):
        infrastructure = infra()
        app = self._slo_app(0.30)
        fast = {d.name for d in eligible_devices(
            app.task("tight"), infrastructure, PlacementConstraints())}
        for strategy in (GreedyPlacement(), RoundRobinPlacement(),
                         RandomPlacement(random.Random(4))):
            placement = strategy.solve(PlacementRequest(
                application=app, infrastructure=infrastructure,
                constraints=PlacementConstraints())).placement
            assert placement.assignment["tight"] in fast

    def test_impossible_slo_raises(self):
        infrastructure = infra()
        app = self._slo_app(1e-9)
        with pytest.raises(OrchestrationError):
            GreedyPlacement().solve(PlacementRequest(
                application=app, infrastructure=infrastructure,
                constraints=PlacementConstraints()))

    def test_unbudgeted_tasks_keep_all_devices(self):
        infrastructure = infra()
        app = Application("loose")
        app.add_task(Task("anything", 5000.0))
        devices = eligible_devices(app.task("anything"), infrastructure,
                                   PlacementConstraints())
        assert len(devices) == len(infrastructure.devices)


def _random_instance(seed, n_tasks):
    rng = random.Random(seed)
    app = Application(f"prop-{seed}")
    reqs = TaskRequirements(latency_budget_s=30.0)
    for i in range(n_tasks):
        app.add_task(Task(f"t{i}", rng.uniform(100.0, 3000.0),
                          input_bytes=rng.randrange(10_000, 200_000),
                          output_bytes=rng.randrange(5_000, 100_000),
                          requirements=reqs))
    for i in range(1, n_tasks):
        pred = rng.randrange(0, i)
        app.connect(f"t{pred}", f"t{i}",
                    rng.randrange(1_000, 120_000))
    return app


STRATEGY_NAMES = ("random", "round-robin", "greedy", "swarm-rule", "pso",
                  "aco", "firefly", "exact", "portfolio")
ONE_SHOT_NAMES = ("random", "round-robin", "greedy", "swarm-rule")
SWARMS = {"pso": PsoPlacement, "aco": AcoPlacement,
          "firefly": FireflyPlacement}


class TestAnytimeContract:
    @pytest.mark.parametrize("name,warm", [
        *(pytest.param(n, False, id=n) for n in STRATEGY_NAMES),
        *(pytest.param(n, True, id=f"{n}-warm") for n in ONE_SHOT_NAMES),
    ])
    def test_incumbent_callback_costs_decrease(self, name, warm):
        infrastructure = infra()
        # An instance on which every one-shot heuristic misses the
        # optimum, so the optimum is a strictly cheaper warm start.
        app = _random_instance(8, 5)
        warm_start = None
        if warm:
            optimum = ExactPlacement().solve(
                request_for(app, infrastructure))
            cold = make_strategy(name, random.Random(3)).solve(
                request_for(app, infrastructure))
            assert optimum.cost < cold.cost
            warm_start = optimum.placement
        seen = []
        result = make_strategy(name, random.Random(3)).solve(request_for(
            app, infrastructure, warm_start=warm_start,
            on_incumbent=lambda p, c, b: seen.append((c, b))))
        costs = [c for c, _ in seen]
        assert costs
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert result.cost == costs[-1]
        if name == "portfolio":
            # Lane incumbents reach the caller only when they beat the
            # shared best.
            assert {b for _, b in seen} <= set(
                PortfolioPlacement.DEFAULT_BACKENDS)
            assert sum(s.incumbents for s in result.stats) >= len(seen)
        else:
            assert all(b == name for _, b in seen)
            assert result.stats[0].incumbents == len(seen)
        if name in ONE_SHOT_NAMES:
            assert len(seen) == 1
        if warm:
            assert result.placement.assignment == warm_start.assignment

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_stats_recorded(self, name):
        infrastructure = infra()
        app = pipeline_app(4)
        result = make_strategy(name, random.Random(3)).solve(
            request_for(app, infrastructure))
        expected = PortfolioPlacement.DEFAULT_BACKENDS \
            if name == "portfolio" else (name,)
        assert tuple(s.backend for s in result.stats) == expected
        for stats in result.stats:
            assert stats.nodes > 0
            assert stats.evaluations >= 1
            assert stats.to_payload()["backend"] == stats.backend
        assert result.optimal == (name in ("exact", "portfolio"))
        if name != "portfolio":
            assert result.stats[0].proven_optimal == result.optimal

    @pytest.mark.parametrize("name", SWARMS)
    def test_swarm_unlimited_budget_runs_configured_iterations(self,
                                                                name):
        infrastructure = infra()
        app = pipeline_app(4)
        for iterations in (1, 7):
            result = SWARMS[name](random.Random(9),
                                  iterations=iterations).solve(
                request_for(app, infrastructure))
            # One slice for the initial population, one per iteration.
            assert result.stats[0].steps == iterations + 1

    @pytest.mark.parametrize("name", SWARMS)
    def test_swarm_budgeted_incumbents_prefix_unbudgeted(self, name):
        infrastructure = infra()
        app = pipeline_app(5)

        def incumbents(budget):
            seen = []
            SWARMS[name](random.Random(9), iterations=12).solve(
                request_for(app, infrastructure, budget=budget,
                            on_incumbent=lambda p, c, b: seen.append(
                                (dict(p.assignment), c))))
            return seen

        full = incumbents(SolveBudget())
        cuts = [incumbents(SolveBudget(max_nodes=n))
                for n in (1, 10, 40, 150)]
        for cut in cuts:
            assert cut and cut == full[:len(cut)]
        assert len(cuts[0]) < len(full)


class TestSolverProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), n_tasks=st.integers(2, 5))
    def test_exact_lower_bounds_every_metaheuristic(self, seed,
                                                    n_tasks):
        infrastructure = infra()
        app = _random_instance(seed, n_tasks)
        exact = ExactPlacement().solve(request_for(app, infrastructure))
        assert exact.optimal
        for cls in (PsoPlacement, AcoPlacement):
            meta = cls(random.Random(seed), iterations=6).solve(
                request_for(app, infrastructure))
            assert exact.cost <= meta.cost + 1e-9

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_portfolio_never_worse_than_lanes(self, seed):
        infrastructure = infra()
        app = _random_instance(seed, 4)
        budget = SolveBudget(deadline_s=0.050)
        portfolio = PortfolioPlacement(seed=seed, iterations=6)
        raced = portfolio.solve(request_for(app, infrastructure,
                                            budget=budget))
        for name in portfolio.backends:
            lane = portfolio.backend(name).solve(
                request_for(app, infrastructure, budget=budget))
            assert raced.cost <= lane.cost + 1e-9

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n_tasks=st.integers(2, 5))
    def test_same_seed_byte_identical_results(self, seed, n_tasks):
        app = _random_instance(seed, n_tasks)
        budget = SolveBudget(max_nodes=500)
        runs = []
        for _ in range(2):
            infrastructure = infra()
            result = PortfolioPlacement(seed=seed, iterations=5).solve(
                request_for(app, infrastructure, budget=budget))
            runs.append(result.to_json())
        assert runs[0] == runs[1]


class TestMapeReplanning:
    def test_fault_triggers_placement_advice(self):
        from repro.mirto.engine import CognitiveEngine, EngineConfig
        from repro.dpe import ComponentModel, ScenarioModel
        engine = CognitiveEngine(EngineConfig(seed=5))
        scenario = ScenarioModel("replanned", latency_budget_s=5.0,
                                 min_security_level="low")
        scenario.add_component(ComponentModel("stage-a", 300,
                                              input_bytes=50_000))
        scenario.add_component(ComponentModel("stage-b", 900))
        scenario.connect("stage-a", "stage-b", 40_000)
        response = engine.deploy(scenario.to_service_template())
        assert response.ok, response.body
        solves = []
        engine.ctx.subscribe("mirto.placement.solve",
                             lambda topic, payload:
                             solves.append(payload))
        engine.ctx.publish("continuum.fault.fail", {
            "device": "cloud-01", "time_s": engine.ctx.now,
            "interrupted": 0})
        record = engine.mape_iterate(1)[0]
        suggested = [a for a in record.actions
                     if a.kind == "suggest-placement"]
        assert [a.component for a in suggested] == ["replanned"]
        assert solves and solves[0]["service"] == "replanned"
        assert solves[0]["provenance"] in \
            PortfolioPlacement.DEFAULT_BACKENDS
        key = "status/placement-advice/replanned"
        advice = engine.registry.kb.range(key)[key]
        assert set(advice["assignment"]) == {"stage-a", "stage-b"}
        # The advice warm-starts the next deploy of the same service.
        redeploy = engine.deploy(scenario.to_service_template())
        assert redeploy.ok, redeploy.body
