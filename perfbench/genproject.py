"""Seeded generator for the ``analysis_check`` workload's input project.

The project is shaped after ``src/repro``: one package per continuum
layer, modules that import and call each other across packages, services
that publish on the runtime bus with literal and f-string topics, watchers
that subscribe with method and closure handlers, DES generator processes
driven through ``sim.process`` and ``yield from``, a CLI that may print,
and its own ``[tool.repro-analysis]`` table in ``pyproject.toml``.

On top of the clean code the generator plants violations: at least one
for every continuum-lint rule and every flow rule. It returns the exact
``(rule, path, line)`` list the analyzer must report, so the workload can
check every run. The same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("core", "continuum", "runtime", "kube", "kb", "mirto", "chaos",
          "obs", "net", "monitoring", "tosca", "usecases")
SIMULATION_LAYERS = ("continuum", "kube", "kb", "mirto", "chaos")

LINT_RULES = ("global-random", "wall-clock", "mutable-default",
              "overbroad-except", "runtime-construction",
              "hot-path-allocation", "print-telemetry",
              "deprecated-context-shim", "deprecated-place-api",
              "seed-entropy")
FLOW_RULES = ("flow-topic-name", "flow-undeclared-topic", "flow-dead-topic",
              "flow-orphan-subscriber", "flow-payload-schema",
              "des-generator-not-driven", "des-process-not-generator",
              "des-handler-yields")

_NOUNS = ("relay", "gateway", "ledger", "probe", "beacon", "cache", "shard",
          "fleet", "router", "broker", "tracker", "planner", "sensor",
          "uplink", "vault", "mesh", "pilot", "keeper", "courier", "scout")
_KINDS = ("util", "service", "watcher", "driver")

#: Generated modules, and extra helper blocks per module: with the
#: anchors this is 137 files and ~17k lines, about the size of
#: ``src/repro`` (148 linted files).
MODULES = 120
BLOCKS = 3

PYPROJECT = """\
[project]
name = "{pkg}"
version = "0.{seed}.0"

[tool.repro-analysis]
paths = ["src/{pkg}"]
flow-paths = ["src/{pkg}"]
simulation-packages = {sim}
rng-allowlist = ["core/rng.py"]
runtime-allowlist = ["runtime/"]
print-allowlist = ["cli/"]
baseline = "analysis-baseline.json"
cache = ""
"""


@dataclass
class _Module:
    layer: str
    stem: str
    lines: list[str] = field(default_factory=list)

    @property
    def dotted(self) -> str:
        return f"{self.layer}.{self.stem}"

    def add(self, text: str = "", indent: int = 0) -> int:
        """Append one line; returns its 1-based line number."""
        self.lines.append(("    " * indent + text) if text else "")
        return len(self.lines)


@dataclass
class Project:
    """A generated project: files by relative path plus planted findings."""

    package: str
    files: dict[str, str]
    planted: list[tuple[str, str, int]]

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


class _Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.package = f"metro{seed % 1000:03d}"
        self.modules: list[_Module] = []
        self.utils: list[tuple[str, str]] = []  # (dotted module, fn)
        self.planted: list[tuple[_Module, str, int]] = []
        self.serial = 0

    def _name(self) -> str:
        self.serial += 1
        return f"{self.rng.choice(_NOUNS)}_{self.serial}"

    # -- clean templates ----------------------------------------------------

    def _header(self, mod: _Module, doc: str) -> None:
        mod.add(f'"""{doc}"""')
        mod.add()
        mod.add("from __future__ import annotations")
        mod.add()

    def _import_utils(self, mod: _Module, count: int) -> list[str]:
        """Import up to *count* helpers from earlier util modules."""
        picks = self.rng.sample(self.utils, min(count, len(self.utils)))
        names = []
        for dotted, fn in sorted(picks):
            mod.add(f"from {self.package}.{dotted} import {fn}")
            names.append(fn)
        if picks:
            mod.add()
        return names

    def _util(self, mod: _Module) -> None:
        self._header(mod, f"Pure helpers for the {mod.layer} layer.")
        calls = self._import_utils(mod, 2)
        self._helpers(mod, mod.stem, calls)
        return calls

    def _helpers(self, mod: _Module, stem: str, calls: list[str]) -> None:
        """Four pure functions; the first joins the importable helpers."""
        mod.add()
        mod.add()
        mod.add(f"def {stem}_score(values: list[float], "
                "weight: float = 1.0) -> float:")
        mod.add('"""Position-weighted sum of *values*."""', 1)
        mod.add("total = 0.0", 1)
        mod.add("for index, value in enumerate(values):", 1)
        mod.add("total += weight * value / (index + 1)", 2)
        if calls:
            mod.add(f"return total + {calls[0]}(values[:2])", 1)
        else:
            mod.add("return total", 1)
        mod.add()
        mod.add()
        mod.add(f"def {stem}_index(rows: list[dict], key: str) -> dict:")
        mod.add("return {row[key]: row for row in rows if key in row}", 1)
        mod.add()
        mod.add()
        mod.add(f"def {stem}_window(series: list[float], "
                "size: int = 4) -> list[float]:")
        mod.add("if size < 1:", 1)
        mod.add('raise ValueError("window size must be >= 1")', 2)
        mod.add("out: list[float] = []", 1)
        mod.add("for start in range(0, len(series), size):", 1)
        mod.add("chunk = series[start:start + size]", 2)
        mod.add("out.append(sum(chunk) / len(chunk))", 2)
        for fn in calls[1:]:
            mod.add(f"out.append({fn}(out))", 1)
        mod.add("return out", 1)
        mod.add()
        mod.add()
        mod.add(f"def {stem}_merge(left: dict, right: dict) -> dict:")
        mod.add("merged = dict(left)", 1)
        mod.add("for key, value in sorted(right.items()):", 1)
        mod.add("try:", 2)
        mod.add("merged[key] = merged[key] + value", 3)
        mod.add("except KeyError:", 2)
        mod.add("merged[key] = value", 3)
        mod.add("return merged", 1)
        self.utils.append((mod.dotted, f"{stem}_score"))

    def _service(self, mod: _Module) -> None:
        self._header(mod, f"{mod.layer} service: publishes zone telemetry "
                          "and device faults.")
        mod.add("from repro.runtime import RuntimeContext")
        calls = self._import_utils(mod, 2)
        cls = "".join(p.title() for p in mod.stem.split("_")) + "Service"
        mod.add()
        mod.add()
        mod.add(f"class {cls}:")
        mod.add(f'"""Periodic reporter for one {mod.layer} zone."""', 1)
        mod.add()
        mod.add("def __init__(self, ctx: RuntimeContext, name: str, "
                "zone: str):", 1)
        for attr in ("ctx", "name", "zone"):
            mod.add(f"self.{attr} = {attr}", 2)
        mod.add("self.samples: list[float] = []", 2)
        mod.add("self.failures = 0", 2)
        mod.add()
        mod.add("def start(self, period_s: float) -> None:", 1)
        mod.add(f"self.ctx.sim.process(self._loop_{mod.stem}(period_s))", 2)
        mod.add()
        mod.add(f"def _loop_{mod.stem}(self, period_s: float):", 1)
        mod.add("timeout = self.ctx.sim.timeout", 2)
        mod.add("while True:", 2)
        mod.add("yield timeout(period_s)", 3)
        mod.add("self.report(self.ctx.now)", 3)
        mod.add()
        mod.add("def report(self, now: float) -> None:", 1)
        score = f"{calls[0]}(self.samples)" if calls else \
            "sum(self.samples)"
        mod.add(f"score = {score}", 2)
        mod.add('self.ctx.publish(f"shard.fleet.telemetry.{self.zone}", {', 2)
        mod.add('"zone": self.zone, "time_s": now, '
                '"up": len(self.samples),', 3)
        mod.add('"utilization": score, "energy_j": 0.0,', 3)
        mod.add('"failures": self.failures, "repairs": 0})', 3)
        mod.add()
        mod.add("def fail(self, device: str, now: float) -> None:", 1)
        mod.add("self.failures += 1", 2)
        mod.add('self.ctx.publish("continuum.fault.fail", {', 2)
        mod.add('"device": device, "time_s": now, "interrupted": 0})', 3)
        mod.add()
        mod.add("def repair(self, device: str, now: float) -> None:", 1)
        mod.add('self.ctx.publish("continuum.fault.repair", '
                '{"device": device, "time_s": now})', 2)
        extra = self.rng.choice(("kube", "monitor", "action"))
        mod.add()
        mod.add("def emit(self, kind: str, event: object, now: float) "
                "-> None:", 1)
        if extra == "kube":
            mod.add('self.ctx.publish(f"kube.{self.name}.{kind}", event)', 2)
        elif extra == "monitor":
            mod.add('self.ctx.publish(f"monitor.metrics.{kind}.{self.name}'
                    '.load", {"time_s": now, "value": len(self.samples)})',
                    2)
        else:
            mod.add('self.ctx.publish(f"chaos.action.{kind}", {', 2)
            mod.add('"campaign": self.name, "action": kind, "index": 0,', 3)
            mod.add('"phase": "begin", "time_s": now, "detail": event})', 3)
        if calls[1:]:
            mod.add()
            mod.add("def summary(self) -> float:", 1)
            mod.add(f"return {calls[1]}(self.samples)", 2)
        return calls

    def _watcher(self, mod: _Module) -> None:
        self._header(mod, f"{mod.layer} watchers: react to faults, "
                          "telemetry and campaigns.")
        mod.add("from repro.runtime import RuntimeContext")
        calls = self._import_utils(mod, 1)
        cls = "".join(p.title() for p in mod.stem.split("_")) + "Watcher"
        mod.add()
        mod.add()
        mod.add(f"class {cls}:")
        mod.add('"""Tracks device downtime and zone load."""', 1)
        mod.add()
        mod.add("def __init__(self, ctx: RuntimeContext):", 1)
        mod.add("self.ctx = ctx", 2)
        mod.add("self.down: dict[str, float] = {}", 2)
        mod.add("self.load: dict[str, int] = {}", 2)
        mod.add('ctx.subscribe("continuum.fault.*", self.on_fault)', 2)
        mod.add('ctx.subscribe("shard.fleet.telemetry.*", '
                'self.on_telemetry)', 2)
        mod.add()
        mod.add("def on_fault(self, topic: str, payload: dict) -> None:", 1)
        mod.add('device = payload["device"]', 2)
        mod.add('if topic.endswith(".fail"):', 2)
        mod.add('self.down[device] = payload.get("time_s", 0.0)', 3)
        mod.add("else:", 2)
        mod.add("self.down.pop(device, None)", 3)
        mod.add()
        mod.add("def on_telemetry(self, topic: str, payload: dict) "
                "-> None:", 1)
        mod.add('self.load[payload["zone"]] = payload["up"]', 2)
        if calls:
            mod.add()
            mod.add("def pressure(self) -> float:", 1)
            mod.add(f"return {calls[0]}([float(v) for v in "
                    "self.load.values()])", 2)
        mod.add()
        mod.add()
        mod.add(f"def watch_campaigns_{mod.stem}(ctx: RuntimeContext) "
                "-> dict:")
        mod.add('"""Count campaign starts seen on *ctx*."""', 1)
        mod.add('seen = {"campaigns": 0}', 1)
        mod.add()
        mod.add("def on_begin(topic: str, payload: dict) -> None:", 1)
        mod.add('seen["campaigns"] += 1', 2)
        mod.add('seen["last"] = payload["campaign"]', 2)
        mod.add()
        mod.add('ctx.subscribe("chaos.campaign.begin", on_begin)', 1)
        mod.add("return seen", 1)
        return calls

    def _driver(self, mod: _Module) -> None:
        self._header(mod, f"{mod.layer} drivers: DES processes behind "
                          "resilience policies.")
        mod.add("from repro.runtime import RuntimeContext")
        calls = self._import_utils(mod, 1)
        cls = "".join(p.title() for p in mod.stem.split("_")) + "Driver"
        mod.add()
        mod.add()
        mod.add(f"class {cls}:")
        mod.add('"""Runs a bounded number of guarded attempts."""', 1)
        mod.add()
        mod.add("def __init__(self, ctx: RuntimeContext, policy, "
                "limit: int = 8):", 1)
        mod.add("self.ctx = ctx", 2)
        mod.add("self.policy = policy", 2)
        mod.add("self.limit = limit", 2)
        mod.add("self.completed = 0", 2)
        mod.add("self.latencies: list[float] = []", 2)
        mod.add()
        mod.add("def start(self) -> None:", 1)
        mod.add(f"self.ctx.sim.process(self._loop_{mod.stem}())", 2)
        mod.add()
        mod.add(f"def _loop_{mod.stem}(self):", 1)
        mod.add("while self.completed < self.limit:", 2)
        mod.add("began = self.ctx.now", 3)
        mod.add(f"yield from self.policy.guard(self._attempt_{mod.stem})",
                3)
        mod.add("self.latencies.append(self.ctx.now - began)", 3)
        mod.add("self.completed += 1", 3)
        mod.add()
        mod.add(f"def _attempt_{mod.stem}(self):", 1)
        mod.add("return self.ctx.sim.timeout(0.5)", 2)
        mod.add()
        mod.add("def begin(self, name: str, actions: int) -> None:", 1)
        mod.add('self.ctx.publish("chaos.campaign.begin", {', 2)
        mod.add('"campaign": name, "actions": actions, '
                '"time_s": self.ctx.now})', 3)
        if calls:
            mod.add()
            mod.add("def mean_latency(self) -> float:", 1)
            mod.add(f"return {calls[0]}(self.latencies)", 2)
        return calls

    def _anchor_modules(self) -> list[_Module]:
        """Modules every project has: the policy the drivers delegate to,
        a runtime bus wrapper and the CLI (the print allowlist)."""
        policy = _Module("chaos", "policies")
        self._header(policy, "Retry policy the drivers delegate to.")
        policy.add()
        policy.add("class Retry:")
        policy.add('"""Retry a call factory with a fixed backoff."""', 1)
        policy.add()
        policy.add("def __init__(self, ctx, attempts: int = 3, "
                   "backoff_s: float = 0.1):", 1)
        policy.add("self.ctx = ctx", 2)
        policy.add("self.attempts = attempts", 2)
        policy.add("self.backoff_s = backoff_s", 2)
        policy.add()
        policy.add("def guard(self, factory):", 1)
        policy.add("for attempt in range(self.attempts):", 2)
        policy.add("try:", 3)
        policy.add("return (yield factory())", 4)
        policy.add("except RuntimeError:", 3)
        policy.add("yield self.ctx.sim.timeout(self.backoff_s * "
                   "(attempt + 1))", 4)
        policy.add('raise RuntimeError("retries exhausted")', 2)

        bus = _Module("runtime", "bus")
        self._header(bus, "Local bus wrapper: runtime/ may build an "
                          "EventBus.")
        bus.add("from repro.core.events import EventBus")
        bus.add()
        bus.add()
        bus.add("class LocalBus:")
        bus.add("def __init__(self):", 1)
        bus.add("self.bus = EventBus()", 2)
        bus.add()
        bus.add("def publish(self, topic: str, payload: dict) -> int:", 1)
        bus.add("return self.bus.publish(topic, payload)", 2)

        cli = _Module("cli", "main")
        self._header(cli, "Command line: printing is its job.")
        cli.add("import sys")
        cli.add()
        cli.add()
        cli.add("def main(argv: list[str] | None = None) -> int:")
        cli.add("args = sys.argv[1:] if argv is None else argv", 1)
        cli.add("for arg in args:", 1)
        cli.add('print(f"{arg}: ok")', 2)
        cli.add("return 0", 1)
        return [policy, bus, cli]

    # -- planted violations -------------------------------------------------

    def _plant(self, mod: _Module, rule: str) -> None:
        k = self.serial = self.serial + 1
        add = mod.add
        add()
        add()
        if rule == "global-random":
            add(f"def jitter_{k}(scale: float) -> float:")
            add("import random", 1)
            line = add("return scale * random.random()", 1)
        elif rule == "wall-clock":
            add(f"def stamp_{k}() -> float:")
            add("import time", 1)
            line = add("return time.time()", 1)
        elif rule == "mutable-default":
            line = add(f"def collect_{k}(item: object, bucket=[]) -> list:")
            add("bucket.append(item)", 1)
            add("return bucket", 1)
        elif rule == "overbroad-except":
            add(f"def load_{k}(path: str) -> str:")
            add("try:", 1)
            add("with open(path) as handle:", 2)
            add("return handle.read()", 3)
            line = add("except:", 1)
            add('return ""', 2)
        elif rule == "runtime-construction":
            add(f"def private_clock_{k}():")
            add("from repro.continuum.simulator import Simulator", 1)
            line = add("return Simulator()", 1)
        elif rule == "hot-path-allocation":
            add(f"def fold_{k}(rows: list[float]) -> list[float]:"
                "  # perf: hot")
            line = add("return [row * 2.0 for row in rows]", 1)
        elif rule == "print-telemetry":
            add(f"def trace_{k}(event: str) -> None:")
            line = add('print(f"event={event}")', 1)
        elif rule == "deprecated-context-shim":
            add(f"def legacy_context_{k}(sim):")
            add("from repro.runtime import ensure_context", 1)
            line = add("return ensure_context(sim)", 1)
        elif rule == "deprecated-place-api":
            add(f"def legacy_place_{k}(strategy, app, infra, constraints):")
            line = add("return strategy.place(app, infra, constraints)", 1)
        elif rule == "seed-entropy":
            add(f"def child_rng_{k}(rng):")
            add("import random", 1)
            line = add("return random.Random(rng.random())", 1)
        elif rule == "flow-topic-name":
            add(f"def announce_{k}(ctx, device: str) -> None:")
            line = add('ctx.publish("continuum.fault.Failed", '
                       '{"device": device})', 1)
        elif rule == "flow-undeclared-topic":
            add(f"def rebalance_{k}(ctx, zone: str) -> None:")
            line = add('ctx.publish("continuum.fleet.rebalanced", '
                       '{"zone": zone})', 1)
        elif rule == "flow-dead-topic":
            add(f"def close_campaign_{k}(ctx, name: str) -> None:")
            line = add('ctx.publish("chaos.campaign.end", {"campaign": '
                       'name, "status": "done", "time_s": ctx.now})', 1)
        elif rule == "flow-orphan-subscriber":
            add(f"def watch_heal_{k}(ctx, healed: list) -> None:")
            add("def on_heal(topic: str, payload: dict) -> None:", 1)
            add('healed.append(payload["links"])', 2)
            line = add('ctx.subscribe("chaos.net.heal", on_heal)', 1)
        elif rule == "flow-payload-schema":
            add(f"def quick_repair_{k}(ctx, device: str) -> None:")
            line = add('ctx.publish("continuum.fault.repair", '
                       '{"device": device})', 1)
        elif rule == "des-generator-not-driven":
            add(f"def restart_{k}(period_s: float) -> None:")
            line = add(f"heartbeat_{k}(period_s)", 1)
            add()
            add()
            add(f"def heartbeat_{k}(period_s: float):")
            add("while True:", 1)
            add("yield period_s", 2)
        elif rule == "des-process-not-generator":
            add(f"def settle_{k}(sim) -> None:")
            line = add(f"sim.process(settled_{k}())", 1)
            add()
            add()
            add(f"def settled_{k}() -> int:")
            add("return 0", 1)
        elif rule == "des-handler-yields":
            add(f"def stream_faults_{k}(ctx) -> None:")
            add("def on_fault(topic: str, payload: dict):", 1)
            add('yield payload["device"]', 2)
            line = add('ctx.subscribe("continuum.fault.*", on_fault)', 1)
        else:  # pragma: no cover - guarded by the rule tuples
            raise ValueError(rule)
        self.planted.append((mod, rule, line))

    # -- assembly -----------------------------------------------------------

    def build(self) -> Project:
        layer_cycle = list(LAYERS)
        # The first modules are utils so later ones have helpers to
        # import. The kind mix is fixed and only its order is seeded, so
        # every seed gives a project of about the same size, and there
        # are always services, watchers and drivers: every subscribed
        # family has a publisher and every published bus topic a
        # subscriber, so the clean code trips no orphan/dead-topic rule.
        rest = MODULES - len(LAYERS)
        kinds = [_KINDS[i % len(_KINDS)] for i in range(rest)]
        self.rng.shuffle(kinds)
        kinds = ["util"] * len(LAYERS) + kinds
        for index, kind in enumerate(kinds):
            if index % len(layer_cycle) == 0:
                self.rng.shuffle(layer_cycle)
            layer = layer_cycle[index % len(layer_cycle)]
            mod = _Module(layer, self._name())
            calls = getattr(self, f"_{kind}")(mod)
            for block in range(BLOCKS):
                self._helpers(mod, f"{mod.stem}_{block}", calls)
            self.modules.append(mod)
        anchors = self._anchor_modules()

        sim_mods = [m for m in self.modules if m.layer in SIMULATION_LAYERS]
        other_mods = [m for m in self.modules
                      if m.layer not in SIMULATION_LAYERS
                      and m.layer != "runtime"]
        for rule in LINT_RULES + FLOW_RULES:
            count = 1 if rule == "flow-dead-topic" else \
                self.rng.randint(1, 3)
            pool = sim_mods if rule == "wall-clock" else other_mods
            for _ in range(count):
                self._plant(self.rng.choice(pool), rule)

        files: dict[str, str] = {}
        pkg_root = f"src/{self.package}"
        layers = sorted({m.layer for m in self.modules + anchors})
        files["pyproject.toml"] = PYPROJECT.format(
            pkg=self.package, seed=self.seed,
            sim="[" + ", ".join(f'"{x}"' for x in SIMULATION_LAYERS) + "]")
        files[f"{pkg_root}/__init__.py"] = \
            f'"""Generated project {self.package}."""\n'
        for layer in layers:
            files[f"{pkg_root}/{layer}/__init__.py"] = \
                f'"""The {layer} layer."""\n'
        for mod in self.modules + anchors:
            files[f"{pkg_root}/{mod.layer}/{mod.stem}.py"] = \
                "\n".join(mod.lines) + "\n"
        planted = sorted(
            (rule, f"{pkg_root}/{mod.layer}/{mod.stem}.py", line)
            for mod, rule, line in self.planted)
        return Project(self.package, dict(sorted(files.items())),
                       planted)


def generate(seed: int) -> Project:
    """The project for *seed*: the generated modules plus the anchors."""
    return _Generator(seed).build()
