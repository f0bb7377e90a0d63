"""Whole-program topic-flow extraction and contract checking.

Reads every scope's calls from the module index (functions, nested
handlers, and the lambdas inside them) for ``*.publish(...)`` /
``*.subscribe(...)`` calls on a bus-like receiver, resolves the topic
argument to a static :class:`TopicPattern` (literal strings exactly,
f-strings with placeholders widened to ``*``), then checks the whole
program against the registry in
:mod:`repro.analysis.flow.topics`:

- ``flow-topic-name`` — malformed topic segments, or wildcard
  characters typed into a *published* topic.
- ``flow-undeclared-topic`` — a publish whose topic family matches no
  registered contract.
- ``flow-dead-topic`` — a ``consumed="bus"`` contract that is published
  but has no in-process subscriber whose pattern can receive it.
- ``flow-orphan-subscriber`` — a subscription no publish site can ever
  reach.
- ``flow-payload-schema`` — a literal payload dict that violates the
  matching contract's key set, or a handler accessing payload keys the
  contract does not carry.
- ``des-handler-yields`` — a bus handler that is a generator function
  (the bus calls handlers synchronously; a generator body never runs).

Forwarding wrappers (``RuntimeContext.publish`` and friends, whose
topic argument is one of their own parameters) are not publish sites —
the analysis charges the topic to the caller that named it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.patterns import (TopicPattern, pattern_from_ast,
                                          segment_violations)
from repro.analysis.flow.symbols import FunctionInfo, ModuleInfo, Project
from repro.analysis.flow.topics import (TOPIC_CONTRACTS, TopicContract,
                                        contracts_for)
from repro.analysis.index import Scope

#: Terminal receiver names that make `x.publish(...)` a bus call.
_BUS_RECEIVERS = frozenset({"bus", "_bus", "ctx", "_ctx", "context"})


@dataclass
class PublishSite:
    """One statically resolved ``publish`` call."""

    module: str
    qualname: str  # enclosing function ("repro.mod:Cls.meth")
    rel_path: str
    lineno: int
    pattern: TopicPattern
    payload: ast.expr | None
    context: str  # stripped source line, for fingerprints


@dataclass
class SubscribeSite:
    """One statically resolved ``subscribe`` call."""

    module: str
    qualname: str
    rel_path: str
    lineno: int
    pattern: TopicPattern
    handler: FunctionInfo | None  # resolved handler function, if any
    context: str

    @property
    def handler_name(self) -> str:
        return self.handler.qualname if self.handler else self.qualname


def _receiver_terminal(func: ast.Attribute) -> str | None:
    """Name of the object ``.publish``/``.subscribe`` is called on."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _call_arg(call: ast.Call, index: int, *names: str) -> ast.expr | None:
    if len(call.args) > index:
        return call.args[index]
    for keyword in call.keywords:
        if keyword.arg in names:
            return keyword.value
    return None


def _site(call: ast.Call, info: ModuleInfo, scope: Scope,
          project: Project) -> PublishSite | SubscribeSite | None:
    """*call* as a publish/subscribe site of *scope*, if it is one."""
    target = call.func
    if not isinstance(target, ast.Attribute) \
            or target.attr not in ("publish", "subscribe") \
            or _receiver_terminal(target) not in _BUS_RECEIVERS:
        return None
    topic_arg = _call_arg(call, 0, "topic", "pattern")
    if topic_arg is None:
        return None
    func = scope.node if isinstance(
        scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
    # Forwarding wrapper: the topic is one of the enclosing function's
    # own parameters — the real site is the caller.
    if isinstance(topic_arg, ast.Name) and func is not None:
        params = {a.arg for a in (func.args.posonlyargs + func.args.args
                                  + func.args.kwonlyargs)}
        if topic_arg.id in params:
            return None
    pattern = pattern_from_ast(topic_arg)
    if pattern is None:
        return None  # dynamic beyond static resolution; no finding
    lineno = getattr(call, "lineno", 1)
    context = info.lines[lineno - 1].strip() \
        if 0 < lineno <= len(info.lines) else ""
    qualname = f"{info.name}:{scope.qualname}"
    if target.attr == "publish":
        return PublishSite(
            module=info.name, qualname=qualname, rel_path=info.rel_path,
            lineno=lineno, pattern=pattern,
            payload=_call_arg(call, 1, "payload"), context=context)
    handler = _resolve_handler(_call_arg(call, 1, "handler"), info, scope,
                               func is not None, project)
    return SubscribeSite(
        module=info.name, qualname=qualname, rel_path=info.rel_path,
        lineno=lineno, pattern=pattern, handler=handler, context=context)


def _resolve_handler(node: ast.expr | None, info: ModuleInfo, scope: Scope,
                     in_function: bool,
                     project: Project) -> FunctionInfo | None:
    if node is None:
        return None
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id in ("self", "cls") \
            and scope.class_name is not None:
        cls_info = info.classes.get(scope.class_name)
        if cls_info is not None:
            return project._method_in_mro(cls_info, node.attr)
        return None
    if isinstance(node, ast.Name):
        # A name bound by a def directly in the enclosing function.
        if in_function:
            for nested in scope.defs:
                if nested.node.name == node.id:
                    return FunctionInfo(
                        module=info.name, name=node.id,
                        qualname=f"{info.name}:{nested.qualname}",
                        scope=nested)
        if node.id in info.functions:
            return info.functions[node.id]
        origin = info.index.from_imports.get(node.id)
        if origin is not None:
            return project.resolve_dotted(origin)
    return None


def extract_sites(project: Project) -> tuple[list[PublishSite],
                                             list[SubscribeSite]]:
    """All statically resolvable publish/subscribe sites, in
    deterministic (module, line) order."""
    publishes: list[PublishSite] = []
    subscribes: list[SubscribeSite] = []
    for name in sorted(project.modules):
        info = project.modules[name]
        for scope in info.index.scopes.values():
            for call in scope.calls + scope.lambda_calls:
                site = _site(call, info, scope, project)
                if isinstance(site, PublishSite):
                    publishes.append(site)
                elif site is not None:
                    subscribes.append(site)
    key = (lambda s: (s.rel_path, s.lineno, s.pattern.text))
    return sorted(publishes, key=key), sorted(subscribes, key=key)


# ---------------------------------------------------------------------------
# contract checks
# ---------------------------------------------------------------------------


def _finding(rule: str, path: str, line: int, message: str,
             context: str, severity: Severity = Severity.ERROR) -> Finding:
    return Finding(tool="flow", rule=rule, path=path, line=line,
                   message=message, severity=severity, context=context)


def _literal_dict_keys(node: ast.expr) -> tuple[set[str], bool] | None:
    """(string keys, has_spread) for a literal dict payload, else None."""
    if not isinstance(node, ast.Dict):
        return None
    keys: set[str] = set()
    spread = False
    for key in node.keys:
        if key is None:
            spread = True
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        else:
            return None  # computed key: not statically checkable
    return keys, spread


def _dict_accepted(contract: TopicContract, keys: set[str],
                   spread: bool) -> str | None:
    """None when *keys* satisfies *contract*, else the violation text."""
    if contract.payload == "opaque":
        return None
    if contract.payload == "none":
        return "contract declares no payload"
    if spread:
        return None  # `**` spread: content unknowable statically
    missing = contract.required - keys
    if missing:
        return f"missing required key(s) {sorted(missing)}"
    if contract.payload == "dict":
        unknown = keys - contract.required - contract.optional
        if unknown:
            return f"unknown key(s) {sorted(unknown)}"
    return None


def check_publishes(publishes: list[PublishSite]) -> list[Finding]:
    findings: list[Finding] = []
    for site in publishes:
        problems = segment_violations(site.pattern, allow_wildcards=False)
        for problem in problems:
            findings.append(_finding(
                "flow-topic-name", site.rel_path, site.lineno,
                f"published topic {site.pattern.text!r}: {problem}",
                site.context))
        if problems:
            continue  # a malformed topic cannot match contracts
        contracts = contracts_for(site.pattern)
        if not contracts:
            findings.append(_finding(
                "flow-undeclared-topic", site.rel_path, site.lineno,
                f"topic {site.pattern.text!r} matches no contract in "
                f"the registry (repro.analysis.flow.topics)",
                site.context))
            continue
        if site.payload is None:
            continue
        literal = _literal_dict_keys(site.payload)
        if literal is None:
            continue  # non-dict payloads are checked by their contracts
        keys, spread = literal
        # Accepted if ANY overlapping contract takes this dict: a
        # dynamic pattern can straddle several families.
        violations = [
            (c, v) for c in contracts
            for v in [_dict_accepted(c, keys, spread)] if v is not None]
        if len(violations) == len(contracts):
            contract, violation = violations[0]
            findings.append(_finding(
                "flow-payload-schema", site.rel_path, site.lineno,
                f"payload for {site.pattern.text!r} violates contract "
                f"{contract.pattern!r}: {violation}", site.context))
    return findings


def check_subscribers(publishes: list[PublishSite],
                      subscribes: list[SubscribeSite]) -> list[Finding]:
    findings: list[Finding] = []
    for site in subscribes:
        for problem in segment_violations(site.pattern,
                                          allow_wildcards=True):
            findings.append(_finding(
                "flow-topic-name", site.rel_path, site.lineno,
                f"subscription pattern {site.pattern.text!r}: {problem}",
                site.context))
        if not any(site.pattern.intersects(pub.pattern)
                   for pub in publishes):
            findings.append(_finding(
                "flow-orphan-subscriber", site.rel_path, site.lineno,
                f"no publish site can ever reach subscription "
                f"{site.pattern.text!r}", site.context,
                severity=Severity.WARNING))
        if site.handler is not None and site.handler.is_generator:
            findings.append(_finding(
                "des-handler-yields", site.rel_path, site.lineno,
                f"bus handler {site.handler.qualname} is a generator: "
                f"the bus calls handlers synchronously, so its body "
                f"never runs", site.context))
        findings.extend(_check_handler_keys(site))
    return findings


def check_dead_topics(publishes: list[PublishSite],
                      subscribes: list[SubscribeSite]) -> list[Finding]:
    """``consumed="bus"`` contracts whose events nothing receives."""
    findings: list[Finding] = []
    for contract in TOPIC_CONTRACTS:
        if contract.consumed != "bus":
            continue
        publishers = [p for p in publishes
                      if contract.intersects(p.pattern)]
        if not publishers:
            continue  # unpublished contract: nothing to receive
        if not any(s.pattern.intersects(contract.pattern)
                   for s in subscribes):
            first = publishers[0]
            findings.append(_finding(
                "flow-dead-topic", first.rel_path, first.lineno,
                f"topic {first.pattern.text!r} is consumed=\"bus\" per "
                f"contract {contract.pattern!r} but has no in-process "
                f"subscriber", first.context))
    return findings


def _handler_payload_param(handler: FunctionInfo) -> str | None:
    args = [a.arg for a in handler.scope.node.args.args]
    if handler.class_name is not None and args and \
            args[0] in ("self", "cls"):
        args = args[1:]
    if len(args) >= 2:
        return args[1]
    return None


def _check_handler_keys(site: SubscribeSite) -> list[Finding]:
    """Key accesses in the handler vs the closed contract key set."""
    if site.handler is None:
        return []
    contracts = contracts_for(site.pattern)
    if not contracts or any(c.payload != "dict" for c in contracts):
        return []  # any open/opaque family: all key accesses legal
    allowed: set[str] = set()
    for contract in contracts:
        allowed |= contract.required | contract.optional
    payload_name = _handler_payload_param(site.handler)
    if payload_name is None:
        return []
    names = {payload_name}
    findings: list[Finding] = []
    for node in site.handler.scope.nodes:
        # Track `data = payload or {}` style aliases.
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _mentions(node.value, names):
            names.add(node.targets[0].id)
            continue
        key = _key_access(node, names)
        if key is not None and key not in allowed:
            findings.append(_finding(
                "flow-payload-schema", site.rel_path,
                getattr(node, "lineno", site.lineno),
                f"handler {site.handler.qualname} reads payload key "
                f"{key!r}, not in contract(s) "
                f"{sorted(c.pattern for c in contracts)}",
                f"{site.handler.qualname}:{key}"))
    return findings


def _mentions(node: ast.expr, names: set[str]) -> bool:
    return any(isinstance(n, ast.Name) and n.id in names
               for n in ast.walk(node))


def _key_access(node: ast.AST, names: set[str]) -> str | None:
    """The string key when *node* reads one from the payload."""
    if isinstance(node, ast.Subscript) \
            and isinstance(node.value, ast.Name) \
            and node.value.id in names \
            and isinstance(node.slice, ast.Constant) \
            and isinstance(node.slice.value, str):
        return node.slice.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get" and node.args \
            and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id in names:
            return node.args[0].value
        # `(payload or {}).get("k")`
        if isinstance(receiver, ast.BoolOp) and _mentions(receiver, names):
            return node.args[0].value
    return None


def analyze_topic_flow(project: Project) -> list[Finding]:
    """All topic-flow findings for *project* (unsorted; the runner
    assigns occurrences and orders the union)."""
    publishes, subscribes = extract_sites(project)
    findings = check_publishes(publishes)
    findings += check_subscribers(publishes, subscribes)
    findings += check_dead_topics(publishes, subscribes)
    return findings


# ---------------------------------------------------------------------------
# topic graph
# ---------------------------------------------------------------------------


def build_topic_graph(project: Project) -> dict:
    """Deterministic publisher → topic → subscriber graph.

    Keyed on function qualnames and pattern texts — never line numbers
    — so the JSON is byte-stable across unrelated edits.
    """
    publishes, subscribes = extract_sites(project)
    topics: dict[str, dict] = {}
    for site in publishes:
        entry = topics.setdefault(site.pattern.text, {
            "pattern": site.pattern.text,
            "contracts": sorted(
                c.pattern for c in contracts_for(site.pattern)),
            "publishers": set(), "subscribers": set()})
        entry["publishers"].add(site.qualname)
    for site in subscribes:
        for entry in topics.values():
            if site.pattern.intersects(entry["pattern"]):
                entry["subscribers"].add(
                    (site.pattern.text, site.handler_name))
    topic_list = []
    for text in sorted(topics):
        entry = topics[text]
        topic_list.append({
            "pattern": entry["pattern"],
            "contracts": entry["contracts"],
            "publishers": sorted(entry["publishers"]),
            "subscribers": [
                {"pattern": pat, "handler": handler}
                for pat, handler in sorted(entry["subscribers"])],
        })
    return {
        "topics": topic_list,
        "publisher_count": len({q for t in topic_list
                                for q in t["publishers"]}),
        "subscriber_count": len({s["handler"] for t in topic_list
                                 for s in t["subscribers"]}),
    }


def graph_to_dot(graph: dict) -> str:
    """Render :func:`build_topic_graph` output as Graphviz DOT."""
    lines = ["digraph topic_flow {", "  rankdir=LR;",
             '  node [fontsize=10];']
    emitted: set[str] = set()

    def node(name: str, shape: str) -> str:
        ident = '"%s"' % name.replace('"', r'\"')
        if ident not in emitted:
            emitted.add(ident)
            lines.append(f"  {ident} [shape={shape}];")
        return ident

    edges: list[str] = []
    for topic in graph["topics"]:
        t_node = node(topic["pattern"], "ellipse")
        for publisher in topic["publishers"]:
            edges.append(f"  {node(publisher, 'box')} -> {t_node};")
        for sub in topic["subscribers"]:
            edges.append(
                f"  {t_node} -> {node(sub['handler'], 'box')} "
                f"[label=\"{sub['pattern']}\"];")
    lines.extend(sorted(set(edges)))
    lines.append("}")
    return "\n".join(lines) + "\n"
