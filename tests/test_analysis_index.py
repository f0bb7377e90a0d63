"""The per-module index (`repro.analysis.index`) against reference walks.

The index is built in one traversal; these tests pin each thing it holds
to the small, obviously-correct walk it replaces, over every module
under ``src/repro`` and over fixtures for the scoping corner cases:
async defs, lambdas and a class nested inside a function.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cache import parse_source

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_PRUNED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_CONTEXTS = (ast.Load, ast.Store, ast.Del)  # not indexed


def reference_own_nodes(scope_node: ast.AST) -> list[ast.AST]:
    """A scope's own nodes: stack walk from the body, nested scopes
    pruned."""
    stack = list(scope_node.body)
    nodes = []
    while stack:
        node = stack.pop()
        if isinstance(node, _PRUNED):
            continue
        if not isinstance(node, _CONTEXTS):
            nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return nodes


def reference_nested_defs(scope_node: ast.AST) -> list[ast.AST]:
    """Defs met by the same walk, which does not descend into them."""
    stack = list(scope_node.body)
    defs = []
    while stack:
        node = stack.pop()
        if isinstance(node, _DEFS):
            defs.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return defs


def reference_lambda_calls(scope_node: ast.AST) -> set[ast.AST]:
    """Calls anywhere inside the lambdas of a scope's own nodes."""
    return {call for node in reference_own_nodes(scope_node)
            for lam in ast.iter_child_nodes(node)
            if isinstance(lam, ast.Lambda)
            for call in ast.walk(lam) if isinstance(call, ast.Call)}


def check_index(source: str) -> None:
    parsed = parse_source(source)
    tree, index = parsed.tree, parsed.index
    walked = [n for n in ast.walk(tree) if not isinstance(n, _CONTEXTS)]
    scoped = [tree] + [n for n in walked
                       if isinstance(n, (*_DEFS, ast.ClassDef))]
    assert set(index.scopes) == set(scoped)
    assert index.module is index.scopes[tree]
    for node, scope in index.scopes.items():
        own = reference_own_nodes(node)
        assert scope.nodes == own
        assert scope.is_generator == any(
            isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own)
        assert [d.node for d in scope.defs] == reference_nested_defs(node)
        # Reversing a right-to-left pre-order gives source post-order.
        assert scope.calls == [n for n in reversed(own)
                               if isinstance(n, ast.Call)]
        assert set(scope.lambda_calls) == reference_lambda_calls(node)
    for node_type, nodes in index.by_type.items():
        assert nodes == [n for n in walked if type(n) is node_type]
    assert sum(map(len, index.by_type.values())) == len(walked)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_index_matches_reference_walks_on_every_module(path):
    check_index(path.read_text())


FIXTURE = textwrap.dedent("""
    import random as rnd
    from repro.core import rng

    async def pump(bus, queue):
        async def drain():
            yield await queue.get()
        bus.subscribe("a.b", lambda t, p: bus.publish("a.c", p))
        return [x async for x in drain()]

    def outer(sim):
        class Local(Base):
            def method(self):
                yield sim.timeout(1.0)
        handler = lambda: (yield)
        helper = lambda n=rnd.random(): sim.process(n)
        yield from Local().method()

    class Owner:
        def start(self, bus):
            def inner():
                def deepest():
                    return 1
                return deepest
            bus.subscribe("x.y", inner)
""")


def scope_named(index, name):
    [scope] = [s for s in index.scopes.values()
               if getattr(s.node, "name", None) == name]
    return scope


def test_fixture_matches_reference_walks():
    check_index(FIXTURE)


def test_async_defs_are_scopes():
    index = parse_source(FIXTURE).index
    pump, drain = scope_named(index, "pump"), scope_named(index, "drain")
    assert pump.defs == [drain]
    assert drain.qualname == "pump.drain" and drain.is_generator
    assert not pump.is_generator


def test_lambda_calls_are_sites_but_not_own_nodes():
    index = parse_source(FIXTURE).index
    pump = scope_named(index, "pump")
    [lambda_call] = pump.lambda_calls
    assert lambda_call.func.attr == "publish"
    assert lambda_call not in pump.calls
    assert lambda_call not in pump.nodes
    outer = scope_named(index, "outer")
    # `lambda: (yield)` is a generator lambda, not a yield of `outer`;
    # `outer` is a generator through its own `yield from`.
    assert outer.is_generator
    assert {c.func.attr for c in outer.lambda_calls} == {"random",
                                                         "process"}


def test_class_nested_in_a_function():
    index = parse_source(FIXTURE).index
    outer, local = scope_named(index, "outer"), scope_named(index, "Local")
    method = scope_named(index, "method")
    assert outer.defs == []
    assert local.qualname == "Local" and local.class_name == "Local"
    assert method.qualname == "Local.method"
    assert method.class_name == "Local" and method.is_generator
    assert local.node not in outer.nodes
    assert not any(n is local.node.bases[0] for n in outer.nodes)


def test_qualnames_and_import_maps():
    index = parse_source(FIXTURE).index
    assert scope_named(index, "deepest").qualname == \
        "Owner.start.inner.deepest"
    assert scope_named(index, "start").class_name == "Owner"
    assert scope_named(index, "start").defs == [scope_named(index,
                                                            "inner")]
    assert index.aliases == {"rnd": "random"}
    assert index.from_imports == {"rng": "repro.core.rng"}


def test_pragmas_parsed_once_per_file():
    pragmas = parse_source(
        "x = 1  # continuum-lint: disable=a, b\n"
        "y = 2  # continuum-lint: disable\n"
        "# continuum-lint: disable-file=c\n").index.pragmas
    assert pragmas.lines == {1: {"a", "b"}, 2: None}
    assert pragmas.file_rules == {"c"} and not pragmas.file_all
