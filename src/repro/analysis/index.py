"""The per-module index: one traversal of the tree that every engine reads.

:func:`build_index` walks a parsed module exactly once and records what
the lint rules and the flow analyses need, so neither re-walks the tree:

- the import maps (``import numpy as np`` gives ``np -> numpy``; ``from
  random import randint as ri`` gives ``ri -> random.randint``; relative
  imports are left to the caller);
- every node grouped by type, each group in :func:`ast.walk` order (the
  lint dispatch reads these), expression contexts left out;
- one :class:`Scope` per module, class and ``def``, nested ones
  included;
- the ``# continuum-lint:`` suppression pragmas.

:func:`repro.analysis.cache.parse_source` builds the index next to the
tree, so the parse cache shares it between lint and flow and persists
it with the tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

_PRAGMA = re.compile(
    r"#\s*continuum-lint:\s*(disable(?:-file)?)\s*(?:=\s*([\w,\-\s]+))?")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Load/Store/Del: shared singletons that no engine reads; not indexed.
_CONTEXTS = (ast.Load, ast.Store, ast.Del)


@dataclass
class Scope:
    """A module, class or ``def``, and the nodes of its own scope.

    ``nodes`` prunes nested defs, lambdas and classes, and lists the rest
    in the order of a stack walk from the body (last statement first).
    Calls inside the scope's lambdas are not its own nodes and not its
    call-graph edges, but they are its publish/subscribe sites, so they
    are kept apart in ``lambda_calls``.
    """

    node: ast.AST
    qualname: str  # "<module>", "Cls", "Cls.meth", "func.inner"
    class_name: str | None  # innermost class; a class scope's own name
    nodes: list[ast.AST] = field(default_factory=list)
    defs: list[Scope] = field(default_factory=list)  # directly nested
    calls: list[ast.Call] = field(default_factory=list)  # post-order
    lambda_calls: list[ast.Call] = field(default_factory=list)
    is_generator: bool = False  # a yield among the own nodes


@dataclass
class Pragmas:
    """A file's ``# continuum-lint: disable[-file][=rules]`` comments."""

    lines: dict[int, set[str] | None]  # lineno -> rules (None = all)
    file_rules: set[str]
    file_all: bool

    @classmethod
    def parse(cls, lines: list[str]) -> Pragmas:
        pragmas = cls({}, set(), False)
        for lineno, line in enumerate(lines, start=1):
            match = _PRAGMA.search(line)
            if not match:
                continue
            kind, rules_text = match.groups()
            rules = None
            if rules_text:
                rules = {r.strip() for r in rules_text.split(",")
                         if r.strip()}
            if kind == "disable":
                pragmas.lines[lineno] = rules
            elif rules is None:  # disable-file
                pragmas.file_all = True
            else:
                pragmas.file_rules |= rules
        return pragmas

    def suppresses(self, finding: Finding) -> bool:
        if self.file_all or finding.rule in self.file_rules:
            return True
        if finding.line in self.lines:
            rules = self.lines[finding.line]
            return rules is None or finding.rule in rules
        return False


@dataclass
class ModuleIndex:
    """Everything the engines read from one module."""

    module: Scope
    scopes: dict[ast.AST, Scope]  # module/class/def node -> its scope
    by_type: dict[type, list[ast.AST]]
    aliases: dict[str, str]  # alias -> module
    from_imports: dict[str, str]  # local name -> dotted origin
    pragmas: Pragmas


def build_index(tree: ast.Module, lines: list[str]) -> ModuleIndex:
    """Index *tree* in one stack walk."""
    module = Scope(tree, "<module>", None)
    scopes: dict[ast.AST, Scope] = {tree: module}
    levels: dict[tuple[type, int], list[ast.AST]] = {(ast.Module, 0): [tree]}
    # (node, depth, scope owning it, scope its calls are sites of); the
    # header of a def or class (decorators, defaults, bases) is neither.
    stack = [(child, 1, module, module)
             for child in ast.iter_child_nodes(tree)]
    while stack:
        node, depth, own, caller = stack.pop()
        kind = type(node)
        if kind in _CONTEXTS:
            continue
        levels.setdefault((kind, depth), []).append(node)
        if kind in _SCOPES:
            if kind is ast.ClassDef:
                inner = Scope(node, node.name, node.name)
            else:
                inner = Scope(node, node.name if own is module
                              else f"{own.qualname}.{node.name}",
                              own.class_name)
                own.defs.append(inner)
            scopes[node] = inner
            body = set(map(id, node.body))
            for child in ast.iter_child_nodes(node):
                scope = inner if id(child) in body else None
                stack.append((child, depth + 1, scope, scope))
            continue
        if kind is ast.Lambda:
            own = None
        elif own is not None:
            own.nodes.append(node)
            if kind is ast.Call:
                own.calls.append(node)
            elif kind is ast.Yield or kind is ast.YieldFrom:
                own.is_generator = True
        elif kind is ast.Call and caller is not None:
            caller.lambda_calls.append(node)
        for child in ast.iter_child_nodes(node):
            stack.append((child, depth + 1, own, caller))
    for scope in scopes.values():
        scope.calls.reverse()
        scope.lambda_calls.reverse()
    by_type: dict[type, list[ast.AST]] = {}
    for kind, depth in sorted(levels, key=lambda key: key[1]):
        # The stack walk meets each depth's nodes right to left.
        by_type.setdefault(kind, []).extend(reversed(levels[kind, depth]))
    aliases: dict[str, str] = {}
    for node in by_type.get(ast.Import, ()):
        for alias in node.names:
            aliases[alias.asname or alias.name.split(".")[0]] = alias.name
    from_imports: dict[str, str] = {}
    for node in by_type.get(ast.ImportFrom, ()):
        if node.module and node.level == 0:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return ModuleIndex(module, scopes, by_type, aliases, from_imports,
                       Pragmas.parse(lines))
