"""continuum-lint: the AST rule engine.

One walk per file, literally: parsing builds the module's
:class:`~repro.analysis.index.ModuleIndex` in a single traversal, and
the engine only reads it. The index's import maps let rules resolve
``rnd.random()`` back to ``random.random`` no matter how the module was
imported; its nodes grouped by type feed each rule the node types it
registered for; its parsed pragmas then filter the collected findings.

Pragma syntax (documented in DESIGN.md):

- ``# continuum-lint: disable=rule-a,rule-b`` on the offending line
  suppresses those rules for that line (``disable`` alone = all rules).
- ``# continuum-lint: disable-file=rule-a`` anywhere in the file
  suppresses the rule file-wide.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.cache import (ParseCache, ParsedFile, parse_source,
                                  python_files)
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, Severity, assign_occurrences
from repro.analysis.index import ModuleIndex


@dataclass
class LintContext:
    """Per-file state shared with every rule during the walk."""

    rel_path: str
    index: ModuleIndex
    lines: list[str]
    config: AnalysisConfig
    findings: list[Finding] = field(default_factory=list)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        self.findings.append(Finding(
            tool="lint",
            rule=rule.rule_id,
            path=self.rel_path,
            line=lineno,
            message=message,
            severity=rule.severity,
            context=self.source_line(lineno),
        ))

    def resolve_call_target(self, node: ast.AST) -> str | None:
        """Dotted origin of a call target, through import aliases.

        ``np.random.default_rng`` with ``import numpy as np`` resolves
        to ``numpy.random.default_rng``; a bare ``randint`` imported via
        ``from random import randint`` resolves to ``random.randint``.
        Returns None for names the imports cannot explain.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = current.id
        parts.reverse()
        if head in self.index.aliases:
            return ".".join([self.index.aliases[head]] + parts)
        if head in self.index.from_imports:
            return ".".join([self.index.from_imports[head]] + parts)
        if not parts and head in ("hash",):  # builtin of interest
            return head
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``severity``/``node_types`` and
    implement :meth:`on_node`; the engine calls it for every AST node
    whose type is listed in ``node_types``.
    """

    rule_id: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    node_types: tuple[type, ...] = ()

    def on_node(self, node: ast.AST, ctx: LintContext) -> None:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} lacks a rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    return dict(_REGISTRY)


class LintEngine:
    """Runs the registered rules over a set of Python files."""

    def __init__(self, config: AnalysisConfig,
                 only_rules: set[str] | None = None,
                 cache: ParseCache | None = None):
        self.config = config
        self.cache = cache if cache is not None else ParseCache()
        self.rules: list[Rule] = []
        for rule_id, cls in sorted(all_rules().items()):
            if only_rules is not None and rule_id not in only_rules:
                continue
            if config.rule_enabled(rule_id):
                self.rules.append(cls())
        #: node type -> the rules registered for it, in rule-id order
        self.dispatch: dict[type, list[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self.dispatch.setdefault(node_type, []).append(rule)

    def run(self, paths: list[str | Path] | None = None) -> list[Finding]:
        """Lint *paths* (files or directories); returns all findings."""
        findings: list[Finding] = []
        for file_path, rel in python_files(self.config.root,
                                           paths or self.config.paths):
            if self.config.is_excluded(rel):
                continue
            findings.extend(self.lint_file(file_path, rel))
        return assign_occurrences(findings)

    def lint_file(self, file_path: Path, rel_path: str) -> list[Finding]:
        parsed = self.cache.parse(file_path)
        if parsed.error is not None and parsed.error[0] == \
                "unreadable file":
            return []
        return self._lint_parsed(parsed, rel_path)

    def lint_source(self, source: str, rel_path: str) -> list[Finding]:
        """Lint a source string (the unit the rule tests exercise)."""
        return self._lint_parsed(parse_source(source), rel_path)

    def _lint_parsed(self, parsed: ParsedFile,
                     rel_path: str) -> list[Finding]:
        lines = parsed.lines
        if parsed.tree is None:
            message, lineno = parsed.error or ("invalid syntax", 1)
            return [Finding(
                tool="lint", rule="syntax-error", path=rel_path,
                line=lineno, message=f"cannot parse: {message}",
                severity=Severity.ERROR,
                context=lines[lineno - 1].strip()
                if 0 < lineno <= len(lines) else "")]
        index = parsed.index
        ctx = LintContext(rel_path=rel_path, index=index, lines=lines,
                          config=self.config)
        for node_type, rules in self.dispatch.items():
            for node in index.by_type.get(node_type, ()):
                for rule in rules:
                    rule.on_node(node, ctx)
        return [f for f in ctx.findings
                if not index.pragmas.suppresses(f)]
