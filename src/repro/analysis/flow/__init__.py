"""Whole-program topic-flow & DES-contract analysis.

The third static-analysis engine (after continuum-lint and the TOSCA
checker): builds a project-wide symbol table and call graph over
``src/repro``, extracts every publish/subscribe site, and checks topic
names, payload schemas, dead topics, orphan subscribers and DES
generator contracts. Pattern matching is shared byte-for-byte with the
runtime bus (:func:`repro.core.events.compile_pattern`).

Entry points: :func:`run_flow` (findings, baseline-compatible) and
:func:`build_topic_graph` / :func:`graph_to_dot` (the
``repro-analysis graph`` subcommand).
"""

from __future__ import annotations

from repro.analysis.cache import ParseCache
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, assign_occurrences
from repro.analysis.flow.des import analyze_des_contracts
from repro.analysis.flow.patterns import (TopicPattern, pattern_from_ast,
                                          patterns_intersect,
                                          segment_violations)
from repro.analysis.flow.symbols import Project
from repro.analysis.flow.topicflow import (PublishSite, SubscribeSite,
                                           analyze_topic_flow,
                                           build_topic_graph,
                                           extract_sites, graph_to_dot)
from repro.analysis.flow.topics import (NAMESPACES, TOPIC_CONTRACTS,
                                        TopicContract, contracts_for)

#: Every rule id the flow engine can emit (for `--rules` validation).
FLOW_RULES = frozenset({
    "flow-topic-name",
    "flow-undeclared-topic",
    "flow-dead-topic",
    "flow-orphan-subscriber",
    "flow-payload-schema",
    "des-generator-not-driven",
    "des-process-not-generator",
    "des-handler-yields",
})


def load_project(config: AnalysisConfig,
                 cache: ParseCache | None = None) -> Project:
    """The whole-program symbol table for the configured flow paths."""
    return Project.load(config.root, config.flow_paths, cache)


def run_flow(config: AnalysisConfig,
             cache: ParseCache | None = None,
             only_rules: set[str] | None = None,
             project: Project | None = None) -> list[Finding]:
    """Run every flow analysis; returns occurrence-numbered findings.

    Respects the same ``# continuum-lint: disable=...`` pragmas as the
    lint engine (both engines report on the same source lines) and the
    ``disable`` list in ``[tool.repro-analysis]``.
    """
    if project is None:
        project = load_project(config, cache)
    findings = analyze_topic_flow(project) + analyze_des_contracts(project)
    findings = [f for f in findings if config.rule_enabled(f.rule)
                and (only_rules is None or f.rule in only_rules)]
    pragmas = {info.rel_path: info.index.pragmas
               for info in project.modules.values()}
    return assign_occurrences([
        f for f in findings
        if f.path not in pragmas or not pragmas[f.path].suppresses(f)])


__all__ = [
    "FLOW_RULES", "NAMESPACES", "TOPIC_CONTRACTS",
    "AnalysisConfig", "Finding", "ParseCache", "Project",
    "PublishSite", "SubscribeSite", "TopicContract", "TopicPattern",
    "analyze_des_contracts", "analyze_topic_flow", "build_topic_graph",
    "contracts_for", "extract_sites", "graph_to_dot", "load_project",
    "pattern_from_ast", "patterns_intersect", "run_flow",
    "segment_violations",
]
