"""DES generator-contract rules.

The simulator's processes are generator functions driven by the event
loop; resilience policies (``repro.chaos.policies``) wrap process
bodies as generators that must be delegated to with ``yield from``.
Both idioms fail silently when misused — calling a generator function
without driving it creates a generator object and throws it away, and
``yield``-ing one suspends the process on a non-Event. These rules walk
every function through the project symbol table (so ``policy.call`` is
recognized across module boundaries via the call-graph resolution):

- ``des-generator-not-driven`` — an expression statement that calls a
  project generator function and discards the generator, or a ``yield``
  whose value is a generator call (``yield policy.call(...)`` instead
  of ``yield from policy.call(...)``).
- ``des-process-not-generator`` — ``sim.process(fn(...))`` where *fn*
  resolves to a concrete non-generator: the simulator would reject (or
  no-op) the process at runtime, many sim-seconds after the bug.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.symbols import FunctionInfo, ModuleInfo, Project

#: Terminal receiver names that make `x.process(...)` a simulator call.
_SIM_RECEIVERS = frozenset({"sim", "_sim", "simulator"})


def _finding(rule: str, module: ModuleInfo, node: ast.AST,
             message: str) -> Finding:
    lineno = getattr(node, "lineno", 1)
    context = module.lines[lineno - 1].strip() \
        if 0 < lineno <= len(module.lines) else ""
    return Finding(tool="flow", rule=rule, path=module.rel_path,
                   line=lineno, message=message,
                   severity=Severity.ERROR, context=context)


def _resolved_generator_call(project: Project, node: ast.AST,
                             module: ModuleInfo,
                             class_name: str | None) -> FunctionInfo | None:
    """The generator FunctionInfo *node* calls, when it provably is one."""
    if not isinstance(node, ast.Call):
        return None
    target = project.resolve_call(node, module, class_name)
    if target is not None and target.is_generator \
            and not target.is_abstract:
        return target
    return None


def _may_return_generator(project: Project, fn: FunctionInfo,
                          depth: int = 0,
                          seen: frozenset[str] = frozenset()) -> bool:
    """Could calling *fn* evaluate to a generator object?

    True for generator functions, and for plain functions whose return
    value the analysis cannot prove generator-free — e.g.
    ``return policy.call(factory)`` (a resolved generator call) or
    ``return factory()`` (unresolvable). Only a function whose every
    ``return`` is provably non-generator (or that never returns a
    value) is safely False; soundness over recall.
    """
    if fn.is_generator:
        return True
    if depth > 4 or fn.qualname in seen:
        return True  # recursion / depth bail-out: assume the worst
    module = project.modules.get(fn.module)
    if module is None:
        return True
    for node in fn.scope.nodes:
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, _NON_GENERATOR_EXPRS):
            continue
        if isinstance(value, ast.Call):
            target = project.resolve_call(value, module, fn.class_name)
            if target is None or target.is_abstract:
                return True
            if _may_return_generator(project, target, depth + 1,
                                     seen | {fn.qualname}):
                return True
            continue
        return True  # a name/attribute could hold a generator
    return False


#: Expression types whose value is never a generator object (note that
#: ast.GeneratorExp is deliberately NOT here).
_NON_GENERATOR_EXPRS = (ast.Constant, ast.BinOp, ast.UnaryOp,
                        ast.Compare, ast.JoinedStr, ast.Dict, ast.List,
                        ast.Tuple, ast.Set, ast.ListComp, ast.SetComp,
                        ast.DictComp)


def _sim_process_arg(call: ast.Call) -> ast.expr | None:
    """The process argument of a ``sim.process(...)`` call, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "process":
        return None
    receiver = func.value
    terminal = receiver.attr if isinstance(receiver, ast.Attribute) \
        else receiver.id if isinstance(receiver, ast.Name) else None
    if terminal not in _SIM_RECEIVERS:
        return None
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("process", "generator", "gen"):
            return keyword.value
    return None


def _function_units(project: Project):
    """(qualname, class_name, scope, module) for every function —
    including defs nested inside other functions (process bodies and
    bus handlers are frequently closures)."""
    for fn in project.all_functions():
        module = project.modules[fn.module]
        worklist = [fn.scope]
        while worklist:
            scope = worklist.pop()
            yield f"{fn.module}:{scope.qualname}", fn.class_name, scope, \
                module
            worklist.extend(scope.defs)


def analyze_des_contracts(project: Project) -> list[Finding]:
    """All DES-contract findings for *project*."""
    findings: list[Finding] = []
    for qualname, class_name, scope, module in _function_units(project):
        for node in scope.nodes:
            # Expression statement discarding a fresh generator.
            if isinstance(node, ast.Expr):
                target = _resolved_generator_call(
                    project, node.value, module, class_name)
                if target is not None:
                    findings.append(_finding(
                        "des-generator-not-driven", module, node,
                        f"{qualname} calls generator "
                        f"{target.qualname} and discards the result; "
                        f"drive it with `yield from` or "
                        f"`sim.process(...)`"))
                continue
            # `yield gen(...)`: suspends on a generator, not an Event.
            if isinstance(node, ast.Yield) and node.value is not None:
                target = _resolved_generator_call(
                    project, node.value, module, class_name)
                if target is not None:
                    findings.append(_finding(
                        "des-generator-not-driven", module, node,
                        f"{qualname} yields generator "
                        f"{target.qualname}; delegate with "
                        f"`yield from` so it actually runs"))
                continue
            # sim.process(fn(...)) with a non-generator fn.
            if isinstance(node, ast.Call):
                arg = _sim_process_arg(node)
                if isinstance(arg, ast.Call):
                    target = project.resolve_call(arg, module,
                                                  class_name)
                    if target is not None and not target.is_abstract \
                            and not _may_return_generator(project,
                                                          target):
                        findings.append(_finding(
                            "des-process-not-generator", module, node,
                            f"{qualname} passes non-generator "
                            f"{target.qualname} to sim.process(); "
                            f"processes must be generator functions"))
    return findings
