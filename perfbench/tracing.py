"""Span recording for the traced benchmark run.

The benchmark wraps calls into each layer's public functions (see
``layers.py``). Every wrapped call becomes a span: name, start, end,
parent span and op id, kept in memory in flat arrays and written out as
JSONL when the run ends. Per-layer self time is computed afterwards from
the spans: a span's duration minus the part of it its children cover.

Relay taps run ~15 times per publish on ``metro_100k`` (1.9M calls an
op), far too many to keep one span each. They are *folded*: each call
adds its duration to the enclosing span's ``folded`` time and to a
per-name total, so the parent's self time still excludes them.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable


class SpanRecorder:
    """In-memory spans in column arrays, plus folded leaves and counters."""

    clock = staticmethod(time.perf_counter_ns)

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.folded = array("q")
        self.stack: list[int] = []
        self.current_op = 0
        #: folded leaf name -> [calls, ns, useful calls]
        self.leaves: dict[str, list[int]] = {}
        #: counter name -> total over every traced op
        self.counters: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn: Callable, name: str) -> Callable:
        """*fn* recording one span named *name* per call."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, folded = self.parent, self.op, self.folded
        stack = self.stack
        clock = self.clock
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(recorder.current_op)
            folded.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def fold(self, fn: Callable, name: str,
             probe: Callable[[], int] | None = None) -> Callable:
        """*fn* charged to the enclosing span as folded time. With a
        *probe*, a call is useful when the probe's value changed."""
        totals = self.leaves.setdefault(name, [0, 0, 0])
        folded, stack, clock = self.folded, self.stack, self.clock

        def leaf(*args: Any) -> Any:
            before = probe() if probe is not None else 0
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            totals[0] += 1
            totals[1] += dt
            if probe is not None and probe() != before:
                totals[2] += 1
            if stack:
                folded[stack[-1]] += dt
            return result

        leaf.__wrapped__ = fn
        return leaf

    def spans(self) -> Iterable[tuple[int, int, int, int, int, int]]:
        """(name id, start, end, parent, op, folded) per span."""
        return zip(self.name, self.start, self.end, self.parent, self.op,
                   self.folded)

    def write_jsonl(self, path: Path) -> int:
        """Write a header, one line per span, one per folded leaf and
        one with the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"names": self.names,
                                  "columns": ["id", "name", "start_ns",
                                              "end_ns", "parent", "op",
                                              "folded_ns"]}) + "\n")
            for idx, row in enumerate(self.spans()):
                out.write(json.dumps([idx, *row]) + "\n")
            for name, (calls, ns, useful) in sorted(self.leaves.items()):
                out.write(json.dumps({"leaf": name, "calls": calls,
                                      "ns": ns, "useful": useful}) + "\n")
            out.write(json.dumps({"counters": self.counters},
                                 sort_keys=True) + "\n")
        return len(self)


def covered(start: int, end: int,
            children: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of *children*
    intervals, each clipped to the parent; overlaps count once."""
    total = 0
    run_start = run_end = None
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, start), min(c_end, end)
        if c_end <= c_start:
            continue
        if run_end is None or c_start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = c_start, c_end
        elif c_end > run_end:
            run_end = c_end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[tuple[int, int, int, int]]) -> list[int]:
    """Self time of each ``(start, end, parent index, folded)`` span:
    duration minus the union of its children's intervals minus its
    folded leaf time, never below zero."""
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (start, end, _, folded) in enumerate(spans):
        kids = children.get(idx)
        inner = covered(start, end, kids) if kids else 0
        out.append(max(0, end - start - inner - folded))
    return out


def summarize(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``."""
    rows = [(start, end, parent, folded)
            for _, start, end, parent, _, folded in recorder.spans()]
    selfs = self_times(rows)
    out: dict[str, dict[str, float]] = {}
    for nid, (start, end, _, _), self_ns in zip(recorder.name, rows,
                                                 selfs):
        row = out.setdefault(recorder.names[nid],
                             {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_ns / 1e9
        row["total_s"] += (end - start) / 1e9
    for name, (calls, ns, useful) in recorder.leaves.items():
        out[name] = {"calls": calls, "self_s": ns / 1e9,
                     "total_s": ns / 1e9, "useful": useful}
    return out


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        # Read the class/module dict, not getattr: restoring must put
        # back exactly what was there (a function, not a bound method).
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
