"""End-to-end benchmark of the MYRTUS continuum reproduction.

    python3 perfbench/run.py --workload chaos_full --seed 3 --seconds 20 \
        --trace 0

Workloads (all closed-loop, one client, one process):

- ``metro_100k.seq`` -- ``ScaleConfig.metro_100k()`` on the sequential
  shard backend; one op is build + run + trace digest + metrics digest.
- ``metro_100k.x2`` -- the same on the two-worker process backend.
- ``chaos_full`` -- ``run_scenario(seed, "full")`` + ``score_run``.
- ``analysis_check`` -- ``repro-analysis --check --no-cache`` over a
  project generated from the seed (``genproject.py``).

Every op's output is checked (pinned digests and scorecards in
``pinned.json``; the planted findings of the generated project). A
failed op counts in ``failed`` instead of stopping the run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops, prints the per-layer metrics and writes the
spans to ``.perfbench/spans-<workload>-<seed>.jsonl``. The last stdout
line is the result object; the line before it stamps the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 5


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(workload: str, seed: int) -> dict:
    import numpy
    return {"nproc": _nproc(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "commit": _git_commit(),
            "workload": workload, "seed": seed}


def percentile(values: list[float], pct: int) -> float:
    """The *pct*-th percentile (exclusive method, as ``statistics``)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def _load_pinned() -> dict:
    return json.loads((HERE / "pinned.json").read_text())


def _build(workload: str, seed: int):
    import workloads
    return workloads.build(workload, seed, _load_pinned(), WORKDIR)


def _setup_times(workload: str, seed: int) -> list[float]:
    """Wall seconds from process start to a built workload, measured on
    fresh interpreters (imports and one-off builds included)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", workload,
                 "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe.stdout.read()
            code = probe.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return times


def _run_ops(work, seconds: float, traced: bool):
    """Closed loop until *seconds* pass; in traced mode even ops run
    untraced and odd ops traced. Returns (records, recorder)."""
    import layers
    from tracing import SpanRecorder

    coordinator_only = getattr(work, "workers", 0) > 0
    recorder = SpanRecorder() if traced else None
    records = []  # (wall_s, cpu_s, ok, traced)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        with_trace = traced and i % 2 == 1
        gc.collect()
        patches = None
        if with_trace:
            recorder.current_op = i
            patches = layers.install(recorder, coordinator_only)
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            ok = work.op(i, profile=with_trace)
        except Exception:  # one failed op must not end the run
            traceback.print_exc(file=sys.stderr)
            ok = False
        t1 = time.perf_counter()
        c1 = _cpu_s()
        if patches is not None:
            patches.restore()
        if not ok:
            print(f"op {i} failed its output check", file=sys.stderr)
        if with_trace and ok:
            for name, value in work.counters().items():
                recorder.count(name, value)
        records.append((t1 - t0, c1 - c0, ok, with_trace))
        i += 1
        if t1 >= deadline and (not traced or i >= 2):
            return records, recorder


def main(argv: list[str] | None = None) -> int:
    import workloads as catalogue

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=catalogue.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    workers = catalogue.WORKERS[args.workload]
    if workers > _nproc():
        print(f"{args.workload} needs {workers} workers but nproc is "
              f"{_nproc()}; refusing to run", file=sys.stderr)
        return 3

    setup = _setup_times(args.workload, args.seed)
    work = _build(args.workload, args.seed)
    records, recorder = _run_ops(work, args.seconds, bool(args.trace))

    failed = sum(1 for r in records if not r[2])
    attempted = len(records)
    if args.trace:
        import layers
        plain = [r[0] for r in records if not r[3]]
        traced = [r[0] for r in records if r[3]]
        overhead = statistics.median(traced) / statistics.median(plain)
        values = layers.layer_metrics(recorder, len(traced), overhead,
                                      failed / attempted)
        out = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write_jsonl(out)
        print(f"wrote {len(recorder)} spans to {out}", file=sys.stderr)
    else:
        walls = [r[0] for r in records]
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s.p50": (statistics.median(walls), "s"),
            "op_s.p90": (percentile(walls, 90), "s"),
            "cpu_s.p50": (statistics.median(r[1] for r in records), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    print(json.dumps({"env": _environment(args.workload, args.seed)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()}}))
    return 0


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    sys.exit(main())
