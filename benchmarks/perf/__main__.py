"""CLI for the perf harness.

    python -m benchmarks.perf                     # full run, writes BENCH_perf.json
    python -m benchmarks.perf --quick             # CI-sized run
    python -m benchmarks.perf --check             # exit 1 on >3x regression
    python -m benchmarks.perf --save-baseline     # refresh the committed baseline
    python -m benchmarks.perf --only bus.publish.exact.1000
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.perf.harness import (
    compare,
    format_table,
    load_results,
    measure_pair_ratio,
    run_all,
    write_results,
)

_REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = _REPO_ROOT / "BENCH_perf.json"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: The mid-``**`` literal guards must reject non-matching patterns at
#: least this many times faster than the raw NFA walk.
MIN_MIDGLOB_SPEEDUP = 3.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Hot-path microbenchmarks (bus, DES kernel, trace, "
                    "MAPE, swarm placement).")
    parser.add_argument("--quick", action="store_true",
                        help="smaller op counts and fewer repeats (CI)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where to write BENCH_perf.json")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="baseline JSON to compare against")
    parser.add_argument("--save-baseline", action="store_true",
                        help="write results to the baseline path instead")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a scenario regresses more than "
                             "--max-regression vs the baseline")
    parser.add_argument("--max-regression", type=float, default=3.0,
                        help="allowed slowdown factor in --check mode "
                             "(default 3.0)")
    parser.add_argument("--max-span-overhead", type=float, default=1.3,
                        help="allowed obs.span.publish enabled/disabled "
                             "ratio in --check mode (default 1.3)")
    parser.add_argument("--only", action="append", default=None,
                        help="run only the named scenario (repeatable)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    print(f"benchmarks.perf: {mode} run")
    results = run_all(quick=args.quick, only=args.only)
    if not results:
        print("no scenarios matched", file=sys.stderr)
        return 2

    if args.save_baseline:
        write_results(results, args.baseline, args.quick)
        print(f"\nbaseline written to {args.baseline}")
        return 0

    write_results(results, args.out, args.quick)
    print(f"\nresults written to {args.out}")

    baseline_path = Path(args.baseline)
    if baseline_path.exists():
        rows, regressions = compare(results, load_results(baseline_path),
                                    max_regression=args.max_regression)
        if rows:
            print(f"\nspeedup vs baseline ({baseline_path.name}):")
            print(format_table(rows))
        if args.check and regressions:
            print(f"\nREGRESSION: {', '.join(regressions)} slower than "
                  f"{args.max_regression:g}x baseline", file=sys.stderr)
            return 1
    elif args.check:
        print(f"baseline {baseline_path} missing; cannot --check",
              file=sys.stderr)
        return 2

    # Same-run ratio gates (no committed baseline needed), re-measured
    # as interleaved pairs so machine-wide drift lands on both sides of
    # every round — observability cannot silently eat dispatch-path
    # wins, and a background process cannot fake a regression. Each
    # gate holds the cost ratio a/b at or below its limit.
    gates = [
        ("span overhead", "SPAN OVERHEAD",
         "obs.span.publish.enabled", "obs.span.publish.disabled",
         "enabled", "disabled", args.max_span_overhead),
        # Relaying spans across zones (capture, ship, resume, child
        # span per delivery) must stay a thin layer over the bare relay.
        ("cross-shard span propagation overhead",
         "CROSS-SHARD SPAN OVERHEAD",
         "obs.span.crossshard", "bus.publish.crossshard",
         "with spans", "bare relay", args.max_span_overhead),
        ("midglob guard cost vs the raw NFA walk",
         "MIDGLOB GUARD SPEEDUP",
         "bus.match.midglob.guarded", "bus.match.midglob.reference",
         "guarded", "raw NFA walk", 1.0 / MIN_MIDGLOB_SPEEDUP),
    ]
    for label, fail_label, name_a, name_b, desc_a, desc_b, limit in gates:
        if name_a not in results or name_b not in results:
            continue
        ratio, a_ns, b_ns = measure_pair_ratio(
            name_a, name_b, quick=args.quick, target=limit)
        print(f"\n{label}: {ratio:.2f}x "
              f"({desc_a} {a_ns:,.0f} ns/op vs "
              f"{desc_b} {b_ns:,.0f} ns/op, "
              f"limit {limit:.2f}x)")
        if args.check and ratio > limit:
            print(f"\n{fail_label}: {ratio:.2f}x exceeds "
                  f"{limit:.2f}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
