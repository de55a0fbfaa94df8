#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a pinned baseline.

Usage:
    bench/check_regression.py CURRENT.json [--baseline bench/BENCH_scheduler.json]
                              [--threshold 2.5]
                              [--counter-min-ratio throughput_qps=0.4]
                              [--min-speedup FAST=REFERENCE:RATIO]

For every benchmark name present in both files, the per-iteration cpu_time
is compared. The check fails (exit 1) if any benchmark is more than
`threshold` times slower than the baseline. A generous default threshold
(2.5x) keeps the check insensitive to runner jitter and hardware deltas
while still catching order-of-magnitude algorithmic regressions (e.g.
losing the DP workspace reuse).

`--counter-min-ratio NAME=RATIO` (repeatable) additionally gates custom
counters where HIGHER is better: for every benchmark that carries counter
NAME in both files, the check fails if current/baseline drops below RATIO.
Benchmarks without the counter in either file are skipped, so the gate
composes with mixed-counter suites.

`--min-speedup FAST=REFERENCE:RATIO` (repeatable) gates a speedup measured
on the same runner, so it holds whatever the runner's speed: every row of
CURRENT named FAST or FAST/<args> must have a REFERENCE/<args> row in
CURRENT, and REFERENCE's cpu_time must be at least RATIO times FAST's. The
baseline file plays no part in this gate.

Benchmarks only present in one file are reported but never fail the check,
so adding or retiring benchmarks does not require touching the baseline in
the same commit.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Returns {name: entry_dict} for per-iteration entries in `path`,
    with cpu_time normalized to microseconds under "cpu_time_us"."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}[unit]
        entry = dict(bench)
        entry["cpu_time_us"] = bench["cpu_time"] * scale
        out[bench["name"]] = entry
    return out


def parse_counter_min_ratio(spec):
    """Parses a NAME=RATIO argument into (name, float_ratio)."""
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=RATIO, got {spec!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ratio in {spec!r} is not a number")


def parse_min_speedup(spec):
    """Parses FAST=REFERENCE:RATIO into (fast, reference, float_ratio)."""
    fast, sep, rest = spec.partition("=")
    reference, sep2, value = rest.rpartition(":")
    if not sep or not sep2 or not fast or not reference:
        raise argparse.ArgumentTypeError(
            f"expected FAST=REFERENCE:RATIO, got {spec!r}")
    try:
        return fast, reference, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ratio in {spec!r} is not a number")


def check_min_speedups(current, specs):
    """Prints every gated pair; returns [(fast_row, message)] failures."""
    failures = []
    for fast, reference, min_ratio in specs:
        rows = sorted(name for name in current
                      if name == fast or name.startswith(fast + "/"))
        if not rows:
            failures.append((fast, "no benchmark rows in the run"))
            continue
        print(f"\nspeedup {fast} over {reference} (min {min_ratio}x):")
        for name in rows:
            ref_name = reference + name[len(fast):]
            if ref_name not in current:
                failures.append((name, f"{ref_name} missing from the run"))
                continue
            ratio = (current[ref_name]["cpu_time_us"] /
                     current[name]["cpu_time_us"])
            flag = ""
            if ratio < min_ratio:
                failures.append((name, f"{ratio:.1f}x over {ref_name}"))
                flag = "  <-- REGRESSION"
            print(f"{name}  {ratio:>8.1f}x{flag}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="benchmark JSON from this run")
    parser.add_argument(
        "--baseline",
        default="bench/BENCH_scheduler.json",
        help="pinned baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.5,
        help="fail if cpu_time exceeds baseline by this factor "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--counter-min-ratio",
        type=parse_counter_min_ratio,
        action="append",
        default=[],
        metavar="NAME=RATIO",
        help="fail if custom counter NAME (higher is better) drops below "
        "RATIO x baseline on any benchmark carrying it (repeatable)",
    )
    parser.add_argument(
        "--min-speedup",
        type=parse_min_speedup,
        action="append",
        default=[],
        metavar="FAST=REFERENCE:RATIO",
        help="fail unless every FAST[/args] row of CURRENT runs at least "
        "RATIO times faster than REFERENCE[/args] in CURRENT (repeatable)",
    )
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)

    common = sorted(set(baseline) & set(current))
    if not common:
        print("error: no benchmark names in common between "
              f"{args.baseline} and {args.current}", file=sys.stderr)
        return 2

    regressions = []
    width = max(len(name) for name in common)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in common:
        base_us = baseline[name]["cpu_time_us"]
        cur_us = current[name]["cpu_time_us"]
        ratio = cur_us / base_us if base_us > 0 else float("inf")
        flag = ""
        if ratio > args.threshold:
            regressions.append((name, ratio))
            flag = "  <-- REGRESSION"
        print(f"{name:<{width}}  {base_us:>10.1f}us  {cur_us:>10.1f}us  "
              f"{ratio:>5.2f}x{flag}")

    counter_regressions = []
    for counter, min_ratio in args.counter_min_ratio:
        gated = [name for name in common
                 if counter in baseline[name] and counter in current[name]]
        if not gated:
            print(f"counter {counter}: no benchmark carries it in both files")
            continue
        print(f"\ncounter {counter} (min ratio {min_ratio}x):")
        for name in gated:
            base = baseline[name][counter]
            cur = current[name][counter]
            ratio = cur / base if base > 0 else float("inf")
            flag = ""
            if ratio < min_ratio:
                counter_regressions.append((name, counter, ratio))
                flag = "  <-- REGRESSION"
            print(f"{name:<{width}}  {base:>12.1f}  {cur:>12.1f}  "
                  f"{ratio:>5.2f}x{flag}")

    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  (new, no baseline)")
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<{width}}  (baseline only, not run)")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold}x:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
    if counter_regressions:
        print(f"\nFAIL: {len(counter_regressions)} counter value(s) below "
              "their minimum ratio:", file=sys.stderr)
        for name, counter, ratio in counter_regressions:
            print(f"  {name} {counter}: {ratio:.2f}x", file=sys.stderr)
    speedup_failures = check_min_speedups(current, args.min_speedup)
    if speedup_failures:
        print(f"\nFAIL: {len(speedup_failures)} speedup gate(s) failed:",
              file=sys.stderr)
        for name, message in speedup_failures:
            print(f"  {name}: {message}", file=sys.stderr)
    if regressions or counter_regressions or speedup_failures:
        return 1

    print(f"\nOK: {len(common)} benchmark(s) within {args.threshold}x "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
