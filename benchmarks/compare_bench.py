#!/usr/bin/env python
"""Slim, merge and compare pytest-benchmark JSON exports.

The benchmark trajectory of this repo is a sequence of committed JSON
files (``BENCH_PR*.json``): each one pairs a *baseline* run (captured
before a performance change) with the *current* run on identical
benchmark code, so speedup claims stay reproducible from the file
alone.  Raw pytest-benchmark exports carry every timing sample and are
megabytes large; this tool keeps the summary statistics and the
``extra_info`` reproduction facts only.

Subcommands:

``merge``
    slim one or more raw exports into a single committed baseline file;

``compare``
    join a baseline with a current run by benchmark ``fullname``,
    compute median speedups, verify that the reproduction facts in
    ``extra_info`` are identical (the ``kernel`` counter block is
    excluded -- cache statistics legitimately drift between kernel
    versions, reproduced facts must not), and write the combined
    report.  ``--require-speedup S --require-count N`` turns the
    report into a gate: exit nonzero unless at least N benchmarks got
    at least S times faster.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: extra_info keys that hold observability counters or measured
#: timing ratios, not reproduction facts; excluded from the
#: fact-equality check (they legitimately vary between runs).
COUNTER_KEYS = (
    "kernel",
    "speedup",
    "sharing_speedup",
    "preflight_fraction",
    # provenance tag of the committed pre-engine evaluator baseline
    # (BENCH_PR3), not a reproduced fact
    "backend",
)

#: per-benchmark stats kept in slimmed records (raw sample data dropped).
STAT_KEYS = (
    "min",
    "max",
    "mean",
    "stddev",
    "median",
    "iqr",
    "q1",
    "q3",
    "rounds",
    "iterations",
    "ops",
)


def slim_benchmark(record: dict) -> dict:
    """One benchmark record without the per-sample timing data."""
    stats = record.get("stats", {})
    return {
        "name": record.get("name"),
        "fullname": record.get("fullname"),
        "group": record.get("group"),
        "params": record.get("params"),
        "extra_info": record.get("extra_info", {}),
        "stats": {key: stats[key] for key in STAT_KEYS if key in stats},
    }


def slim_export(raw: dict) -> dict:
    """A whole pytest-benchmark export, slimmed."""
    machine = raw.get("machine_info", {})
    return {
        "datetime": raw.get("datetime"),
        "machine_info": {
            key: machine.get(key)
            for key in ("python_version", "python_implementation", "machine", "system")
        },
        "benchmarks": [slim_benchmark(b) for b in raw.get("benchmarks", [])],
    }


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def facts(extra_info: dict) -> dict:
    """The reproduction facts of a benchmark (counter blocks removed)."""
    return {
        key: value
        for key, value in extra_info.items()
        if key not in COUNTER_KEYS
    }


def cmd_merge(args: argparse.Namespace) -> int:
    merged: dict | None = None
    seen: set[str] = set()
    for path in args.inputs:
        export = slim_export(load(path))
        if merged is None:
            merged = export
            seen = {b["fullname"] for b in export["benchmarks"]}
            continue
        for bench in export["benchmarks"]:
            if bench["fullname"] in seen:
                print(
                    f"warning: duplicate benchmark {bench['fullname']}"
                    f" in {path}, keeping first",
                    file=sys.stderr,
                )
                continue
            seen.add(bench["fullname"])
            merged["benchmarks"].append(bench)
    if merged is None:
        print("error: no input files", file=sys.stderr)
        return 2
    merged["benchmarks"].sort(key=lambda b: b["fullname"])
    Path(args.output).write_text(json.dumps(merged, indent=1) + "\n")
    print(f"wrote {args.output}: {len(merged['benchmarks'])} benchmarks")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = slim_export(load(args.baseline))
    current = slim_export(load(args.current))
    base_by_name = {b["fullname"]: b for b in baseline["benchmarks"]}

    rows = []
    fact_mismatches = []
    for bench in sorted(current["benchmarks"], key=lambda b: b["fullname"]):
        base = base_by_name.get(bench["fullname"])
        row = {
            "fullname": bench["fullname"],
            "group": bench["group"],
            "current": bench,
        }
        if base is not None:
            row["baseline"] = base
            base_median = base["stats"].get("median")
            cur_median = bench["stats"].get("median")
            if base_median and cur_median:
                row["speedup"] = round(base_median / cur_median, 3)
            row["facts_match"] = facts(base["extra_info"]) == facts(
                bench["extra_info"]
            )
            if not row["facts_match"]:
                fact_mismatches.append(bench["fullname"])
        rows.append(row)

    compared = [r for r in rows if "speedup" in r]
    fast_enough = [
        r for r in compared if r["speedup"] >= args.require_speedup
    ]
    report = {
        "baseline": {
            "path": args.baseline,
            "datetime": baseline["datetime"],
            "machine_info": baseline["machine_info"],
        },
        "current": {
            "path": args.current,
            "datetime": current["datetime"],
            "machine_info": current["machine_info"],
        },
        "summary": {
            "benchmarks": len(rows),
            "compared": len(compared),
            "fact_mismatches": fact_mismatches,
            "require_speedup": args.require_speedup,
            "require_count": args.require_count,
            "meeting_threshold": sorted(
                (r["fullname"] for r in fast_enough),
            ),
        },
        "benchmarks": rows,
    }
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")

    for row in compared:
        marker = "*" if row in fast_enough else " "
        print(
            f"{marker} {row['speedup']:7.2f}x"
            f"  {row['current']['stats']['median'] * 1e6:10.1f}us"
            f"  {row['fullname']}"
        )
    print(
        f"wrote {args.output}: {len(compared)} compared,"
        f" {len(fast_enough)} at >= {args.require_speedup}x"
    )
    if fact_mismatches:
        print(
            "error: extra_info reproduction facts changed for: "
            + ", ".join(fact_mismatches),
            file=sys.stderr,
        )
        return 1
    if len(fast_enough) < args.require_count:
        print(
            f"error: required {args.require_count} benchmarks at"
            f" >= {args.require_speedup}x, got {len(fast_enough)}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="slim raw exports into one baseline file")
    p.add_argument("inputs", nargs="+", help="raw pytest-benchmark JSON files")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("compare", help="compare a run against a baseline")
    p.add_argument("--baseline", required=True)
    p.add_argument("--current", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--require-speedup", type=float, default=0.0)
    p.add_argument("--require-count", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
