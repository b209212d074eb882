#!/usr/bin/env python3
"""Print per-record deltas of perf-bench timing records against baselines.

Every perf bench writes BENCH_<name>.json into its working directory: a
list of {name, value, unit} records. bench/baselines/ holds the records of
a Release run committed with the code. This script pairs each baseline
file with the current run's file of the same name and prints, per record,
the baseline value, the current value and the relative change, so drift
shows up on the day it happens.

It is informational: it always exits 0 once it has printed, whatever the
deltas are. Timings from different hosts differ; read a delta against the
host the baseline names in CHANGES.md, and gate nothing on it.

Usage:
  scripts/bench_compare.py [--current DIR]

  --current   directory holding this run's BENCH_*.json (default:
              build-release, where the benches land when run from there)

The baselines are read from bench/baselines next to this script's folder.
"""

import argparse
import json
import pathlib
import sys

BASELINE_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "baselines"


def load_records(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return {r["name"]: (float(r["value"]), r.get("unit", "")) for r in data["records"]}


def format_delta(base, cur):
    if base == 0.0:
        return "n/a" if cur == 0.0 else "new value"
    return f"{100.0 * (cur - base) / abs(base):+.1f}%"


def compare(baseline_path, current_path):
    print(f"== {baseline_path.name}")
    if not current_path.exists():
        print(f"   no current record at {current_path}")
        return
    base = load_records(baseline_path)
    cur = load_records(current_path)
    width = max((len(n) for n in list(base) + list(cur)), default=4)
    print(f"   {'record':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>9}  unit")
    for name, (bval, unit) in base.items():
        if name in cur:
            cval = cur[name][0]
            print(f"   {name:<{width}}  {bval:>12.6g}  {cval:>12.6g}  "
                  f"{format_delta(bval, cval):>9}  {unit}")
        else:
            print(f"   {name:<{width}}  {bval:>12.6g}  {'missing':>12}  {'':>9}  {unit}")
    for name, (cval, unit) in cur.items():
        if name not in base:
            print(f"   {name:<{width}}  {'new':>12}  {cval:>12.6g}  {'':>9}  {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default="build-release")
    args = parser.parse_args()

    current_dir = pathlib.Path(args.current)
    baselines = sorted(BASELINE_DIR.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_compare: no baselines in {BASELINE_DIR}", file=sys.stderr)
        return 0
    for baseline_path in baselines:
        try:
            compare(baseline_path, current_dir / baseline_path.name)
        except (OSError, ValueError, KeyError) as e:
            print(f"   unreadable record: {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
