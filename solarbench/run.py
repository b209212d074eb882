#!/usr/bin/env python3
"""Build the solarnet benchmark from this checkout's sources and run one workload.

usage (from the root of the checkout):
    python3 solarbench/run.py --workload report_cold|campaign|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 solarbench/run.py --selftest

The build goes to .bench_build/solarbench (CMake, Release); its output goes
to stderr. The benchmark's stdout passes through: a human-readable table,
then, as the last line, one JSON object with the metrics that BENCHMARK.json
lists for the mode (end_to_end for --trace 0, per_layer for --trace 1). The
metric names are checked against BENCHMARK.json; a mismatch, a failed build
or a failed run exits non-zero without a result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "solarbench")
DONKI = os.path.join(ROOT, "examples", "data", "gannon_2024_donki.json")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "solarbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "solarbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"solarbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode
    if not args.workload or not os.path.exists(DONKI):
        print("solarbench: --workload and examples/data are required",
              file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--donki", DONKI]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("solarbench: run timed out", file=sys.stderr)
        return 2
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"solarbench: run failed ({proc.returncode})", file=sys.stderr)
        return proc.returncode or 2
    try:
        result = json.loads(lines[-1])
        got = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write(out)
        print("solarbench: no result line", file=sys.stderr)
        return 2
    want = expected_metrics(args.trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"solarbench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - got)}, unexpected {sorted(got - want)}",
              file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
