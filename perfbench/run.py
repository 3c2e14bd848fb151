#!/usr/bin/env python3
"""Run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_driver (and the tolerance library it links) from source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own process, relays its output, and exits with its status:
non-zero when an output check failed.  The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"}.
Build logs go to stderr.  A traced run (--trace 1) also writes its sampled
spans to <build dir>/traces/<workload>-seed<n>.jsonl.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("service-peak", "service-lan", "level2-resolve", "scenario-catalog")
# The run must end within 180 s; the first run also builds (up to 900 s).
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then (re)build perfbench_driver; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def main(argv):
    args = parse_args(argv)
    sources = ("CMakeLists.txt", "src/CMakeLists.txt", "include/tolerance")
    missing = [s for s in sources if not (ROOT / s).exists()]
    if missing:
        print("perfbench: the tolerance sources are not in this checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(out / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        spans = traces / f"{args.workload}-seed{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
        cmd += ["--trace-out", str(spans)]
    try:
        # On timeout, subprocess.run kills perfbench_driver and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print("perfbench: perfbench_driver printed no result", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or result["correct"] is not True:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
