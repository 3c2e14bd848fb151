#!/usr/bin/env python3
"""Bench-regression gate: compare fresh bench JSON against committed baselines.

Usage:
    check_bench.py --consensus BENCH_consensus.json [--runtime BENCH_runtime.json]
                   [--overload BENCH_overload.json]
                   [--controller BENCH_controller.json]
                   [--chaos BENCH_chaos.json]
                   [--baseline-dir bench/baselines] [--tolerance 0.10]

Four kinds of checks, matched to what each lane can promise:

* BENCH_consensus.json comes from the deterministic simulated-time lane, so
  its throughput numbers are reproducible modulo the C++ standard library's
  distribution implementations.  Every per-cell metric must stay within
  --tolerance (relative) of the committed baseline, and the boolean gates
  (logs_match, speedup_ok, n7_throughput_ok) must hold outright.

* BENCH_runtime.json comes from the wall-clock lane and is load/noise
  dependent, so no numeric pinning: its own embedded gates (zero decode/
  handler/auth errors, committed-log agreement, sim-lane equivalence and
  the LAN regression guard) must all be true, and the sweep must cover the
  expected (profile, n) grid.

* BENCH_overload.json comes from the admission-control sweep (simulated
  time, so deterministic): every valve-on flood cell must keep admitted
  availability >= 0.95 and queue depth bounded, and the embedded gates
  (valve effective, transparent at 10x, no-valve baseline still melts)
  must hold outright.

* BENCH_chaos.json comes from the wall-clock chaos battery (crash-restart,
  frame corruption, targeted blackholes), so no numeric pinning: all three
  scenarios must be present, every embedded gate (bounded recovery,
  committed-log convergence, corruption dying in the auth layer, the
  injections actually exercised) must hold, the liveness watchdog must
  report zero stalls, and the worst recovery must sit inside its bound.

* BENCH_controller.json comes from the controller fault-injection sweep
  (simulated time, so deterministic): the four named fault scenarios must
  all be present, each cell's embedded gates (failsafe availability holds,
  FALLBACK engages, zero frozen cycles, the policy recovers to FRESH, the
  frozen inline baseline degrades) must hold outright, and the failsafe-on
  cells must report zero frozen cycles and an advanced policy epoch.

On failure every offending metric is named with its cell, the baseline
value, the fresh value, and the relative drift, so the CI log reads as a
diff rather than a bare non-zero exit.
"""

import argparse
import json
import sys

EXPECTED_RUNTIME_GRID = {(p, n) for p in ("LAN", "WAN") for n in (3, 7, 13, 21, 31)}

# Deterministic per-cell metrics worth pinning.  avg_batch is load-shaped and
# usig_cache_hits is an implementation counter; throughput and speedup are
# the observables the optimization work targets.
CONSENSUS_CELL_METRICS = ("unbatched_req_s", "batched_req_s", "speedup")


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    return 1


def rel_drift(value, base):
    """Relative drift of a fresh value against its baseline."""
    return abs(value - base) / max(abs(base), 1e-9)


def diff_metric(cell, metric, base_value, value, tolerance):
    """Return a readable one-line diff if the metric drifted, else None."""
    if base_value is None or value is None:
        return f"{cell} {metric}: missing (baseline={base_value!r}, fresh={value!r})"
    rel = rel_drift(value, base_value)
    if rel <= tolerance:
        return None
    return (
        f"{cell:<10} {metric:<16} baseline={base_value:<12g} "
        f"fresh={value:<12g} drift={rel:+.1%} (tolerance ±{tolerance:.0%})"
    )


def check_consensus(fresh, baseline, tolerance):
    errors = 0
    for key, value in baseline.get("gates", {}).items():
        got = fresh.get("gates", {}).get(key)
        if got is not True:
            errors += fail(f"consensus gate {key!r} is {got!r}, expected true")
    base_cells = {row["n"]: row for row in baseline.get("sweep", [])}
    fresh_cells = {row["n"]: row for row in fresh.get("sweep", [])}
    for n, base_row in sorted(base_cells.items()):
        row = fresh_cells.get(n)
        if row is None:
            errors += fail(f"consensus sweep lost the n={n} cell")
            continue
        if not row.get("logs_match", False):
            errors += fail(f"consensus n={n}: batched/unbatched logs diverge")
        for metric in CONSENSUS_CELL_METRICS:
            diff = diff_metric(f"n={n}", metric, base_row.get(metric),
                               row.get(metric), tolerance)
            if diff is not None:
                errors += fail(f"consensus {diff}")
    return errors


def check_overload(fresh, min_admitted=0.95, max_queue=2048):
    errors = 0
    for key in ("valve_on_ok", "transparent_at_10x", "baseline_violates", "ok"):
        got = fresh.get("gates", {}).get(key)
        if got is not True:
            errors += fail(f"overload gate {key!r} is {got!r}, expected true")
    seen_on = 0
    for row in fresh.get("sweep", []):
        if not row.get("valve", False):
            continue  # valve-off rows are the melt baseline, not gated
        seen_on += 1
        cell = row.get("scenario", "?")
        admitted = row.get("admitted_availability", 0.0)
        depth = row.get("max_queue_depth", 0)
        if admitted < min_admitted:
            errors += fail(
                f"overload {cell}: admitted_availability {admitted:g} "
                f"< {min_admitted:g} with the valve on"
            )
        if depth > max_queue:
            errors += fail(
                f"overload {cell}: max_queue_depth {depth} > {max_queue} "
                f"with the valve on"
            )
    if seen_on == 0:
        errors += fail("overload sweep has no valve-on cells")
    return errors


EXPECTED_CONTROLLER_SCENARIOS = (
    "controller-crash-mid-intrusion",
    "controller-gc-pause",
    "controller-solver-failures",
    "controller-slow-solve-churn",
)

CONTROLLER_GATES = (
    "failsafe_availability_ok",
    "no_frozen_cycles",
    "fallback_engages",
    "policy_recovers",
    "baseline_degrades",
    "ok",
)


def check_controller(fresh):
    errors = 0
    if fresh.get("controller_gates_ok") is not True:
        errors += fail("controller sweep-level gate 'controller_gates_ok' "
                       f"is {fresh.get('controller_gates_ok')!r}")
    cells = {row.get("name"): row for row in fresh.get("scenarios", [])}
    missing = [n for n in EXPECTED_CONTROLLER_SCENARIOS if n not in cells]
    if missing:
        errors += fail(f"controller sweep missing scenarios: {missing}")
    for name, row in sorted(cells.items()):
        for key in CONTROLLER_GATES:
            got = row.get("gates", {}).get(key)
            if got is not True:
                errors += fail(
                    f"controller {name}: gate {key!r} is {got!r}, "
                    "expected true"
                )
        on = row.get("failsafe_on", {})
        if on.get("frozen_cycles", -1) != 0:
            errors += fail(
                f"controller {name}: failsafe-on run reports "
                f"{on.get('frozen_cycles')!r} frozen cycles, expected 0"
            )
        if on.get("policy_epoch", 0) < 2:
            errors += fail(
                f"controller {name}: failsafe-on policy epoch "
                f"{on.get('policy_epoch')!r} never advanced past the seed "
                "table"
            )
        if on.get("mode") != "fresh":
            errors += fail(
                f"controller {name}: failsafe-on horizon mode is "
                f"{on.get('mode')!r}, expected 'fresh' (the ladder must "
                "recover)"
            )
    return errors


EXPECTED_CHAOS_SCENARIOS = (
    "crash-restart-lossy",
    "corruption-storm",
    "targeted-drop-recovery",
)

CHAOS_GATES = (
    "recovery_ok",
    "convergence_ok",
    "zero_decode",
    "zero_handler",
    "corruption_exercised",
    "retry_exercised",
    "progress_ok",
    "ok",
)


def check_chaos(fresh):
    errors = 0
    if fresh.get("chaos_gates_ok") is not True:
        errors += fail("chaos sweep-level gate 'chaos_gates_ok' "
                       f"is {fresh.get('chaos_gates_ok')!r}")
    cells = {row.get("name"): row for row in fresh.get("scenarios", [])}
    missing = [n for n in EXPECTED_CHAOS_SCENARIOS if n not in cells]
    if missing:
        errors += fail(f"chaos battery missing scenarios: {missing}")
    for name, row in sorted(cells.items()):
        for key in CHAOS_GATES:
            got = row.get("gates", {}).get(key)
            if got is not True:
                errors += fail(
                    f"chaos {name}: gate {key!r} is {got!r}, expected true"
                )
        if row.get("stall_reports", -1) != 0:
            errors += fail(
                f"chaos {name}: watchdog reported "
                f"{row.get('stall_reports')!r} liveness stalls, expected 0"
            )
        worst = row.get("worst_recovery_seconds")
        bound = row.get("recovery_bound_seconds")
        if worst is None or bound is None:
            errors += fail(f"chaos {name}: missing recovery timing fields")
        elif worst > bound:
            errors += fail(
                f"chaos {name}: worst recovery {worst:g}s exceeds the "
                f"{bound:g}s bound"
            )
    return errors


def check_runtime(fresh):
    errors = 0
    gates = fresh.get("gates", {})
    for key in ("cells_ok", "logs_ok", "sim_equivalence_ok", "gain_ok", "ok"):
        if gates.get(key) is not True:
            errors += fail(f"runtime gate {key!r} is {gates.get(key)!r}")
    seen = set()
    for row in fresh.get("sweep", []):
        seen.add((row.get("profile"), row.get("n")))
        for side in ("baseline", "fast"):
            for counter in ("decode_errors", "handler_errors", "auth_failures"):
                value = row.get(f"{side}_{counter}", 0)
                if value:
                    errors += fail(
                        f"runtime {row.get('profile')} n={row.get('n')}: "
                        f"{side} {counter} = {value}"
                    )
        if not row.get("logs_valid", False):
            errors += fail(
                f"runtime {row.get('profile')} n={row.get('n')}: logs invalid"
            )
    missing = EXPECTED_RUNTIME_GRID - seen
    if missing:
        errors += fail(f"runtime sweep missing cells: {sorted(missing)}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--consensus", help="fresh BENCH_consensus.json")
    ap.add_argument("--runtime", help="fresh BENCH_runtime.json")
    ap.add_argument("--overload", help="fresh BENCH_overload.json")
    ap.add_argument("--controller", help="fresh BENCH_controller.json")
    ap.add_argument("--chaos", help="fresh BENCH_chaos.json")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="relative tolerance for deterministic metrics")
    args = ap.parse_args()
    if (not args.consensus and not args.runtime and not args.overload
            and not args.controller and not args.chaos):
        ap.error("nothing to check: pass --consensus, --runtime, "
                 "--overload, --controller and/or --chaos")

    errors = 0
    if args.consensus:
        with open(args.consensus) as f:
            fresh = json.load(f)
        with open(f"{args.baseline_dir}/BENCH_consensus.json") as f:
            baseline = json.load(f)
        errors += check_consensus(fresh, baseline, args.tolerance)
    if args.runtime:
        with open(args.runtime) as f:
            errors += check_runtime(json.load(f))
    if args.overload:
        with open(args.overload) as f:
            errors += check_overload(json.load(f))
    if args.controller:
        with open(args.controller) as f:
            errors += check_controller(json.load(f))
    if args.chaos:
        with open(args.chaos) as f:
            errors += check_chaos(json.load(f))

    if errors:
        print(f"check_bench: {errors} failure(s)")
        return 1
    print("check_bench: all gates and baselines OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
