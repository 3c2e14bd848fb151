#!/usr/bin/env python3
"""Append one record to the committed perf history (BENCH_perf.json).

    python3 bench/perf_record.py --runs DIR --label "PR 22" --parent SHA \\
        --host "4 vCPU x86-64, g++ 12, Release" [--out BENCH_perf.json]
    python3 bench/perf_record.py --check [BENCH_perf.json]

DIR holds the saved stdout of `perfbench/run.py` runs, one file per run,
named <side>-<workload>-<seed>.txt for untraced runs and
<side>-<workload>-<seed>-trace.txt for traced ones, where <side> is `parent`
or `change`.  An untraced parent run and an untraced change run of the same
workload and seed form a pair.  Per workload and end-to-end metric of
BENCHMARK.json the record keeps both medians, their ratio (change / parent),
the parent's interquartile range, the pair count and how many pairs the
change won, plus the median host_ref_ms and the largest host_steal_share of
the runs.  Traced runs add their per-layer metrics per seed, exactly as
printed.

BENCH_perf.json is an append-only list: a new record goes at the end, and no
earlier record is rewritten.  --check validates the schema and the ratio
arithmetic of every record.
"""
import argparse
import json
import pathlib
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_NAME = re.compile(r"^(parent|change)-([a-z0-9-]+?)-(\d+)(-trace)?\.txt$")
# Per-layer metrics a traced run contributes, per workload.
TRACED = {
    "level2-resolve": ("pomdp.kernel_build_ms", "solvers.lp_warm_ms",
                       "solvers.lp_cold_ms", "lp.pivots_per_cold_solve",
                       "lp.eta_nnz"),
    # Every layer that adds up to CPU per op: replica and client handlers,
    # the send span (encoding included) and the runtime residual (decoding
    # and bundle verification included), plus the bytes on the wire.
    "service-peak": ("net.bytes_per_op", "consensus.replica_self_us_per_op",
                     "consensus.client_self_us_per_op", "net.send_us_per_op",
                     "net.runtime_residual_us_per_op"),
}
METRIC_KEYS = {"unit", "better", "parent_median", "change_median", "ratio",
               "parent_iqr", "change_wins"}
WORKLOAD_KEYS = {"pairs", "seeds", "metrics", "host_ref_ms_median",
                 "host_steal_share_max"}
RECORD_KEYS = {"label", "parent", "host", "workloads"}


def parse_run(text):
    """(metrics, diagnostics) of one saved run: name -> value."""
    lines = text.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    diagnostics = {}
    for line in lines:
        if line.startswith("diagnostics "):
            diag = json.loads(line[len("diagnostics "):])
            diagnostics = {k: v["value"] for k, v in diag.items()}
    return metrics, diagnostics


def load_runs(directory):
    """{(side, workload, seed, traced): (metrics, diagnostics)}."""
    runs = {}
    for path in sorted(pathlib.Path(directory).iterdir()):
        match = RUN_NAME.match(path.name)
        if not match:
            continue
        side, workload, seed, trace = match.groups()
        runs[(side, workload, int(seed), bool(trace))] = parse_run(
            path.read_text())
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def host_ref(diagnostics):
    return (diagnostics["host_ref_ms_before"] +
            diagnostics["host_ref_ms_after"]) / 2.0


def metric_summary(parent, change, better):
    """One end-to-end metric over paired runs (lists in pair order)."""
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    if better == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
    else:
        wins = sum(c > p for p, c in zip(parent, change))
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else None,
        "parent_iqr": iqr(parent),
        "change_wins": wins,
    }


def build_record(runs, end_to_end, label, parent_sha, host):
    workloads = {}
    names = sorted({w for (_, w, _, _) in runs})
    for workload in names:
        seeds = sorted(seed for (side, w, seed, traced) in runs
                       if side == "parent" and w == workload and not traced
                       and ("change", w, seed, False) in runs)
        traced_seeds = sorted(seed for (side, w, seed, traced) in runs
                              if side == "parent" and w == workload and traced
                              and ("change", w, seed, True) in runs)
        if not seeds and not traced_seeds:
            continue
        entry = {"pairs": len(seeds), "seeds": seeds, "metrics": {}}
        untraced = [runs[(side, workload, seed, False)]
                    for side in SIDES for seed in seeds]
        for metric in end_to_end:
            name = metric["name"]
            if not seeds or any(name not in run[0] for run in untraced):
                continue
            parent = [runs[("parent", workload, s, False)][0][name]
                      for s in seeds]
            change = [runs[("change", workload, s, False)][0][name]
                      for s in seeds]
            summary = {"unit": metric["unit"], "better": metric["better"]}
            summary.update(metric_summary(parent, change, metric["better"]))
            entry["metrics"][name] = summary
        entry["host_ref_ms_median"] = (
            statistics.median(host_ref(d) for _, d in untraced)
            if untraced else None)
        entry["host_steal_share_max"] = (
            max(d["host_steal_share"] for _, d in untraced)
            if untraced else None)
        if traced_seeds:
            layers = {}
            for name in TRACED.get(workload, ()):
                layers[name] = {
                    side: [runs[(side, workload, s, True)][0][name]
                           for s in traced_seeds]
                    for side in SIDES
                }
            entry["traced"] = {"seeds": traced_seeds, "metrics": layers}
        workloads[workload] = entry
    return {"label": label, "parent": parent_sha, "host": host,
            "workloads": workloads}


def append(history, record):
    """The history with `record` at the end; earlier records untouched."""
    if any(r.get("label") == record["label"] for r in history):
        raise ValueError(f"a record labelled {record['label']!r} exists")
    return list(history) + [record]


def check(history):
    """Schema and arithmetic problems of a history, as strings."""
    problems = []
    if not isinstance(history, list):
        return ["the history must be a JSON list of records"]
    labels = set()
    for i, record in enumerate(history):
        where = f"record {i}"
        if not isinstance(record, dict) or not RECORD_KEYS <= set(record):
            problems.append(f"{where}: needs keys {sorted(RECORD_KEYS)}")
            continue
        if record["label"] in labels:
            problems.append(f"{where}: duplicate label {record['label']!r}")
        labels.add(record["label"])
        for workload, entry in record["workloads"].items():
            at = f"{where} {workload}"
            if not WORKLOAD_KEYS <= set(entry):
                problems.append(f"{at}: needs keys {sorted(WORKLOAD_KEYS)}")
                continue
            if entry["pairs"] != len(entry["seeds"]):
                problems.append(f"{at}: pairs != len(seeds)")
            for name, m in entry["metrics"].items():
                if not METRIC_KEYS <= set(m):
                    problems.append(f"{at} {name}: needs {sorted(METRIC_KEYS)}")
                    continue
                if m["better"] not in ("lower", "higher"):
                    problems.append(f"{at} {name}: better must be lower/higher")
                if not 0 <= m["change_wins"] <= entry["pairs"]:
                    problems.append(f"{at} {name}: change_wins out of range")
                if m["parent_iqr"] < 0:
                    problems.append(f"{at} {name}: negative IQR")
                p, c, r = m["parent_median"], m["change_median"], m["ratio"]
                if p == 0:
                    if r is not None:
                        problems.append(f"{at} {name}: ratio of a zero median")
                elif r is None or abs(r - c / p) > 1e-9 * max(1.0, abs(r)):
                    problems.append(f"{at} {name}: ratio != change / parent")
            for name, sides in entry.get("traced", {}).get("metrics", {}).items():
                seeds = entry["traced"]["seeds"]
                if set(sides) != set(SIDES) or any(
                        len(sides[s]) != len(seeds) for s in SIDES):
                    problems.append(f"{at} traced {name}: one value per seed "
                                    "and side")
    return problems


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", nargs="?", const=str(ROOT / "BENCH_perf.json"),
                   help="validate a history file and exit")
    p.add_argument("--runs", help="directory of saved perfbench outputs")
    p.add_argument("--label", help="record label, e.g. 'PR 22'")
    p.add_argument("--parent", help="parent commit of the measured change")
    p.add_argument("--host", default="", help="machine the runs ran on")
    p.add_argument("--out", default=str(ROOT / "BENCH_perf.json"))
    args = p.parse_args(argv)
    if args.check:
        problems = check(json.loads(pathlib.Path(args.check).read_text()))
        for problem in problems:
            print(f"perf_record: {problem}", file=sys.stderr)
        return 1 if problems else 0
    if not (args.runs and args.label and args.parent):
        p.error("--runs, --label and --parent are required to record")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = build_record(load_runs(args.runs), benchmark["end_to_end"],
                          args.label, args.parent, args.host)
    out = pathlib.Path(args.out)
    history = json.loads(out.read_text()) if out.exists() else []
    history = append(history, record)
    problems = check(history)
    if problems:
        for problem in problems:
            print(f"perf_record: {problem}", file=sys.stderr)
        return 1
    out.write_text(json.dumps(history, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
