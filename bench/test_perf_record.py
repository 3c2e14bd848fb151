"""Unit tests for perf_record.py: the record schema, the ratio arithmetic
and the append-only history.

Plain stdlib unittest, collected by CI's `python3 -m pytest bench/` and
runnable via `python3 -m unittest discover bench`.
"""

import copy
import json
import os
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_record  # noqa: E402

END_TO_END = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher"},
]


def run_text(metrics, host_ref=(2.0, 2.2), steal=0.01):
    """The tail of a saved perfbench run: diagnostics line + result line."""
    diag = {
        "host_ref_ms_before": {"value": host_ref[0], "unit": "ms"},
        "host_ref_ms_after": {"value": host_ref[1], "unit": "ms"},
        "host_steal_share": {"value": steal, "unit": "share"},
    }
    result = {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }
    return ("metric ignored = 1 x\n"
            f"diagnostics {json.dumps(diag)}\n{json.dumps(result)}\n")


def write_runs(directory, parent, change, workload="level2-resolve"):
    """parent / change: lists of (p50, throughput) per seed."""
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side, (p50, tput) in (("parent", p), ("change", c)):
            path = pathlib.Path(directory) / f"{side}-{workload}-{seed}.txt"
            path.write_text(run_text({"latency_p50_ms": p50,
                                      "throughput_per_s": tput}))


class RecordTest(unittest.TestCase):
    def record(self, parent, change):
        with tempfile.TemporaryDirectory() as d:
            write_runs(d, parent, change)
            runs = perf_record.load_runs(d)
        return perf_record.build_record(runs, END_TO_END, "PR 1", "abc", "h")

    def test_medians_ratio_and_wins(self):
        rec = self.record([(4.0, 250), (4.2, 240), (4.4, 230)],
                          [(1.1, 750), (1.2, 740), (1.3, 700)])
        entry = rec["workloads"]["level2-resolve"]
        self.assertEqual(entry["pairs"], 3)
        self.assertEqual(entry["seeds"], [1, 2, 3])
        p50 = entry["metrics"]["latency_p50_ms"]
        self.assertEqual(p50["parent_median"], 4.2)
        self.assertEqual(p50["change_median"], 1.2)
        self.assertAlmostEqual(p50["ratio"], 1.2 / 4.2)
        self.assertAlmostEqual(p50["parent_iqr"], 0.2)
        self.assertEqual(p50["change_wins"], 3)
        tput = entry["metrics"]["throughput_per_s"]
        self.assertEqual(tput["change_wins"], 3)
        self.assertAlmostEqual(tput["ratio"], 740 / 240)
        self.assertEqual(entry["host_ref_ms_median"], 2.1)
        self.assertEqual(entry["host_steal_share_max"], 0.01)
        self.assertEqual(perf_record.check([rec]), [])

    def test_wins_follow_the_better_direction(self):
        rec = self.record([(1.0, 100), (1.0, 100)], [(2.0, 50), (0.5, 200)])
        metrics = rec["workloads"]["level2-resolve"]["metrics"]
        self.assertEqual(metrics["latency_p50_ms"]["change_wins"], 1)
        self.assertEqual(metrics["throughput_per_s"]["change_wins"], 1)

    def test_unpaired_runs_are_left_out(self):
        with tempfile.TemporaryDirectory() as d:
            write_runs(d, [(4.0, 250)], [(1.0, 700)])
            (pathlib.Path(d) / "parent-level2-resolve-9.txt").write_text(
                run_text({"latency_p50_ms": 9.0, "throughput_per_s": 1}))
            rec = perf_record.build_record(perf_record.load_runs(d),
                                           END_TO_END, "PR 1", "abc", "h")
        self.assertEqual(rec["workloads"]["level2-resolve"]["seeds"], [1])

    def test_traced_counts_are_kept_exactly(self):
        with tempfile.TemporaryDirectory() as d:
            for side, eta in (("parent", 7709.689), ("change", 7709.692)):
                (pathlib.Path(d) / f"{side}-level2-resolve-5-trace.txt"
                 ).write_text(run_text({
                     "pomdp.kernel_build_ms": 3.0,
                     "solvers.lp_warm_ms": 1.0,
                     "solvers.lp_cold_ms": 7.5,
                     "lp.pivots_per_cold_solve": 129,
                     "lp.eta_nnz": eta}))
            rec = perf_record.build_record(perf_record.load_runs(d),
                                           END_TO_END, "PR 1", "abc", "h")
        traced = rec["workloads"]["level2-resolve"]["traced"]
        self.assertEqual(traced["seeds"], [5])
        self.assertEqual(traced["metrics"]["lp.eta_nnz"],
                         {"parent": [7709.689], "change": [7709.692]})
        self.assertEqual(
            traced["metrics"]["lp.pivots_per_cold_solve"]["change"], [129])
        self.assertEqual(perf_record.check([rec]), [])

    def test_traced_level2_keeps_the_cold_solve_time(self):
        # A cold re-solve's saving shows in lp_cold_ms, not in the warm
        # p50; the record keeps it per seed beside the pivot count.
        with tempfile.TemporaryDirectory() as d:
            for side, cold_ms, pivots in (("parent", 7.51, 129),
                                          ("change", 0.79, 0)):
                (pathlib.Path(d) / f"{side}-level2-resolve-2-trace.txt"
                 ).write_text(run_text({
                     "pomdp.kernel_build_ms": 0.27,
                     "solvers.lp_warm_ms": 0.87,
                     "solvers.lp_cold_ms": cold_ms,
                     "lp.pivots_per_cold_solve": pivots,
                     "lp.eta_nnz": 7716.988,
                     "core.publish_us": 3.0}))
            rec = perf_record.build_record(perf_record.load_runs(d),
                                           END_TO_END, "PR 1", "abc", "h")
        traced = rec["workloads"]["level2-resolve"]["traced"]
        self.assertEqual(set(traced["metrics"]),
                         set(perf_record.TRACED["level2-resolve"]))
        self.assertEqual(traced["metrics"]["solvers.lp_cold_ms"],
                         {"parent": [7.51], "change": [0.79]})
        self.assertEqual(
            traced["metrics"]["lp.pivots_per_cold_solve"],
            {"parent": [129], "change": [0]})
        self.assertEqual(perf_record.check([rec]), [])

    def test_traced_service_peak_keeps_the_codec_layers(self):
        codec = {"net.bytes_per_op": 2950.5, "net.send_us_per_op": 41.0,
                 "net.runtime_residual_us_per_op": 39.5,
                 "consensus.replica_self_us_per_op": 66.0,
                 "consensus.client_self_us_per_op": 9.5}
        with tempfile.TemporaryDirectory() as d:
            for side in perf_record.SIDES:
                (pathlib.Path(d) / f"{side}-service-peak-3-trace.txt"
                 ).write_text(run_text(dict(codec, **{
                     "consensus.batch_fill": 0.5})))
            rec = perf_record.build_record(perf_record.load_runs(d),
                                           END_TO_END, "PR 1", "abc", "h")
        traced = rec["workloads"]["service-peak"]["traced"]
        self.assertEqual(traced["seeds"], [3])
        self.assertEqual(set(traced["metrics"]), set(codec))
        for name, value in codec.items():
            self.assertEqual(traced["metrics"][name],
                             {"parent": [value], "change": [value]})
        self.assertEqual(perf_record.check([rec]), [])


    def test_traced_service_peak_keeps_every_cpu_layer(self):
        # Replica, client, send and residual add up to CPU per op, so the
        # record keeps each of them per seed and side.
        layers = {"parent": {"consensus.replica_self_us_per_op": 108.0,
                             "consensus.client_self_us_per_op": 13.7,
                             "net.send_us_per_op": 57.0,
                             "net.runtime_residual_us_per_op": 52.0,
                             "net.bytes_per_op": 1619.0},
                  "change": {"consensus.replica_self_us_per_op": 64.0,
                             "consensus.client_self_us_per_op": 10.2,
                             "net.send_us_per_op": 38.0,
                             "net.runtime_residual_us_per_op": 30.0,
                             "net.bytes_per_op": 1610.0}}
        with tempfile.TemporaryDirectory() as d:
            for side in perf_record.SIDES:
                for seed in (61, 62):
                    (pathlib.Path(d) / f"{side}-service-peak-{seed}-trace.txt"
                     ).write_text(run_text(layers[side]))
            rec = perf_record.build_record(perf_record.load_runs(d),
                                           END_TO_END, "PR 1", "abc", "h")
        traced = rec["workloads"]["service-peak"]["traced"]
        self.assertEqual(traced["seeds"], [61, 62])
        for name in ("consensus.replica_self_us_per_op",
                     "consensus.client_self_us_per_op",
                     "net.send_us_per_op", "net.runtime_residual_us_per_op"):
            self.assertIn(name, perf_record.TRACED["service-peak"])
            self.assertEqual(traced["metrics"][name],
                             {side: [layers[side][name]] * 2
                              for side in perf_record.SIDES})
        self.assertEqual(perf_record.check([rec]), [])


class CheckTest(unittest.TestCase):
    def good(self):
        return RecordTest().record([(4.0, 250), (4.4, 230)],
                                   [(1.1, 750), (1.3, 700)])

    def test_wrong_ratio_is_reported(self):
        rec = self.good()
        rec["workloads"]["level2-resolve"]["metrics"]["latency_p50_ms"][
            "ratio"] = 0.5
        problems = perf_record.check([rec])
        self.assertTrue(any("ratio" in p for p in problems), problems)

    def test_missing_keys_and_bad_counts_are_reported(self):
        rec = self.good()
        del rec["workloads"]["level2-resolve"]["metrics"]["latency_p50_ms"][
            "parent_iqr"]
        rec["workloads"]["level2-resolve"]["pairs"] = 5
        problems = perf_record.check([rec, {"label": "x"}])
        self.assertEqual(len(problems), 3, problems)

    def test_history_must_be_a_list(self):
        self.assertTrue(perf_record.check({"label": "PR 1"}))

    def test_duplicate_labels_are_reported(self):
        rec = self.good()
        self.assertTrue(perf_record.check([rec, copy.deepcopy(rec)]))

    def test_committed_history_is_valid(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"
        self.assertEqual(perf_record.check(json.loads(path.read_text())), [])


class AppendTest(unittest.TestCase):
    def test_append_never_rewrites_an_earlier_record(self):
        first = CheckTest().good()
        frozen = copy.deepcopy(first)
        second = copy.deepcopy(first)
        second["label"] = "PR 2"
        history = perf_record.append(perf_record.append([], first), second)
        self.assertEqual(history[0], frozen)
        self.assertEqual(history[1]["label"], "PR 2")

    def test_append_refuses_a_duplicate_label(self):
        first = CheckTest().good()
        with self.assertRaises(ValueError):
            perf_record.append([first], copy.deepcopy(first))

    def test_main_appends_to_the_file(self):
        with tempfile.TemporaryDirectory() as d:
            runs = pathlib.Path(d) / "runs"
            runs.mkdir()
            write_runs(runs, [(4.0, 250)], [(1.0, 700)])
            out = pathlib.Path(d) / "BENCH_perf.json"
            for label in ("PR 1", "PR 2"):
                self.assertEqual(perf_record.main(
                    ["--runs", str(runs), "--label", label, "--parent", "abc",
                     "--out", str(out)]), 0)
                if label == "PR 1":
                    first_text = json.loads(out.read_text())[0]
            history = json.loads(out.read_text())
            self.assertEqual([r["label"] for r in history], ["PR 1", "PR 2"])
            self.assertEqual(history[0], first_text)
            self.assertEqual(perf_record.main(["--check", str(out)]), 0)


if __name__ == "__main__":
    unittest.main()
