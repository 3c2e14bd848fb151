"""Unit tests for check_bench.py's tolerance and gate logic.

Plain stdlib unittest so the suite runs both under CI's
`python3 -m pytest bench/` and locally via
`python3 -m unittest discover bench` on machines without pytest.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench  # noqa: E402


def consensus_doc(gates=None, sweep=None):
    return {
        "gates": gates if gates is not None else {"speedup_ok": True},
        "sweep": sweep if sweep is not None else [],
    }


def cell(n, unbatched=1000.0, batched=3000.0, speedup=3.0, logs_match=True):
    return {
        "n": n,
        "unbatched_req_s": unbatched,
        "batched_req_s": batched,
        "speedup": speedup,
        "logs_match": logs_match,
    }


def overload_doc(**overrides):
    doc = {
        "gates": {
            "valve_on_ok": True,
            "transparent_at_10x": True,
            "baseline_violates": True,
            "ok": True,
        },
        "sweep": [
            {"scenario": "load-spike-100x", "valve": True,
             "admitted_availability": 1.0, "max_queue_depth": 134},
            {"scenario": "load-spike-100x", "valve": False,
             "admitted_availability": 0.39, "max_queue_depth": 1173845},
        ],
    }
    doc.update(overrides)
    return doc


class RelDriftTest(unittest.TestCase):
    def test_zero_drift(self):
        self.assertEqual(check_bench.rel_drift(100.0, 100.0), 0.0)

    def test_relative_not_absolute(self):
        self.assertAlmostEqual(check_bench.rel_drift(110.0, 100.0), 0.10)
        self.assertAlmostEqual(check_bench.rel_drift(1.1, 1.0), 0.10)

    def test_zero_baseline_does_not_divide_by_zero(self):
        self.assertGreater(check_bench.rel_drift(1.0, 0.0), 1.0)


class DiffMetricTest(unittest.TestCase):
    def test_within_tolerance_is_silent(self):
        self.assertIsNone(
            check_bench.diff_metric("n=7", "speedup", 3.0, 3.2, 0.10))

    def test_drift_names_cell_metric_and_values(self):
        diff = check_bench.diff_metric("n=7", "speedup", 3.0, 4.0, 0.10)
        self.assertIsNotNone(diff)
        for needle in ("n=7", "speedup", "baseline=3", "fresh=4", "drift="):
            self.assertIn(needle, diff)

    def test_missing_value_is_reported(self):
        diff = check_bench.diff_metric("n=7", "speedup", 3.0, None, 0.10)
        self.assertIn("missing", diff)


class CheckConsensusTest(unittest.TestCase):
    def test_identical_docs_pass(self):
        doc = consensus_doc(sweep=[cell(3), cell(7)])
        self.assertEqual(check_bench.check_consensus(doc, doc, 0.10), 0)

    def test_drift_within_tolerance_passes(self):
        base = consensus_doc(sweep=[cell(3)])
        fresh = consensus_doc(sweep=[cell(3, batched=3000.0 * 1.05)])
        self.assertEqual(check_bench.check_consensus(fresh, base, 0.10), 0)

    def test_drift_beyond_tolerance_fails(self):
        base = consensus_doc(sweep=[cell(3)])
        fresh = consensus_doc(sweep=[cell(3, batched=3000.0 * 1.25)])
        self.assertEqual(check_bench.check_consensus(fresh, base, 0.10), 1)

    def test_tolerance_is_symmetric(self):
        base = consensus_doc(sweep=[cell(3)])
        fresh = consensus_doc(sweep=[cell(3, batched=3000.0 * 0.75)])
        self.assertEqual(check_bench.check_consensus(fresh, base, 0.10), 1)

    def test_lost_cell_fails(self):
        base = consensus_doc(sweep=[cell(3), cell(7)])
        fresh = consensus_doc(sweep=[cell(3)])
        self.assertEqual(check_bench.check_consensus(fresh, base, 0.10), 1)

    def test_false_gate_fails(self):
        base = consensus_doc(gates={"speedup_ok": True})
        fresh = consensus_doc(gates={"speedup_ok": False})
        self.assertEqual(check_bench.check_consensus(fresh, base, 0.10), 1)

    def test_diverging_logs_fail(self):
        base = consensus_doc(sweep=[cell(3)])
        fresh = consensus_doc(sweep=[cell(3, logs_match=False)])
        self.assertEqual(check_bench.check_consensus(fresh, base, 0.10), 1)


def controller_cell(name, fault=True):
    rejected = 20 if name == "controller-solver-failures" else 0
    return {
        "name": name,
        "failsafe_on": {
            "availability": 0.994, "service_availability": 0.994,
            "worst_min_availability": 0.975, "policy_epoch": 9,
            "resolves": 32, "rejected": rejected, "hold_cycles": 32,
            "fallback_cycles": 80 if fault else 0, "frozen_cycles": 0,
            "max_staleness": 36, "mode": "fresh",
        },
        "failsafe_off": {
            "availability": 0.909, "service_availability": 0.872,
            "worst_min_availability": 0.600, "policy_epoch": 0,
            "resolves": 0, "rejected": 0, "hold_cycles": 0,
            "fallback_cycles": 0, "frozen_cycles": 120 if fault else 0,
            "max_staleness": 0, "mode": "inline",
        },
        "gates": {
            "failsafe_availability_ok": True, "no_frozen_cycles": True,
            "fallback_engages": True, "policy_recovers": True,
            "baseline_degrades": True, "ok": True,
        },
    }


def controller_doc(**overrides):
    doc = {
        "controller_gates_ok": True,
        "scenarios": [
            controller_cell("controller-crash-mid-intrusion"),
            controller_cell("controller-gc-pause"),
            controller_cell("controller-solver-failures"),
            controller_cell("controller-slow-solve-churn", fault=False),
        ],
    }
    doc.update(overrides)
    return doc


class CheckOverloadTest(unittest.TestCase):
    def test_healthy_sweep_passes(self):
        self.assertEqual(check_bench.check_overload(overload_doc()), 0)

    def test_false_gate_fails(self):
        doc = overload_doc()
        doc["gates"]["baseline_violates"] = False
        self.assertEqual(check_bench.check_overload(doc), 1)

    def test_valve_on_low_availability_fails(self):
        doc = overload_doc()
        doc["sweep"][0]["admitted_availability"] = 0.80
        self.assertEqual(check_bench.check_overload(doc), 1)

    def test_valve_on_unbounded_queue_fails(self):
        doc = overload_doc()
        doc["sweep"][0]["max_queue_depth"] = 4096
        self.assertEqual(check_bench.check_overload(doc), 1)

    def test_valve_off_melt_rows_are_not_gated(self):
        doc = overload_doc()
        doc["sweep"][1]["max_queue_depth"] = 10**7
        self.assertEqual(check_bench.check_overload(doc), 0)

    def test_empty_sweep_fails(self):
        self.assertEqual(check_bench.check_overload(overload_doc(sweep=[])), 1)


class CheckControllerTest(unittest.TestCase):
    def test_healthy_sweep_passes(self):
        self.assertEqual(check_bench.check_controller(controller_doc()), 0)

    def test_sweep_level_gate_false_fails(self):
        doc = controller_doc(controller_gates_ok=False)
        self.assertEqual(check_bench.check_controller(doc), 1)

    def test_missing_scenario_fails(self):
        doc = controller_doc()
        doc["scenarios"] = doc["scenarios"][:-1]  # drop slow-solve-churn
        self.assertEqual(check_bench.check_controller(doc), 1)

    def test_every_named_gate_is_checked(self):
        for gate in check_bench.CONTROLLER_GATES:
            doc = controller_doc()
            doc["scenarios"][0]["gates"][gate] = False
            self.assertEqual(
                check_bench.check_controller(doc), 1,
                f"flipping gate {gate!r} must fail the check")

    def test_frozen_cycles_with_failsafe_on_fails(self):
        doc = controller_doc()
        doc["scenarios"][1]["failsafe_on"]["frozen_cycles"] = 24
        self.assertEqual(check_bench.check_controller(doc), 1)

    def test_stuck_policy_epoch_fails(self):
        doc = controller_doc()
        doc["scenarios"][0]["failsafe_on"]["policy_epoch"] = 1
        self.assertEqual(check_bench.check_controller(doc), 1)

    def test_unrecovered_mode_fails(self):
        doc = controller_doc()
        doc["scenarios"][2]["failsafe_on"]["mode"] = "fallback"
        self.assertEqual(check_bench.check_controller(doc), 1)


def chaos_cell(name, restart=True):
    return {
        "name": name,
        "completed": 3514,
        "injected_corruptions": 115 if name == "corruption-storm" else 0,
        "st_retries": 10 if name == "targeted-drop-recovery" else 0,
        "stall_reports": 0,
        "worst_recovery_seconds": 0.257 if restart else 0.0,
        "recovery_bound_seconds": 3.0,
        "gates": {
            "recovery_ok": True, "convergence_ok": True,
            "zero_decode": True, "zero_handler": True,
            "corruption_exercised": True, "retry_exercised": True,
            "progress_ok": True, "ok": True,
        },
    }


def chaos_doc(**overrides):
    doc = {
        "chaos_gates_ok": True,
        "scenarios": [
            chaos_cell("crash-restart-lossy"),
            chaos_cell("corruption-storm", restart=False),
            chaos_cell("targeted-drop-recovery"),
        ],
    }
    doc.update(overrides)
    return doc


class CheckChaosTest(unittest.TestCase):
    def test_healthy_battery_passes(self):
        self.assertEqual(check_bench.check_chaos(chaos_doc()), 0)

    def test_sweep_level_gate_false_fails(self):
        doc = chaos_doc(chaos_gates_ok=False)
        self.assertEqual(check_bench.check_chaos(doc), 1)

    def test_missing_scenario_fails(self):
        doc = chaos_doc()
        doc["scenarios"] = doc["scenarios"][:-1]  # drop targeted-drop
        self.assertEqual(check_bench.check_chaos(doc), 1)

    def test_every_named_gate_is_checked(self):
        for gate in check_bench.CHAOS_GATES:
            doc = chaos_doc()
            doc["scenarios"][0]["gates"][gate] = False
            self.assertEqual(
                check_bench.check_chaos(doc), 1,
                f"flipping gate {gate!r} must fail the check")

    def test_watchdog_stalls_fail(self):
        doc = chaos_doc()
        doc["scenarios"][0]["stall_reports"] = 3
        self.assertEqual(check_bench.check_chaos(doc), 1)

    def test_recovery_beyond_bound_fails(self):
        doc = chaos_doc()
        doc["scenarios"][0]["worst_recovery_seconds"] = 3.5
        self.assertEqual(check_bench.check_chaos(doc), 1)

    def test_missing_recovery_fields_fail(self):
        doc = chaos_doc()
        del doc["scenarios"][0]["worst_recovery_seconds"]
        self.assertEqual(check_bench.check_chaos(doc), 1)


def runtime_doc(**gate_overrides):
    gates = {"cells_ok": True, "logs_ok": True, "sim_equivalence_ok": True,
             "lan7_gain": 0.98, "gain_ok": True, "ok": True}
    gates.update(gate_overrides)
    return {
        "gates": gates,
        "sweep": [{"profile": p, "n": n, "logs_valid": True}
                  for p, n in sorted(check_bench.EXPECTED_RUNTIME_GRID)],
    }


class CheckRuntimeTest(unittest.TestCase):
    def test_healthy_sweep_passes_without_a_wan_gate(self):
        self.assertEqual(check_bench.check_runtime(runtime_doc()), 0)

    def test_lan_regression_guard_fails(self):
        doc = runtime_doc(gain_ok=False, ok=False)
        self.assertEqual(check_bench.check_runtime(doc), 2)

    def test_cell_errors_fail(self):
        doc = runtime_doc()
        doc["sweep"][0]["fast_auth_failures"] = 1
        self.assertEqual(check_bench.check_runtime(doc), 1)

    def test_missing_cell_fails(self):
        doc = runtime_doc()
        doc["sweep"] = doc["sweep"][1:]
        self.assertEqual(check_bench.check_runtime(doc), 1)


if __name__ == "__main__":
    unittest.main()
