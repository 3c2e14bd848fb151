// perfbench_driver — one workload, one seed, one process.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <spans.jsonl>]
//
// Untraced runs print every end-to-end metric; traced runs print every
// per-layer metric (0 where the workload does not exercise the layer).  The
// last line of stdout is the result object; the exit code is non-zero when
// an output check failed.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

// The metric sets of BENCHMARK.json, in its order.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},          {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"served_share", "share"}, {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},     {"availability", "share"},
    {"avg_nodes", "nodes"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"consensus.replica_self_us_per_op", "us"},
    {"consensus.replica_self_us.request", "us"},
    {"consensus.replica_self_us.prepare", "us"},
    {"consensus.replica_self_us.commit", "us"},
    {"consensus.replica_self_us.checkpoint", "us"},
    {"consensus.msgs_per_op.request", "count"},
    {"consensus.msgs_per_op.prepare", "count"},
    {"consensus.msgs_per_op.commit", "count"},
    {"consensus.msgs_per_op.checkpoint", "count"},
    {"consensus.msgs_per_op.reply", "count"},
    {"consensus.client_self_us_per_op", "us"},
    {"consensus.batch_fill", "share"},
    {"net.send_us_per_op", "us"},
    {"net.bundles_per_op", "count"},
    {"net.bytes_per_op", "bytes"},
    {"net.runtime_residual_us_per_op", "us"},
    {"net.failed_frames", "count"},
    {"crypto.hmac_us_per_kib", "us"},
    {"crypto.usig_verifies_per_op", "count"},
    {"pomdp.kernel_build_ms", "ms"},
    {"solvers.lp_warm_ms", "ms"},
    {"solvers.lp_cold_ms", "ms"},
    {"lp.pivots_per_cold_solve", "count"},
    {"lp.eta_nnz", "count"},
    {"core.publish_us", "us"},
    {"core.policy_query_ns.p50", "ns"},
    {"core.policy_query_ns.p99", "ns"},
    {"emulation.train_ms", "ms"},
    {"emulation.cycle_ms.flood", "ms"},
    {"emulation.cycle_ms.attack", "ms"},
    {"emulation.cycle_ms.crash", "ms"},
    {"emulation.cycle_ms.controller", "ms"},
    {"scenario.recoveries", "count"},
    {"scenario.evictions", "count"},
    {"scenario.additions", "count"},
    {"scenario.quorum_stalls", "count"},
    {"scenario.view_changes", "count"},
    {"scenario.flood_rejections", "count"},
    {"scenario.fallback_cycles", "count"},
    {"scenario.time_to_recovery", "cycles"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.trace_overhead_share", "share"},
    {"bench.host_ref_ms", "ms"},
};

/// Put the workload's metrics into the canonical order and set.  An
/// end-to-end metric a workload failed to produce is a bug; a per-layer
/// metric it does not produce is a layer it does not exercise (0).
void canonicalize(Report& report, bool trace) {
  std::map<std::string, Metric> produced;
  for (Metric& m : report.metrics) produced[m.name] = m;
  std::vector<Metric> out;
  for (const auto& [name, unit] : trace ? kPerLayer : kEndToEnd) {
    const auto it = produced.find(name);
    if (it == produced.end()) {
      if (!trace) report.problems.push_back(std::string("metric ") + name + " not measured");
      out.push_back({name, 0.0, unit});
      continue;
    }
    Metric m = it->second;
    if (m.unit != unit) report.problems.push_back("metric " + m.name + " has unit " + m.unit);
    if (!std::isfinite(m.value)) {
      report.problems.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
    m.unit = unit;
    produced.erase(it);
    out.push_back(m);
  }
  for (const auto& [name, m] : produced) {
    report.problems.push_back("metric " + name + " is not in the metric set");
  }
  report.metrics = std::move(out);
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "<service-peak|service-lan|level2-resolve|scenario-catalog> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !(o.seconds > 0.0) || o.seconds > 60.0) return usage();

  const auto steal_before = perfbench::machine_steal_ticks();
  const double host_ref_before = perfbench::host_reference_ms();
  Report report;
  try {
    if (workload == "service-peak") {
      report = perfbench::run_service_peak(o);
    } else if (workload == "service-lan") {
      report = perfbench::run_service_lan(o);
    } else if (workload == "level2-resolve") {
      report = perfbench::run_level2_resolve(o);
    } else if (workload == "scenario-catalog") {
      report = perfbench::run_scenario_catalog(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << '\n';
    return 1;
  }
  const double host_ref_after = perfbench::host_reference_ms();
  const auto steal_after = perfbench::machine_steal_ticks();
  const double ticks = steal_after.second - steal_before.second;
  const double host_ref = (host_ref_before + host_ref_after) / 2.0;
  if (o.trace) report.add("bench.host_ref_ms", host_ref, "ms");
  report.diagnostics.insert(report.diagnostics.begin(),
                            {{"host_ref_ms_before", host_ref_before, "ms"},
                             {"host_ref_ms_after", host_ref_after, "ms"},
                             {"host_steal_share",
                              ticks > 0.0 ? (steal_after.first - steal_before.first) / ticks
                                          : 0.0,
                              "share"}});
  canonicalize(report, o.trace);
  perfbench::print_report(report);
  return report.correct() ? 0 : 1;
}
