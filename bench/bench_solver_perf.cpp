// Solver-performance bench: the two solver hot paths of the paper pipeline,
// measured against the reference implementations in tolerance_oracles and
// written to BENCH_solvers.json (CI uploads it next to BENCH_parallel.json /
// BENCH_scenarios.json so the perf trajectory has solver datapoints).
//
//  * Fig. 9 column — the occupancy-measure LP of Algorithm 2 at the largest
//    smax: the kernel build (SystemCmdp::parametric) against the dense
//    oracle kernel, then the dense two-phase tableau solved from scratch
//    versus the sparse revised simplex, cold (never-add crash basis) and
//    warm (re-solve from the previous optimal basis, the ScenarioRunner /
//    epsilon_A-sweep / baseline Monte-Carlo workload).  Never-add meets
//    epsilon_A on this instance, so the cold solve takes no pivot.  A
//    binding instance at smax = 512 (q_recover = 1e-3: never-add falls
//    short of epsilon_A) keeps a pivoting path in the record: its cold solve
//    runs the dual repair to Thm. 2's threshold mixture, checked against
//    the dense tableau.
//  * Fig. 8 IP column — IncrementalPruning::solve_cycle at DeltaR = 25:
//    the enumerate-and-prune backup versus the breakpoint-merge backup.
//
// Exits non-zero if the optimized paths disagree with the baselines
// (kernel entries beyond 1e-12, objectives beyond 1e-6 relative, envelopes
// beyond 1e-9).
//
// Flags: --out PATH (default BENCH_solvers.json); TOLERANCE_BENCH_FULL=1
// runs smax = 2048 (the paper's Fig. 9 end point) instead of 512.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "tolerance/oracles/dense_kernel.hpp"
#include "tolerance/oracles/dense_simplex.hpp"
#include "tolerance/oracles/ip_reference.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"
#include "tolerance/util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace tolerance;
  bench::header("Solver perf — revised simplex + merge-backup IP vs baselines",
                "Fig. 8 / Fig. 9 solver columns");
  std::string out_path = "BENCH_solvers.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_path = argv[i + 1];
  }

  // --- Fig. 9: Algorithm 2 LP ---------------------------------------------
  const int smax = bench::scaled(512, 2048);
  Stopwatch clock;
  const auto cmdp = pomdp::SystemCmdp::parametric(smax, 3, 0.9, 0.95, 0.3,
                                                  1e-4);
  const double t_build = clock.elapsed_seconds();

  clock.reset();
  const auto dense_kernel =
      oracles::dense_parametric_kernel(smax, 0.95, 0.3, 1e-4);
  const double t_build_dense = clock.elapsed_seconds();
  double kernel_diff = 0.0;
  for (int a = 0; a < 2; ++a) {
    for (int s = 0; s <= smax; ++s) {
      for (int next = 0; next <= smax; ++next) {
        kernel_diff = std::max(
            kernel_diff,
            std::fabs(cmdp.trans(s, a, next) -
                      dense_kernel[static_cast<std::size_t>(a)](
                          static_cast<std::size_t>(s),
                          static_cast<std::size_t>(next))));
      }
    }
  }
  const bool kernel_ok = kernel_diff <= 1e-12;

  clock.reset();
  const auto dense = oracles::dense_simplex(solvers::replication_lp(cmdp));
  const double t_dense = clock.elapsed_seconds();

  clock.reset();
  const auto cold = solvers::solve_replication_lp(cmdp);
  const double t_cold = clock.elapsed_seconds();

  clock.reset();
  const auto warm = solvers::solve_replication_lp(cmdp, {}, &cold.basis);
  const double t_warm = clock.elapsed_seconds();

  // The re-solve-after-model-drift workload: the control loop re-estimates
  // the kernel, the optimum moves a little, the old basis still pays off.
  const auto drifted = pomdp::SystemCmdp::parametric(smax, 3, 0.9, 0.945,
                                                     0.31, 1e-4);
  clock.reset();
  const auto drift_sol =
      solvers::solve_replication_lp(drifted, {}, &cold.basis);
  const double t_warm_drift = clock.elapsed_seconds();
  // Gate the drifted warm solve against its own cold baseline: this is the
  // path where a stale basis could silently produce a wrong "optimum".
  const auto drift_cold = solvers::solve_replication_lp(drifted);

  // The binding instance: (14e) binds, so the cold solve pivots.
  constexpr int kBindingSmax = 512;
  const auto binding_cmdp = pomdp::SystemCmdp::parametric(
      kBindingSmax, 3, 0.9, 0.9, 1e-3, 1e-4);
  clock.reset();
  const auto binding_dense =
      oracles::dense_simplex(solvers::replication_lp(binding_cmdp));
  const double t_binding_dense = clock.elapsed_seconds();
  clock.reset();
  const auto binding = solvers::solve_replication_lp(binding_cmdp);
  const double t_binding_cold = clock.elapsed_seconds();

  const bool lp_ok =
      dense.status == lp::LpStatus::Optimal &&
      cold.status == lp::LpStatus::Optimal &&
      warm.status == lp::LpStatus::Optimal &&
      drift_sol.status == lp::LpStatus::Optimal &&
      drift_cold.status == lp::LpStatus::Optimal &&
      std::fabs(cold.average_cost - dense.objective) <=
          1e-6 * (1.0 + dense.objective) &&
      std::fabs(warm.average_cost - dense.objective) <=
          1e-6 * (1.0 + dense.objective) &&
      std::fabs(drift_sol.average_cost - drift_cold.average_cost) <=
          1e-6 * (1.0 + drift_cold.average_cost) &&
      binding_dense.status == lp::LpStatus::Optimal &&
      binding.status == lp::LpStatus::Optimal &&
      std::fabs(binding.average_cost - binding_dense.objective) <=
          1e-6 * (1.0 + binding_dense.objective);
  const double lp_cold_speedup = t_dense / std::max(t_cold, 1e-9);
  const double lp_warm_speedup = t_dense / std::max(t_warm, 1e-9);

  ConsoleTable kernel_table({"fig9 smax", "kernel build", "time (s)",
                             "max |diff| vs dense"});
  kernel_table.add_row({std::to_string(smax), "dense oracle",
                        ConsoleTable::num(t_build_dense, 4), "-"});
  std::ostringstream diff_text;
  diff_text << std::scientific << std::setprecision(2) << kernel_diff;
  kernel_table.add_row({"", "sparse rows", ConsoleTable::num(t_build, 4),
                        diff_text.str()});
  kernel_table.print(std::cout);

  ConsoleTable lp_table({"fig9 smax", "path", "time (s)", "pivots", "eta nnz",
                         "E[s]", "speedup vs dense/scratch"});
  lp_table.add_row({std::to_string(smax), "dense scratch",
                    ConsoleTable::num(t_dense, 3),
                    std::to_string(dense.iterations), "-",
                    ConsoleTable::num(dense.objective, 2), "1.00"});
  lp_table.add_row({"", "revised cold", ConsoleTable::num(t_cold, 3),
                    std::to_string(cold.lp_iterations),
                    std::to_string(cold.lp_eta_nnz),
                    ConsoleTable::num(cold.average_cost, 2),
                    ConsoleTable::num(lp_cold_speedup, 2)});
  lp_table.add_row({"", "revised warm", ConsoleTable::num(t_warm, 3),
                    std::to_string(warm.lp_iterations),
                    std::to_string(warm.lp_eta_nnz),
                    ConsoleTable::num(warm.average_cost, 2),
                    ConsoleTable::num(lp_warm_speedup, 2)});
  lp_table.add_row({std::to_string(kBindingSmax), "binding dense",
                    ConsoleTable::num(t_binding_dense, 3),
                    std::to_string(binding_dense.iterations), "-",
                    ConsoleTable::num(binding_dense.objective, 2), "1.00"});
  lp_table.add_row({"", "binding cold", ConsoleTable::num(t_binding_cold, 3),
                    std::to_string(binding.lp_iterations),
                    std::to_string(binding.lp_eta_nnz),
                    ConsoleTable::num(binding.average_cost, 2),
                    ConsoleTable::num(
                        t_binding_dense / std::max(t_binding_cold, 1e-9), 2)});
  lp_table.print(std::cout);

  // --- Fig. 8: IncrementalPruning at DeltaR = 25 ---------------------------
  const int delta_r = 25;
  const pomdp::NodeModel model(bench::paper_node_params(0.1));
  const auto obs = bench::paper_observation_model();

  clock.reset();
  const auto ip_ref = oracles::solve_cycle_reference(model, obs, delta_r);
  const double t_ip_ref = clock.elapsed_seconds();

  clock.reset();
  const auto ip_fast =
      solvers::IncrementalPruning::solve_cycle(model, obs, delta_r);
  const double t_ip_fast = clock.elapsed_seconds();

  double ip_envelope_diff = 0.0;
  for (int g = 0; g <= 512; ++g) {
    const double b = g / 512.0;
    ip_envelope_diff = std::max(
        ip_envelope_diff,
        std::fabs(solvers::envelope_value(ip_ref.value_functions[0], b) -
                  solvers::envelope_value(ip_fast.value_functions[0], b)));
  }
  const bool ip_ok = ip_envelope_diff <= 1e-9;
  const double ip_speedup = t_ip_ref / std::max(t_ip_fast, 1e-9);

  ConsoleTable ip_table({"fig8 dR", "path", "time (s)", "avg cost",
                         "speedup vs reference"});
  ip_table.add_row({std::to_string(delta_r), "reference backup",
                    ConsoleTable::num(t_ip_ref, 4),
                    ConsoleTable::num(ip_ref.average_cost, 4), "1.00"});
  ip_table.add_row({"", "merge backup", ConsoleTable::num(t_ip_fast, 4),
                    ConsoleTable::num(ip_fast.average_cost, 4),
                    ConsoleTable::num(ip_speedup, 2)});
  ip_table.print(std::cout);

  std::cout << "\nKernel matches the dense oracle (max diff " << kernel_diff
            << "): " << (kernel_ok ? "YES" : "NO — BUG")
            << "   LP optima match: " << (lp_ok ? "YES" : "NO — BUG")
            << "   IP envelopes match (max diff " << ip_envelope_diff
            << "): " << (ip_ok ? "YES" : "NO — BUG") << '\n';

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"solver_perf\",\n"
      << "  \"fig9_lp\": {\n"
      << "    \"smax\": " << smax << ",\n"
      << "    \"seconds_kernel_build\": " << t_build << ",\n"
      << "    \"seconds_kernel_build_dense_oracle\": " << t_build_dense
      << ",\n"
      << "    \"kernel_max_abs_diff\": " << kernel_diff << ",\n"
      << "    \"seconds_dense_scratch\": " << t_dense << ",\n"
      << "    \"pivots_dense\": " << dense.iterations << ",\n"
      << "    \"seconds_revised_cold\": " << t_cold << ",\n"
      << "    \"eta_nnz_markowitz\": " << cold.lp_eta_nnz << ",\n"
      << "    \"pivots_revised_cold\": " << cold.lp_iterations << ",\n"
      << "    \"seconds_revised_warm\": " << t_warm << ",\n"
      << "    \"seconds_warm_kernel_drift\": " << t_warm_drift << ",\n"
      << "    \"cold_speedup\": " << lp_cold_speedup << ",\n"
      << "    \"warm_speedup\": " << lp_warm_speedup << ",\n"
      << "    \"binding_smax\": " << kBindingSmax << ",\n"
      << "    \"binding_seconds_dense_scratch\": " << t_binding_dense << ",\n"
      << "    \"binding_pivots_dense\": " << binding_dense.iterations << ",\n"
      << "    \"binding_seconds_revised_cold\": " << t_binding_cold << ",\n"
      << "    \"binding_pivots_revised_cold\": " << binding.lp_iterations
      << ",\n"
      << "    \"optima_match\": " << (lp_ok ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"fig8_ip\": {\n"
      << "    \"delta_r\": " << delta_r << ",\n"
      << "    \"seconds_reference\": " << t_ip_ref << ",\n"
      << "    \"seconds_merge_backup\": " << t_ip_fast << ",\n"
      << "    \"speedup\": " << ip_speedup << ",\n"
      << "    \"max_envelope_diff\": " << ip_envelope_diff << ",\n"
      << "    \"envelopes_match\": " << (ip_ok ? "true" : "false") << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << out_path << '\n';
  return kernel_ok && lp_ok && ip_ok ? 0 : 1;
}
