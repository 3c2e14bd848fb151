// Full-stack scenario: the complete TOLERANCE pipeline of §VIII plus the
// consensus layer.
//
//  Phase 1 (training, §VIII-A): fit the intrusion-detection channel Ẑ from
//           labeled IDS samples and solve the replication CMDP (Alg. 2).
//  Phase 2 (evaluation): run the emulated testbed under TOLERANCE and under
//           NO-RECOVERY; print T(A), T(R), F(R).
//  Phase 3 (consensus): drive a MinBFT cluster through a Byzantine
//           compromise, a feedback recovery, a crash-triggered view change
//           and a join — the Fig. 17 flows.
#include <iostream>

#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/core/tolerance_system.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"

int main() {
  using namespace tolerance;

  // ---------- Phase 1: training ----------
  Rng rng(2024);
  std::cout << "fitting detector from labeled IDS samples...\n";
  const auto detector = emulation::fit_pooled_detector(2000, 11, 80.0, rng);
  std::cout << "  KL(Zhat(.|H) || Zhat(.|C)) = "
            << detector.kl_healthy_compromised << "\n";
  const auto cmdp = pomdp::SystemCmdp::parametric(13, 1, 0.9, 0.95, 0.3);
  const auto replication = solvers::solve_replication_lp(cmdp);
  std::cout << "  replication thresholds: beta1=" << replication.beta1
            << " beta2=" << replication.beta2 << "\n";

  // ---------- Phase 2: emulation ----------
  core::EvaluationConfig config;
  config.initial_nodes = 6;
  config.delta_r = solvers::kNoBtr;
  config.horizon = 500;
  config.f = 2;
  config.recovery_threshold = 0.76;
  config.node_params.p_attack = 0.1;
  config.testbed.attacker.start_probability = 0.1;

  for (const auto kind :
       {core::StrategyKind::Tolerance, core::StrategyKind::NoRecovery}) {
    config.strategy = kind;
    const core::Evaluator evaluator(
        config, detector,
        kind == core::StrategyKind::Tolerance
            ? std::optional<solvers::CmdpSolution>(replication)
            : std::nullopt);
    const auto r = evaluator.run(7);
    std::cout << "\n" << core::to_string(kind) << " over " << config.horizon
              << " steps:\n"
              << "  T(A) availability       = " << r.availability << "\n"
              << "  T(R) time-to-recovery   = " << r.time_to_recovery
              << " steps\n"
              << "  F(R) recovery frequency = " << r.recovery_frequency << "\n"
              << "  recoveries/additions    = " << r.recoveries << "/"
              << r.additions << "\n";
  }

  // ---------- Phase 3: consensus layer ----------
  std::cout << "\nMinBFT cluster (N=4, f=1):\n";
  consensus::MinBftConfig cfg;
  cfg.f = 1;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  net::LinkConfig link;
  link.loss = 0.0;
  consensus::MinBftCluster cluster(4, cfg, 5, link);
  auto& client = cluster.add_client();
  std::cout << "  write: " << cluster.submit_and_run(client, "x=1").value()
            << "\n";
  cluster.replica(2).set_mode(consensus::ByzantineMode::Random);
  std::cout << "  write with Byzantine replica 2: "
            << cluster.submit_and_run(client, "x=2").value() << "\n";
  cluster.recover_replica(2);  // what a node controller triggers (Fig. 17d)
  std::cout << "  replica 2 recovered, state size "
            << cluster.replica(2).committed_log_size() << "\n";
  cluster.crash_replica(0);  // leader crash => view change (Fig. 17b)
  std::optional<std::string> after;
  client.submit("x=3", [&](std::uint64_t, const std::string& r, double) {
    after = r;
  });
  cluster.run_for(30.0);
  std::cout << "  write after leader crash + view change: " << after.value()
            << " (view " << cluster.replica(1).view() << ")\n";
  const auto joined = cluster.join_new_replica();  // Fig. 17e
  std::cout << "  joined replica " << joined << ", membership now "
            << cluster.replica(1).membership().size() << " nodes\n";
  std::cout << "\ndone — all three phases of the TOLERANCE pipeline ran.\n";
  return 0;
}
