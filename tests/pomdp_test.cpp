#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tolerance/pomdp/assumptions.hpp"
#include "tolerance/pomdp/belief.hpp"
#include "tolerance/pomdp/node_model.hpp"
#include "tolerance/pomdp/node_simulator.hpp"
#include "tolerance/pomdp/observation_model.hpp"
#include "tolerance/pomdp/system_model.hpp"

namespace tolerance::pomdp {
namespace {

NodeParams paper_params() {
  NodeParams p;
  p.p_attack = 0.1;
  p.p_crash_healthy = 1e-5;
  p.p_crash_compromised = 1e-3;
  p.p_update = 2e-2;
  p.eta = 2.0;
  return p;
}

TEST(NodeModel, TransitionRowsSumToOne) {
  const NodeModel m(paper_params());
  for (NodeAction a : {NodeAction::Wait, NodeAction::Recover}) {
    const auto t = m.transition_matrix(a);
    EXPECT_TRUE(t.is_row_stochastic(1e-12));
  }
}

TEST(NodeModel, CrashIsAbsorbing) {
  const NodeModel m(paper_params());
  for (NodeAction a : {NodeAction::Wait, NodeAction::Recover}) {
    EXPECT_DOUBLE_EQ(m.transition(NodeState::Crashed, a, NodeState::Crashed),
                     1.0);
    EXPECT_DOUBLE_EQ(m.transition(NodeState::Crashed, a, NodeState::Healthy),
                     0.0);
  }
}

TEST(NodeModel, RecoveryHealsCompromisedNode) {
  const NodeModel m(paper_params());
  // (2f): recovery succeeds unless re-attacked or crashed.
  EXPECT_NEAR(
      m.transition(NodeState::Compromised, NodeAction::Recover,
                   NodeState::Healthy),
      (1.0 - 0.1) * (1.0 - 1e-3), 1e-12);
  // (2g): waiting heals only via software update.
  EXPECT_NEAR(m.transition(NodeState::Compromised, NodeAction::Wait,
                           NodeState::Healthy),
              (1.0 - 1e-3) * 2e-2, 1e-12);
}

TEST(NodeModel, CostMatchesEquationFive) {
  const NodeModel m(paper_params());
  EXPECT_DOUBLE_EQ(m.cost(NodeState::Healthy, NodeAction::Wait), 0.0);
  EXPECT_DOUBLE_EQ(m.cost(NodeState::Healthy, NodeAction::Recover), 1.0);
  EXPECT_DOUBLE_EQ(m.cost(NodeState::Compromised, NodeAction::Wait), 2.0);
  EXPECT_DOUBLE_EQ(m.cost(NodeState::Compromised, NodeAction::Recover), 1.0);
  EXPECT_DOUBLE_EQ(m.cost(NodeState::Crashed, NodeAction::Wait), 0.0);
  EXPECT_NEAR(m.expected_cost(0.25, NodeAction::Wait), 0.5, 1e-12);
  EXPECT_NEAR(m.expected_cost(0.25, NodeAction::Recover), 1.0, 1e-12);
}

TEST(NodeModel, GeometricFailureTime) {
  // §V-A: with no recoveries, failure (C or ∅) time is geometric with rate
  // 1 - (1-pA)(1-pC1).  Verify via the H-row of the kernel.
  const NodeModel m(paper_params());
  const double stay_healthy =
      m.transition(NodeState::Healthy, NodeAction::Wait, NodeState::Healthy);
  EXPECT_NEAR(stay_healthy, (1.0 - 0.1) * (1.0 - 1e-5), 1e-12);
}

TEST(NodeModel, RejectsInvalidParams) {
  NodeParams p = paper_params();
  p.p_attack = 1.5;
  EXPECT_THROW(NodeModel{p}, std::invalid_argument);
  p = paper_params();
  p.eta = 0.5;
  EXPECT_THROW(NodeModel{p}, std::invalid_argument);
}

TEST(ObservationModel, PaperDefaultIsValid) {
  const auto z = BetaBinObservationModel::paper_default();
  EXPECT_EQ(z.num_observations(), 11);
  EXPECT_TRUE(z.all_positive());   // assumption D
  EXPECT_TRUE(z.is_tp2());         // assumption E
  double total_h = 0.0, total_c = 0.0;
  for (int o = 0; o < z.num_observations(); ++o) {
    total_h += z.prob(o, false);
    total_c += z.prob(o, true);
  }
  EXPECT_NEAR(total_h, 1.0, 1e-10);
  EXPECT_NEAR(total_c, 1.0, 1e-10);
}

TEST(ObservationModel, CompromisedShiftsAlertsUp) {
  const auto z = BetaBinObservationModel::paper_default();
  EXPECT_GT(z.compromised().mean(), z.healthy().mean());
  EXPECT_GT(z.kl(false, true), 0.0);
}

TEST(ObservationModel, EmpiricalEstimateMatchesTruth) {
  const auto truth = BetaBinObservationModel::paper_default();
  Rng rng(99);
  std::vector<int> hs, cs;
  for (int i = 0; i < 25000; ++i) {
    hs.push_back(truth.sample(false, rng));
    cs.push_back(truth.sample(true, rng));
  }
  const auto est = EmpiricalObservationModel::estimate(hs, cs, 11, 0.5);
  EXPECT_TRUE(est.all_positive());
  // D_KL between truth and estimate should be tiny (Glivenko-Cantelli).
  EXPECT_LT(stats::kl_divergence(truth.pmf(true), est.pmf(true)), 5e-3);
  EXPECT_LT(stats::kl_divergence(truth.pmf(false), est.pmf(false)), 5e-3);
}

TEST(ObservationModel, Tp2DetectsNonMonotoneChannel) {
  // A channel whose likelihood ratio dips is not TP-2.
  const auto bad = EmpiricalObservationModel(
      stats::EmpiricalPmf::from_counts({10, 10, 10}, 0.0),
      stats::EmpiricalPmf::from_counts({10, 1, 19}, 0.0));
  EXPECT_FALSE(bad.is_tp2());
}

// ---------------------------------------------------------------------------
// Belief recursion: cross-validated against brute-force trajectory filtering.
// ---------------------------------------------------------------------------

// Brute force P[S_t = C | o_1..o_t, a_1..a_{t-1}, no crash observed] by
// enumerating all hidden-state paths in the 2-state conditional chain.
double brute_force_posterior(const NodeModel& m, const ObservationModel& z,
                             double b1, const std::vector<int>& obs,
                             const std::vector<NodeAction>& actions) {
  const std::size_t t = obs.size();
  // Paths over {H=0, C=1}^t.
  double num = 0.0, denom = 0.0;
  const std::size_t paths = std::size_t{1} << t;
  for (std::size_t mask = 0; mask < paths; ++mask) {
    // Prior over the first state uses the prediction from b1 with action a_1.
    double w = 1.0;
    bool prev_c = false;
    for (std::size_t step = 0; step < t; ++step) {
      const bool cur_c = (mask >> step) & 1;
      if (step == 0) {
        const double pc = b1 * m.conditional_transition(true, actions[0], true) +
                          (1.0 - b1) *
                              m.conditional_transition(false, actions[0], true);
        w *= cur_c ? pc : 1.0 - pc;
      } else {
        w *= m.conditional_transition(prev_c, actions[step], cur_c);
      }
      w *= z.prob(obs[step], cur_c);
      prev_c = cur_c;
    }
    denom += w;
    if (prev_c) num += w;
  }
  return num / denom;
}

TEST(Belief, MatchesBruteForceFiltering) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const BeliefUpdater updater(m, z);

  const double b1 = 0.1;
  const std::vector<int> obs{7, 2, 9, 1, 5};
  const std::vector<NodeAction> actions{NodeAction::Wait, NodeAction::Wait,
                                        NodeAction::Recover, NodeAction::Wait,
                                        NodeAction::Wait};
  double b = b1;
  for (std::size_t t = 0; t < obs.size(); ++t) {
    b = updater.update(b, actions[t], obs[t]);
    const double expected = brute_force_posterior(
        m, z,
        b1, std::vector<int>(obs.begin(), obs.begin() + static_cast<long>(t) + 1),
        std::vector<NodeAction>(actions.begin(),
                                actions.begin() + static_cast<long>(t) + 1));
    EXPECT_NEAR(b, expected, 1e-10) << "t=" << t;
  }
}

TEST(Belief, HighAlertsRaiseBelief) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const BeliefUpdater updater(m, z);
  const double up = updater.update(0.2, NodeAction::Wait, 10);
  const double down = updater.update(0.2, NodeAction::Wait, 0);
  EXPECT_GT(up, 0.2);
  EXPECT_LT(down, 0.2);
}

TEST(Belief, RecoveryResetsTowardAttackProbability) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const BeliefUpdater updater(m, z);
  // After recovery the predicted compromise probability is pA regardless of
  // the prior belief (conditional kernel rows are equal under R).
  EXPECT_NEAR(updater.predict(0.9, NodeAction::Recover), 0.1, 1e-12);
  EXPECT_NEAR(updater.predict(0.1, NodeAction::Recover), 0.1, 1e-12);
}

TEST(Belief, MonotoneInPriorBelief) {
  // Property: the posterior is non-decreasing in the prior (TP-2 channel).
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const BeliefUpdater updater(m, z);
  for (int o = 0; o <= 10; ++o) {
    double prev = -1.0;
    for (double b = 0.0; b <= 1.0; b += 0.05) {
      const double post = updater.update(b, NodeAction::Wait, o);
      EXPECT_GE(post, prev - 1e-12) << "o=" << o << " b=" << b;
      prev = post;
    }
  }
}

TEST(NodeSimulator, NoRecoveryPolicyAccumulatesCost) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const NodeSimulator sim(m, z);
  Rng rng(1);
  const auto never = [](double, int) { return NodeAction::Wait; };
  const auto stats = sim.run_many(never, 500, 20, rng);
  EXPECT_EQ(stats.num_recoveries, 0);
  EXPECT_DOUBLE_EQ(stats.recovery_frequency, 0.0);
  // With pA = 0.1 and pU = 0.02 the node spends most time compromised.
  EXPECT_GT(stats.avg_cost, 1.0);
  // With pU = 0.02, an unrecovered compromise resolves only via software
  // update (mean 50 steps) or the horizon; T(R) is a few dozen steps.
  EXPECT_GT(stats.avg_time_to_recovery, 25.0);
  EXPECT_LT(stats.availability, 0.4);
}

TEST(NodeSimulator, AlwaysRecoverPolicyPaysRecoveryCost) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const NodeSimulator sim(m, z);
  Rng rng(2);
  const auto always = [](double, int) { return NodeAction::Recover; };
  const auto stats = sim.run(always, 400, rng);
  EXPECT_NEAR(stats.recovery_frequency, 1.0, 1e-12);
  // Cost ~= 1 per step (every step is a recovery).
  EXPECT_NEAR(stats.avg_cost, 1.0, 0.15);
  EXPECT_GT(stats.availability, 0.8);
}

TEST(NodeSimulator, ThresholdPolicyBeatsExtremes) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const NodeSimulator sim(m, z);
  Rng rng(3);
  const auto never = [](double, int) { return NodeAction::Wait; };
  const auto always = [](double, int) { return NodeAction::Recover; };
  const auto threshold = [](double b, int) {
    return b >= 0.75 ? NodeAction::Recover : NodeAction::Wait;
  };
  const auto s_never = sim.run_many(never, 400, 30, rng);
  const auto s_always = sim.run_many(always, 400, 30, rng);
  const auto s_thresh = sim.run_many(threshold, 400, 30, rng);
  EXPECT_LT(s_thresh.avg_cost, s_never.avg_cost);
  EXPECT_LT(s_thresh.avg_cost, s_always.avg_cost);
}

TEST(NodeSimulator, FeedbackRecoversQuickly) {
  // The headline Table 7 behaviour: belief-threshold recovery has
  // time-to-recovery of a couple of steps.
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const NodeSimulator sim(m, z);
  Rng rng(4);
  const auto threshold = [](double b, int) {
    return b >= 0.75 ? NodeAction::Recover : NodeAction::Wait;
  };
  const auto stats = sim.run_many(threshold, 1000, 20, rng);
  EXPECT_GT(stats.num_compromises, 0);
  EXPECT_LT(stats.avg_time_to_recovery, 6.0);
  EXPECT_GT(stats.availability, 0.75);
}

// ---------------------------------------------------------------------------
// System CMDP
// ---------------------------------------------------------------------------

// la::Matrix::is_row_stochastic's check, read through trans(): every entry
// of f_S(. | s, a) lies in [-tol, 1 + tol] and every row sums to 1 +- tol.
bool rows_are_stochastic(const SystemCmdp& cmdp, double tol) {
  for (int a = 0; a < 2; ++a) {
    for (int s = 0; s < cmdp.num_states(); ++s) {
      double sum = 0.0;
      for (int next = 0; next < cmdp.num_states(); ++next) {
        const double v = cmdp.trans(s, a, next);
        if (v < -tol || v > 1.0 + tol) return false;
        sum += v;
      }
      if (std::fabs(sum - 1.0) > tol) return false;
    }
  }
  return true;
}

TEST(SystemCmdp, ParametricKernelIsStochastic) {
  const auto cmdp = SystemCmdp::parametric(10, 3, 0.9, 0.9, 0.6);
  EXPECT_TRUE(rows_are_stochastic(cmdp, 1e-9));
  EXPECT_EQ(cmdp.num_states(), 11);
}

TEST(SystemCmdp, AddActionShiftsMassUp) {
  const auto cmdp = SystemCmdp::parametric(10, 3, 0.9, 0.9, 0.3);
  // Expected next state under a=1 exceeds a=0 from every state.
  for (int s = 0; s <= 10; ++s) {
    double e0 = 0.0, e1 = 0.0;
    for (int j = 0; j <= 10; ++j) {
      e0 += j * cmdp.trans(s, 0, j);
      e1 += j * cmdp.trans(s, 1, j);
    }
    EXPECT_GT(e1, e0) << "s=" << s;
  }
}

TEST(SystemCmdp, AvailabilityIndicator) {
  const auto cmdp = SystemCmdp::parametric(10, 3, 0.9, 0.9, 0.3);
  EXPECT_FALSE(cmdp.available(3));
  EXPECT_TRUE(cmdp.available(4));
  EXPECT_DOUBLE_EQ(cmdp.cost(7), 7.0);
}

TEST(SystemCmdp, Theorem2AssumptionsOnParametricKernel) {
  const auto cmdp = SystemCmdp::parametric(8, 2, 0.9, 0.95, 0.4, 1e-4);
  const auto report = check_theorem2(cmdp);
  EXPECT_TRUE(report.b_full_support);   // mix > 0 guarantees this
  EXPECT_TRUE(report.c_monotone);       // binomial survival is FOSD-monotone
}

TEST(SystemCmdp, Theorem2ViolationDetected) {
  // A kernel that moves *down* when s grows violates C.
  la::Matrix k0(3, 3, 1e-6);
  k0(0, 2) = 1.0; k0(1, 1) = 1.0; k0(2, 0) = 1.0;
  for (std::size_t r = 0; r < 3; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < 3; ++c) total += k0(r, c);
    for (std::size_t c = 0; c < 3; ++c) k0(r, c) /= total;
  }
  const SystemCmdp cmdp(2, 0, 0.9, k0, k0);
  const auto report = check_theorem2(cmdp);
  EXPECT_FALSE(report.c_monotone);
  EXPECT_FALSE(report.violations().empty());
}

TEST(SystemCmdp, EstimatedKernelFromNodeSimulation) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  Rng rng(5);
  const auto policy = [](double b, int) {
    return b >= 0.75 ? NodeAction::Recover : NodeAction::Wait;
  };
  const auto cmdp = SystemCmdp::estimate_from_node_simulation(
      10, 3, 0.9, m, z, policy, 4, 500, rng);
  EXPECT_TRUE(rows_are_stochastic(cmdp, 1e-7));
  // Under an effective recovery policy, the healthy count concentrates at
  // high values: from s = 10, the most likely next state stays >= 8.
  double mass_high = 0.0;
  for (int j = 8; j <= 10; ++j) mass_high += cmdp.trans(10, 0, j);
  EXPECT_GT(mass_high, 0.5);
}

TEST(SystemCmdp, StepSamplesFromKernel) {
  const auto cmdp = SystemCmdp::parametric(6, 1, 0.9, 0.9, 0.5);
  Rng rng(6);
  double total = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) total += cmdp.step(6, 0, rng);
  double expected = 0.0;
  for (int j = 0; j <= 6; ++j) expected += j * cmdp.trans(6, 0, j);
  EXPECT_NEAR(total / trials, expected, 0.05);
}

TEST(Theorem1, PaperParametersSatisfyAssumptions) {
  const NodeModel m(paper_params());
  const auto z = BetaBinObservationModel::paper_default();
  const auto report = check_theorem1(m, z);
  EXPECT_TRUE(report.a_probabilities_interior);
  EXPECT_TRUE(report.b_attack_update_bounded);
  EXPECT_TRUE(report.c_crash_gap);
  EXPECT_TRUE(report.d_observations_positive);
  EXPECT_TRUE(report.e_tp2);
  EXPECT_TRUE(report.all());
  EXPECT_TRUE(report.violations().empty());
}

TEST(Theorem1, ViolationsReported) {
  NodeParams p = paper_params();
  p.p_attack = 0.6;
  p.p_update = 0.6;  // violates B
  const NodeModel m(p);
  const auto z = BetaBinObservationModel::paper_default();
  const auto report = check_theorem1(m, z);
  EXPECT_FALSE(report.b_attack_update_bounded);
  EXPECT_FALSE(report.all());
  EXPECT_FALSE(report.violations().empty());
}

}  // namespace
}  // namespace tolerance::pomdp
