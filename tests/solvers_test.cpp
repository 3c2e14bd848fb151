#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "tolerance/oracles/dense_kernel.hpp"
#include "tolerance/oracles/dense_simplex.hpp"
#include "tolerance/oracles/ip_reference.hpp"
#include "tolerance/pomdp/assumptions.hpp"
#include "tolerance/solvers/bayesopt.hpp"
#include "tolerance/solvers/cem.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/de.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"
#include "tolerance/solvers/objective.hpp"
#include "tolerance/solvers/spsa.hpp"
#include "tolerance/solvers/threshold_policy.hpp"
#include "tolerance/stats/distributions.hpp"
#include "tolerance/stats/special.hpp"

namespace tolerance::solvers {
namespace {

using pomdp::NodeAction;
using pomdp::NodeModel;
using pomdp::NodeParams;

NodeParams paper_params() {
  NodeParams p;
  p.p_attack = 0.1;
  p.p_crash_healthy = 1e-5;
  p.p_crash_compromised = 1e-3;
  p.p_update = 2e-2;
  p.eta = 2.0;
  return p;
}

// ---------------------------------------------------------------------------
// Threshold policies (Alg. 1)
// ---------------------------------------------------------------------------

TEST(ThresholdPolicy, DimensionMatchesAlgorithmOne) {
  EXPECT_EQ(ThresholdPolicy::dimension(kNoBtr), 1);
  EXPECT_EQ(ThresholdPolicy::dimension(5), 4);
  EXPECT_EQ(ThresholdPolicy::dimension(25), 24);
  EXPECT_EQ(ThresholdPolicy::dimension(1), 1);
}

TEST(ThresholdPolicy, BtrForcesRecoveryAtCycleBoundary) {
  const ThresholdPolicy policy({1.0, 1.0, 1.0, 1.0}, 5);
  // Thresholds of 1.0 mean "never recover voluntarily", so only the BTR
  // constraint (6b) fires: at t = 5, 10, 15, ...
  for (int t = 1; t <= 20; ++t) {
    const auto a = policy.action(0.5, t);
    if (t % 5 == 0) {
      EXPECT_EQ(a, NodeAction::Recover) << "t=" << t;
    } else {
      EXPECT_EQ(a, NodeAction::Wait) << "t=" << t;
    }
  }
}

TEST(ThresholdPolicy, ThresholdRule) {
  const ThresholdPolicy policy = ThresholdPolicy::constant(0.7);
  EXPECT_EQ(policy.action(0.69, 1), NodeAction::Wait);
  EXPECT_EQ(policy.action(0.70, 1), NodeAction::Recover);
  EXPECT_EQ(policy.action(0.71, 100), NodeAction::Recover);
}

TEST(ThresholdPolicy, PerStepThresholdsWithinCycle) {
  const ThresholdPolicy policy({0.2, 0.9}, 3);
  // Cycle position 1 uses theta_1 = 0.2; position 2 uses theta_2 = 0.9;
  // position 3 is forced.
  EXPECT_EQ(policy.action(0.5, 1), NodeAction::Recover);
  EXPECT_EQ(policy.action(0.5, 2), NodeAction::Wait);
  EXPECT_EQ(policy.action(0.5, 3), NodeAction::Recover);
  EXPECT_EQ(policy.action(0.5, 4), NodeAction::Recover);  // next cycle pos 1
}

TEST(ThresholdPolicy, RejectsWrongDimension) {
  EXPECT_THROW(ThresholdPolicy({0.5, 0.5}, 5), std::invalid_argument);
  EXPECT_THROW(ThresholdPolicy({1.5}, kNoBtr), std::invalid_argument);
}

TEST(RecoveryObjective, ExtremesAreCostly) {
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  RecoveryObjective::Options opts;
  opts.episodes = 30;
  opts.horizon = 200;
  const RecoveryObjective objective(model, obs, kNoBtr, opts);
  const double never = objective({1.0});
  const double always = objective({0.0});
  const double sensible = objective({0.8});
  EXPECT_LT(sensible, never);
  EXPECT_LT(sensible, always);
}

TEST(RecoveryObjective, DeterministicUnderCommonRandomNumbers) {
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const RecoveryObjective objective(model, obs, 15, {});
  const std::vector<double> theta(ThresholdPolicy::dimension(15), 0.7);
  EXPECT_DOUBLE_EQ(objective(theta), objective(theta));
}

// ---------------------------------------------------------------------------
// Black-box optimizers on analytic test functions
// ---------------------------------------------------------------------------

double sphere(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += (v - 0.3) * (v - 0.3);
  return s;
}

double rastrigin_like(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) {
    const double z = (v - 0.6) * 6.0;
    s += z * z - 3.0 * std::cos(2.0 * M_PI * z) + 3.0;
  }
  return s;
}

TEST(Cem, FindsSphereMinimum) {
  Rng rng(1);
  const auto res = CrossEntropyMethod().optimize(sphere, 4, 3000, rng);
  EXPECT_LT(res.best_value, 1e-3);
  for (double v : res.best_x) EXPECT_NEAR(v, 0.3, 0.05);
  EXPECT_LE(res.evaluations, 3000);
  EXPECT_FALSE(res.history.empty());
}

TEST(De, FindsSphereMinimum) {
  // The Table 8 configuration (K=10, F=0.2, CR=0.7) converges steadily but
  // not fast; test it on a low-dimensional sphere where it is reliable.
  Rng rng(2);
  const auto res = DifferentialEvolution().optimize(sphere, 2, 4000, rng);
  EXPECT_LT(res.best_value, 1e-2);
  for (double v : res.best_x) EXPECT_NEAR(v, 0.3, 0.1);
}

TEST(De, HandlesMultimodalObjective) {
  Rng rng(3);
  const auto res = DifferentialEvolution().optimize(rastrigin_like, 3, 6000, rng);
  EXPECT_LT(res.best_value, 0.5);
}

TEST(Cem, HistoryIsMonotoneNonIncreasing) {
  Rng rng(4);
  const auto res = CrossEntropyMethod().optimize(sphere, 5, 2000, rng);
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_LE(res.history[i].best_value, res.history[i - 1].best_value);
  }
}

TEST(Spsa, PaperHyperparametersStruggle) {
  // Table 8's c = 10 perturbation is far too large for the unit cube; the
  // paper reports SPSA failing to converge.  Verify it underperforms CEM on
  // the same budget (this is a reproduction of a negative result).
  Rng rng_a(5);
  Rng rng_b(5);
  const auto spsa = Spsa().optimize(rastrigin_like, 4, 2000, rng_a);
  const auto cem = CrossEntropyMethod().optimize(rastrigin_like, 4, 2000, rng_b);
  EXPECT_GE(spsa.best_value, cem.best_value - 1e-9);
}

TEST(Spsa, SaneGainsConverge) {
  Spsa::Options opts;
  opts.c = 0.1;
  opts.a = 0.2;
  opts.big_a = 10.0;
  Rng rng(6);
  const auto res = Spsa(opts).optimize(sphere, 3, 4000, rng);
  EXPECT_LT(res.best_value, 0.05);
}

TEST(BayesOpt, FindsSphereMinimumWithFewEvaluations) {
  Rng rng(7);
  BayesianOptimization::Options opts;
  const auto res = BayesianOptimization(opts).optimize(sphere, 2, 60, rng);
  EXPECT_LT(res.best_value, 0.02);
  EXPECT_LE(res.evaluations, 60);
}

TEST(AllOptimizers, RespectEvaluationBudget) {
  Rng rng(8);
  for (const ParametricOptimizer* opt :
       std::initializer_list<const ParametricOptimizer*>{}) {
    (void)opt;
  }
  const CrossEntropyMethod cem;
  const DifferentialEvolution de;
  const Spsa spsa;
  const BayesianOptimization bo;
  const std::vector<const ParametricOptimizer*> all{&cem, &de, &spsa, &bo};
  for (const auto* opt : all) {
    long count = 0;
    const ObjectiveFn counted = [&count](const std::vector<double>& x) {
      ++count;
      return sphere(x);
    };
    const auto res = opt->optimize(counted, 3, 50, rng);
    EXPECT_LE(count, 51) << opt->name();
    EXPECT_EQ(res.evaluations, count) << opt->name();
  }
}

// ---------------------------------------------------------------------------
// Incremental pruning
// ---------------------------------------------------------------------------

TEST(Prune, KeepsOnlyLowerEnvelope) {
  std::vector<AlphaVector> alphas{
      {0.0, 1.0, NodeAction::Wait},   // line b
      {1.0, 0.0, NodeAction::Recover},// line 1-b
      {2.0, 2.0, NodeAction::Wait},   // dominated everywhere
      {0.5, 0.5, NodeAction::Wait},   // useful in the middle
  };
  const auto kept = prune(alphas);
  // The constant 0.5 line touches the envelope only at the single point
  // b = 0.5, so 2 or 3 survivors are both valid; the dominated line is gone.
  EXPECT_GE(kept.size(), 2u);
  EXPECT_LE(kept.size(), 3u);
  for (const auto& a : kept) {
    EXPECT_FALSE(a.v_healthy == 2.0 && a.v_compromised == 2.0);
  }
  // Envelope values must be unchanged by pruning.
  for (double b = 0.0; b <= 1.0; b += 0.01) {
    EXPECT_NEAR(envelope_value(kept, b), envelope_value(alphas, b), 1e-12);
  }
}

TEST(Prune, ParallelLinesKeepLowest) {
  std::vector<AlphaVector> alphas{
      {1.0, 2.0, NodeAction::Wait},
      {0.5, 1.5, NodeAction::Recover},  // same slope, lower
  };
  const auto kept = prune(alphas);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].v_healthy, 0.5);
}

TEST(Prune, LpDominationAgreesWithHullSweep) {
  // Lark's LP-domination pruning (the oracle, running on the sparse revised
  // simplex) must keep exactly the hull sweep's survivors.
  Rng rng(515);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<AlphaVector> alphas;
    const int n = 3 + rng.uniform_int(10);
    for (int i = 0; i < n; ++i) {
      alphas.push_back({rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
                        rng.bernoulli(0.5) ? NodeAction::Wait
                                           : NodeAction::Recover});
    }
    const auto sweep = prune(alphas);
    const auto lark = oracles::prune_lp(alphas);
    ASSERT_EQ(sweep.size(), lark.size()) << "trial " << trial;
    // Same envelope either way.
    for (int g = 0; g <= 100; ++g) {
      const double b = g / 100.0;
      EXPECT_NEAR(envelope_value(sweep, b), envelope_value(lark, b), 1e-9)
          << "trial " << trial << " b=" << b;
    }
  }
}

TEST(Prune, MaxAlphaCapIsConfigurable) {
  // A dense fan of tangent lines to a smooth convex function: every line is
  // on the envelope, so pruning keeps all n until the cap bites.
  std::vector<AlphaVector> alphas;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    // Tangent of the concave f(b) = -(b - 1/2)^2 at t = i/(n-1): every
    // tangent attains the lower envelope on its own segment, so all n
    // survive exact pruning and only the cap shrinks the set.
    const double t = static_cast<double>(i) / (n - 1);
    const double ft = -(t - 0.5) * (t - 0.5);
    const double dft = -2.0 * (t - 0.5);
    alphas.push_back({ft - dft * t, ft + dft * (1.0 - t), NodeAction::Wait});
  }
  const auto def = prune(alphas);
  EXPECT_LE(def.size(), 2u * 64u + 1u);
  const auto small = prune(alphas, 1e-12, 8);
  EXPECT_LE(small.size(), 2u * 8u + 1u);
  EXPECT_LT(small.size(), def.size());
  // The capped set still tracks the envelope to bounded error.
  for (int g = 0; g <= 100; ++g) {
    const double b = g / 100.0;
    EXPECT_NEAR(envelope_value(small, b), envelope_value(alphas, b), 0.05);
  }
}

TEST(IncrementalPruning, MergeBackupMatchesReferenceBackup) {
  // The breakpoint-merge cross-sum must reproduce the enumerate-and-prune
  // backup of the oracle: identical envelopes (the Fig. 4 alpha-set
  // regression) at every stage of the cycle solve.
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto ref = oracles::solve_cycle_reference(model, obs, 40);
  const auto fast = IncrementalPruning::solve_cycle(model, obs, 40);
  ASSERT_EQ(ref.value_functions.size(), fast.value_functions.size());
  EXPECT_NEAR(ref.average_cost, fast.average_cost, 1e-12);
  for (std::size_t t = 0; t < ref.value_functions.size(); ++t) {
    ASSERT_EQ(ref.value_functions[t].size(), fast.value_functions[t].size())
        << "stage " << t;
    for (int g = 0; g <= 256; ++g) {
      const double b = g / 256.0;
      EXPECT_NEAR(envelope_value(ref.value_functions[t], b),
                  envelope_value(fast.value_functions[t], b), 1e-12)
          << "stage " << t << " b=" << b;
    }
  }
}

TEST(IncrementalPruning, Fig4AlphaSetRegressionPin) {
  // Pins the Fig. 4 solve (paper parameters, DeltaR = 100) across solver
  // rewrites: cycle-average cost, recovery threshold and alpha-set size.
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto result = IncrementalPruning::solve_cycle(model, obs, 100);
  EXPECT_NEAR(result.average_cost, 0.294624995, 1e-6);
  EXPECT_NEAR(IncrementalPruning::recovery_threshold(result.value_functions[0]),
              0.278464678, 1e-6);
  EXPECT_EQ(result.value_functions[0].size(), 38u);
}

TEST(IncrementalPruning, RecoveryThresholdMatchesGridScanOracle) {
  // The hull-breakpoint threshold must agree with the old grid-scan +
  // bisection oracle on solved value functions.
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto result = IncrementalPruning::solve_cycle(model, obs, 15);
  for (const auto& v : result.value_functions) {
    const double fast = IncrementalPruning::recovery_threshold(v);
    // Oracle: coarse scan for the first Recover point, bisection refine.
    const int grid = 4096;
    double lo = -1.0;
    for (int g = 0; g <= grid; ++g) {
      const double b = static_cast<double>(g) / grid;
      if (envelope_action(v, b) == NodeAction::Recover) {
        lo = b;
        break;
      }
    }
    double oracle = 1.0;
    if (lo == 0.0) {
      oracle = 0.0;
    } else if (lo > 0.0) {
      double left = lo - 1.0 / grid;
      double right = lo;
      for (int i = 0; i < 50; ++i) {
        const double mid = 0.5 * (left + right);
        (envelope_action(v, mid) == NodeAction::Recover ? right : left) = mid;
      }
      oracle = right;
    }
    EXPECT_NEAR(fast, oracle, 1e-6);
  }
}

TEST(IncrementalPruning, ValueFunctionIsConcaveEnvelope) {
  // For a minimization POMDP the value function (lower envelope of lines) is
  // concave; check midpoint concavity on the first-stage value (Fig. 4).
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto result = IncrementalPruning::solve_cycle(model, obs, 10);
  const auto& v1 = result.value_functions[0];
  EXPECT_FALSE(v1.empty());
  for (double b = 0.1; b <= 0.9; b += 0.1) {
    const double mid = envelope_value(v1, b);
    const double avg = 0.5 * (envelope_value(v1, b - 0.1) +
                              envelope_value(v1, b + 0.1));
    EXPECT_GE(mid, avg - 1e-9) << "b=" << b;
  }
}

TEST(IncrementalPruning, OptimalPolicyHasThresholdStructure) {
  // Theorem 1: for every stage the action is Wait below a threshold and
  // Recover above it.
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto result = IncrementalPruning::solve_cycle(model, obs, 15);
  for (std::size_t t = 0; t + 1 < result.value_functions.size(); ++t) {
    const auto& v = result.value_functions[t];
    bool seen_recover = false;
    for (int g = 0; g <= 200; ++g) {
      const double b = g / 200.0;
      const bool recover = envelope_action(v, b) == NodeAction::Recover;
      if (seen_recover) {
        EXPECT_TRUE(recover) << "t=" << t << " b=" << b
                             << ": Wait region above Recover region";
      }
      seen_recover = seen_recover || recover;
    }
  }
}

TEST(IncrementalPruning, ThresholdsNonDecreasingWithinCycle) {
  // Corollary 1: alpha*_{t+1} >= alpha*_t within a recovery cycle.  The
  // tolerance absorbs the bounded-error pruning noise (~1e-5); the
  // structural claim is that thresholds never drop materially and rise
  // sharply towards the forced recovery at the end of the cycle.
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto result = IncrementalPruning::solve_cycle(model, obs, 20);
  double prev = 0.0;
  double first = -1.0, last = -1.0;
  for (std::size_t t = 0; t + 1 < result.value_functions.size(); ++t) {
    const double th =
        IncrementalPruning::recovery_threshold(result.value_functions[t]);
    if (first < 0.0) first = th;
    last = th;
    EXPECT_GE(th, prev - 1e-3) << "t=" << t;
    prev = th;
  }
  EXPECT_GT(last, first + 0.05) << "thresholds must rise within the cycle";
}

TEST(IncrementalPruning, DiscountedSolveConverges) {
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto result =
      IncrementalPruning::solve_discounted(model, obs, 0.95, 1e-7, 5000);
  EXPECT_TRUE(result.converged);
  const double th =
      IncrementalPruning::recovery_threshold(result.value_functions[0]);
  EXPECT_GT(th, 0.05);
  EXPECT_LT(th, 1.0);
}

TEST(IncrementalPruning, MatchesBestThresholdPolicy) {
  // The DP value at b1 should not exceed (up to MC noise) the cost of the
  // best constant-threshold policy found by grid search: IP is optimal.
  const NodeModel model(paper_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const int delta_r = 8;
  const auto ip = IncrementalPruning::solve_cycle(model, obs, delta_r);

  RecoveryObjective::Options opts;
  opts.episodes = 200;
  opts.horizon = 200;
  const RecoveryObjective objective(model, obs, delta_r, opts);
  double best = std::numeric_limits<double>::infinity();
  for (double th = 0.0; th <= 1.0; th += 0.1) {
    best = std::min(best,
                    objective(std::vector<double>(
                        ThresholdPolicy::dimension(delta_r), th)));
  }
  EXPECT_LT(ip.average_cost, best + 0.05);
}

// ---------------------------------------------------------------------------
// CMDP LP (Alg. 2)
// ---------------------------------------------------------------------------

TEST(CmdpLp, WarmStartReusesPreviousBasis) {
  const auto cmdp = pomdp::SystemCmdp::parametric(24, 3, 0.9, 0.95, 0.3);
  const auto cold = solve_replication_lp(cmdp);
  ASSERT_EQ(cold.status, lp::LpStatus::Optimal);
  ASSERT_FALSE(cold.basis.empty());
  // Re-solve the same CMDP from the optimal basis: no pivots needed.
  const auto warm = solve_replication_lp(cmdp, {}, &cold.basis);
  ASSERT_EQ(warm.status, lp::LpStatus::Optimal);
  EXPECT_NEAR(warm.average_cost, cold.average_cost, 1e-9);
  EXPECT_NEAR(warm.availability, cold.availability, 1e-9);
  EXPECT_LE(warm.lp_iterations, 3);
  EXPECT_NE(warm.warm_start, lp::WarmStart::None);
  // Epsilon_A sweep re-solve from the same basis must equal a cold solve.
  const auto cmdp2 = pomdp::SystemCmdp::parametric(24, 3, 0.93, 0.95, 0.3);
  const auto swept = solve_replication_lp(cmdp2, {}, &cold.basis);
  const auto swept_cold = solve_replication_lp(cmdp2);
  ASSERT_EQ(swept.status, lp::LpStatus::Optimal);
  EXPECT_NEAR(swept.average_cost, swept_cold.average_cost, 1e-7);
  EXPECT_GE(swept.availability, 0.93 - 1e-6);
}

TEST(CmdpLp, DenseOracleAgreesWithRevisedCore) {
  for (const int smax : {8, 13, 24}) {
    const auto cmdp = pomdp::SystemCmdp::parametric(smax, 3, 0.9, 0.95, 0.3);
    const auto a = oracles::dense_simplex(replication_lp(cmdp));
    const auto b = solve_replication_lp(cmdp);
    ASSERT_EQ(a.status, lp::LpStatus::Optimal) << "smax=" << smax;
    ASSERT_EQ(b.status, lp::LpStatus::Optimal) << "smax=" << smax;
    EXPECT_NEAR(a.objective, b.average_cost, 1e-8 * (1.0 + a.objective))
        << "smax=" << smax;
    // rho(s, a) sits at index 2*s + a.
    double availability = 0.0;
    for (int s = 0; s < cmdp.num_states(); ++s) {
      if (!cmdp.available(s)) continue;
      for (int act = 0; act < 2; ++act) {
        availability +=
            std::max(0.0, a.x[static_cast<std::size_t>(2 * s + act)]);
      }
    }
    EXPECT_NEAR(availability, b.availability, 1e-6) << "smax=" << smax;
  }
}

TEST(CmdpLp, SolvesPaperScaleInstance) {
  // smax = 13, f = 3 style instance (Appendix E Fig. 9 parameters scaled).
  const auto cmdp = pomdp::SystemCmdp::parametric(13, 3, 0.9, 0.95, 0.3);
  const auto sol = solve_replication_lp(cmdp);
  ASSERT_EQ(sol.status, lp::LpStatus::Optimal);
  EXPECT_GE(sol.availability, 0.9 - 1e-6);  // (14e)
  EXPECT_GT(sol.average_cost, 0.0);
  // Occupancy sums to one.
  double total = 0.0;
  for (const auto& rho : sol.occupancy) total += rho[0] + rho[1];
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(CmdpLp, OccupancySatisfiesFlowBalance) {
  const auto cmdp = pomdp::SystemCmdp::parametric(8, 2, 0.85, 0.9, 0.4);
  const auto sol = solve_replication_lp(cmdp);
  ASSERT_EQ(sol.status, lp::LpStatus::Optimal);
  for (int s = 0; s < cmdp.num_states(); ++s) {
    double lhs = sol.occupancy[static_cast<std::size_t>(s)][0] +
                 sol.occupancy[static_cast<std::size_t>(s)][1];
    double rhs = 0.0;
    for (int sp = 0; sp < cmdp.num_states(); ++sp) {
      for (int a = 0; a < 2; ++a) {
        rhs += sol.occupancy[static_cast<std::size_t>(sp)]
                            [static_cast<std::size_t>(a)] *
               cmdp.trans(sp, a, s);
      }
    }
    EXPECT_NEAR(lhs, rhs, 1e-6) << "s=" << s;
  }
}

TEST(CmdpLp, PolicyHasThresholdMixtureStructure) {
  // Theorem 2: at most one randomized state; add-probability non-increasing
  // in s (more healthy nodes => less need to add).
  const auto cmdp = pomdp::SystemCmdp::parametric(13, 3, 0.9, 0.95, 0.3);
  const auto sol = solve_replication_lp(cmdp);
  ASSERT_EQ(sol.status, lp::LpStatus::Optimal);
  EXPECT_LE(sol.num_randomized_states, 1);
  for (std::size_t s = 1; s < sol.add_probability.size(); ++s) {
    EXPECT_LE(sol.add_probability[s], sol.add_probability[s - 1] + 1e-6)
        << "s=" << s;
  }
  EXPECT_LE(sol.beta1, sol.beta2);
}

// Thm. 2's thresholds read off an occupancy rho(s, a) = x[2s + a] of the
// dense tableau: beta2 is the largest visited state that adds at all, beta1
// the largest that always adds, kappa the add probability of the one
// randomized state.
struct Mixture {
  int beta1 = -1;
  int beta2 = -1;
  double kappa = 1.0;
};

Mixture dense_mixture(const lp::LpSolution& dense, int num_states) {
  constexpr double kVisited = 1e-6;
  Mixture m;
  for (int s = 0; s < num_states; ++s) {
    const double keep = std::max(0.0, dense.x[static_cast<std::size_t>(2 * s)]);
    const double add =
        std::max(0.0, dense.x[static_cast<std::size_t>(2 * s + 1)]);
    if (keep + add <= kVisited) continue;
    const double p = add / (keep + add);
    if (p > kVisited) m.beta2 = s;
    if (p >= 1.0 - kVisited) m.beta1 = s;
    if (p > kVisited && p < 1.0 - kVisited) m.kappa = p;
  }
  return m;
}

// Without a caller basis the solve crashes from the never-add policy
// rho(s, 0).  Where never-add already meets epsilon_A (the level-2 operating
// point) that crash is the optimum: one factorization, no pivot.  Where
// (14e) binds, dual repair raises the add threshold to Thm. 2's mixture,
// the dense tableau's optimum.
TEST(CmdpLp, ColdSolveStartsFromTheNeverAddPolicy) {
  const auto slack = pomdp::SystemCmdp::parametric(
      128, 3, 0.9, 0.9 * (1.0 - 1e-5), 0.02 + 0.2 * 0.76);
  const auto sol = solve_replication_lp(slack);
  ASSERT_EQ(sol.status, lp::LpStatus::Optimal);
  EXPECT_EQ(sol.lp_iterations, 0);
  EXPECT_EQ(sol.warm_start, lp::WarmStart::PrimalReuse);
  EXPECT_EQ(sol.beta1, -1);
  EXPECT_EQ(sol.beta2, -1);
  const auto oracle = oracles::dense_simplex(replication_lp(slack));
  ASSERT_EQ(oracle.status, lp::LpStatus::Optimal);
  EXPECT_NEAR(sol.average_cost, oracle.objective,
              1e-8 * (1.0 + oracle.objective));

  for (const auto& [smax, f, q_healthy] :
       {std::tuple{10, 3, 0.85}, std::tuple{13, 1, 0.88}}) {
    const auto cmdp =
        pomdp::SystemCmdp::parametric(smax, f, 0.9, q_healthy, 0.02);
    const auto binding = solve_replication_lp(cmdp);
    const auto dense = oracles::dense_simplex(replication_lp(cmdp));
    const std::string where = "smax=" + std::to_string(smax);
    ASSERT_EQ(binding.status, lp::LpStatus::Optimal) << where;
    ASSERT_EQ(dense.status, lp::LpStatus::Optimal) << where;
    EXPECT_EQ(binding.warm_start, lp::WarmStart::DualRepair) << where;
    EXPECT_NEAR(binding.average_cost, dense.objective,
                1e-8 * (1.0 + dense.objective))
        << where;
    EXPECT_NEAR(binding.availability, 0.9, 1e-7) << where;
    const Mixture expected = dense_mixture(dense, cmdp.num_states());
    EXPECT_EQ(binding.beta1, expected.beta1) << where;
    EXPECT_EQ(binding.beta2, expected.beta2) << where;
    EXPECT_NEAR(binding.kappa, expected.kappa, 1e-6) << where;
  }
}

TEST(CmdpLp, InfeasibleWhenAvailabilityTargetImpossible) {
  // A kernel that decays to 0 healthy nodes cannot hit 99.9% availability
  // with f + 1 = 6 healthy required.
  const auto cmdp = pomdp::SystemCmdp::parametric(6, 5, 0.999, 0.05, 0.0, 0.0);
  const auto sol = solve_replication_lp(cmdp);
  EXPECT_EQ(sol.status, lp::LpStatus::Infeasible);
}

// The poison guard checks the occupancy itself, not only the solver's
// status.  The near-deterministic kernel below came back Optimal with an
// occupancy summing to ~1.05 (availability > 1) from the always-add crash;
// from the never-add crash it solves to a distribution (availability 0.954,
// cost 6.5).  Whatever the simplex returns there, a valid policy carries
// unit mass, and perturbing a good solve off the simplex fails the guard.
TEST(CmdpLp, NonDistributionOccupancyIsNotAValidPolicy) {
  const auto mass = [](const CmdpSolution& sol) {
    double total = 0.0;
    for (const auto& rho : sol.occupancy) total += rho[0] + rho[1];
    return total;
  };
  const auto odd = solve_replication_lp(
      pomdp::SystemCmdp::parametric(13, 3, 0.9, 1e-3, 0.999, 0.0));
  if (odd.valid_policy()) {
    EXPECT_NEAR(mass(odd), 1.0, 1e-9) << "availability " << odd.availability;
  }

  const auto good = solve_replication_lp(
      pomdp::SystemCmdp::parametric(10, 3, 0.9, 0.9, 0.3));
  ASSERT_TRUE(good.valid_policy());
  EXPECT_NEAR(mass(good), 1.0, 1e-12);
  CmdpSolution scaled = good;
  for (auto& rho : scaled.occupancy) {
    for (double& r : rho) r *= 1.05;
  }
  EXPECT_FALSE(scaled.valid_policy());
  CmdpSolution negative = good;  // still sums to 1
  negative.occupancy[0][1] += negative.occupancy[0][0] + 1e-6;
  negative.occupancy[0][0] = -1e-6;
  EXPECT_FALSE(negative.valid_policy());
  CmdpSolution nan = good;
  nan.occupancy.back()[1] = std::nan("");
  EXPECT_FALSE(nan.valid_policy());
  CmdpSolution empty = good;
  empty.occupancy.clear();
  EXPECT_FALSE(empty.valid_policy());
}

TEST(CmdpLp, TighterAvailabilityCostsMore) {
  const auto loose = solve_replication_lp(
      pomdp::SystemCmdp::parametric(10, 3, 0.5, 0.9, 0.3));
  const auto tight = solve_replication_lp(
      pomdp::SystemCmdp::parametric(10, 3, 0.99, 0.9, 0.3));
  ASSERT_EQ(loose.status, lp::LpStatus::Optimal);
  ASSERT_EQ(tight.status, lp::LpStatus::Optimal);
  EXPECT_GE(tight.average_cost, loose.average_cost - 1e-7);
}

TEST(CmdpLp, SimulatedPolicyMeetsConstraintLongRun) {
  // Property: rolling out pi* on the CMDP approximately achieves the
  // LP-predicted availability and cost.
  const auto cmdp = pomdp::SystemCmdp::parametric(10, 3, 0.9, 0.92, 0.35);
  const auto sol = solve_replication_lp(cmdp);
  ASSERT_EQ(sol.status, lp::LpStatus::Optimal);
  Rng rng(11);
  int s = 10;
  const int horizon = 200000;
  long available = 0;
  double cost = 0.0;
  for (int t = 0; t < horizon; ++t) {
    if (cmdp.available(s)) ++available;
    cost += cmdp.cost(s);
    const int a = sol.act(s, rng);
    s = cmdp.step(s, a, rng);
  }
  EXPECT_NEAR(available / static_cast<double>(horizon), sol.availability,
              0.02);
  EXPECT_NEAR(cost / horizon, sol.average_cost, 0.15);
}

// ---------------------------------------------------------------------------
// SystemCmdp::parametric against the dense oracle kernel
// ---------------------------------------------------------------------------

// Survival / recovery probabilities and mixes of the differential grid: the
// degenerate 0 and 1, the near-degenerate 1e-3 and 0.999, and two interior
// points.
constexpr double kGridQ[] = {0.0, 1e-3, 0.3, 0.9, 0.999, 1.0};
constexpr double kGridMix[] = {0.0, 1e-4, 0.05};
constexpr double kGridEpsilon = 0.9;

int grid_f(int smax) { return std::min(3, smax - 1); }

// The closed form BinomialDist::pmf(k) = exp(log C(n, k) + ...) is only as
// exact as its log-gamma terms: about 2 eps log Gamma(n + 1) relative, which
// is 6e-12 at n = 2048 (log Gamma(2049) ~ 13,580) and 1.2e-12 at n = 512.
// The windowed pmfs and the dense oracle kernel differ by up to that much
// where n is large; the differential bounds add it to their own.
double closed_form_error(int n) {
  return 2.0 * stats::log_gamma(n + 1.0) *
         std::numeric_limits<double>::epsilon();
}

class SystemCmdpDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SystemCmdpDifferential, EntriesMatchTheDenseOracle) {
  const int smax = GetParam();
  for (const double qh : kGridQ) {
    for (const double qr : kGridQ) {
      for (const double mix : kGridMix) {
        const auto cmdp = pomdp::SystemCmdp::parametric(
            smax, grid_f(smax), kGridEpsilon, qh, qr, mix);
        const auto dense = oracles::dense_parametric_kernel(smax, qh, qr, mix);
        double worst = 0.0;
        for (int a = 0; a < 2; ++a) {
          for (int s = 0; s <= smax; ++s) {
            const double* row = dense[static_cast<std::size_t>(a)].row(
                static_cast<std::size_t>(s));
            for (int next = 0; next <= smax; ++next) {
              worst = std::max(
                  worst, std::fabs(cmdp.trans(s, a, next) - row[next]));
            }
          }
        }
        EXPECT_LE(worst, 1e-13 + closed_form_error(smax))
            << "smax=" << smax << " q_healthy=" << qh << " q_recover=" << qr
            << " mix=" << mix;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Smax, SystemCmdpDifferential,
                         ::testing::Values(1, 2, 9, 13, 128, 512));

// The LP of the sparse build against the LP of the same kernel built densely
// (SystemCmdp's dense constructor splits each oracle row at its minimum):
// same status, the same optimum, the same number of pivots, and every
// Optimal result a valid policy.  Up to smax = 13 the whole grid runs,
// including the degenerate kernels (q in {0, 1} or mix = 0), whose chains
// are nearly deterministic or periodic: a solver that stalls at its
// iteration limit or returns an infeasible point fails here.  At smax = 128
// the grid keeps the kernels with full support (mix > 0) and
// q_healthy >= 0.3: near-periodic kernels there still stall (q_healthy = 0,
// q_recover = 0.9, mix = 0 hits the iteration limit on the sparse build,
// q_healthy = 1e-3, q_recover = 0.9, mix = 1e-4 on both builds);
// bench_solver_perf checks the smax = 512 LP.
TEST_F(SystemCmdpDifferential, LpMatchesTheDenseOracleKernel) {
  int optimal = 0;
  int infeasible = 0;
  const auto check = [&](int smax, double qh, double qr, double mix) {
    const auto sparse = solve_replication_lp(pomdp::SystemCmdp::parametric(
        smax, grid_f(smax), kGridEpsilon, qh, qr, mix));
    const auto dense = oracles::dense_parametric_kernel(smax, qh, qr, mix);
    const auto oracle = solve_replication_lp(pomdp::SystemCmdp(
        smax, grid_f(smax), kGridEpsilon, dense[0], dense[1]));
    const std::string where = "smax=" + std::to_string(smax) +
                              " q_healthy=" + std::to_string(qh) +
                              " q_recover=" + std::to_string(qr) +
                              " mix=" + std::to_string(mix);
    ASSERT_EQ(sparse.status, oracle.status) << where;
    if (oracle.status != lp::LpStatus::Optimal) {
      EXPECT_EQ(oracle.status, lp::LpStatus::Infeasible) << where;
      ++infeasible;
      return;
    }
    ++optimal;
    EXPECT_TRUE(sparse.valid_policy()) << where;
    EXPECT_TRUE(oracle.valid_policy()) << where;
    EXPECT_NEAR(sparse.average_cost, oracle.average_cost, 1e-9) << where;
    EXPECT_NEAR(sparse.availability, oracle.availability, 1e-9) << where;
    EXPECT_EQ(sparse.lp_iterations, oracle.lp_iterations) << where;
  };
  for (const int smax : {1, 2, 9, 13}) {
    for (const double qh : kGridQ) {
      for (const double qr : kGridQ) {
        for (const double mix : kGridMix) check(smax, qh, qr, mix);
      }
    }
  }
  for (const double qh : {0.3, 0.9, 0.999}) {
    for (const double qr : {1e-3, 0.3, 0.9, 0.999}) {
      for (const double mix : {1e-4, 0.05}) check(128, qh, qr, mix);
    }
  }
  EXPECT_GT(optimal, 0);
  EXPECT_GT(infeasible, 0);
}

TEST_F(SystemCmdpDifferential, PmfVectorMatchesTheClosedForm) {
  for (const int n : {0, 1, 7, 128, 2048}) {
    for (const double p : {0.0, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.999, 1.0}) {
      const stats::BinomialDist dist(n, p);
      const auto v = dist.pmf_vector();
      ASSERT_EQ(v.size(), static_cast<std::size_t>(n + 1));
      for (int k = 0; k <= n; ++k) {
        const double exact = dist.pmf(k);
        if (exact <= 1e-300) continue;
        EXPECT_LE(std::fabs(v[static_cast<std::size_t>(k)] - exact),
                  (1e-12 + closed_form_error(n)) * exact)
            << "n=" << n << " p=" << p << " k=" << k;
      }
    }
  }
}

// At Fig. 9's smax = 2048 the bumps hold under a quarter of the dense
// entries, and every stored row still carries unit mass.
TEST_F(SystemCmdpDifferential, BumpsStaySparseAtFig9Scale) {
  constexpr int kSmax = 2048;
  const auto cmdp =
      pomdp::SystemCmdp::parametric(kSmax, 3, 0.9, 0.95, 0.3, 1e-4);
  std::size_t stored = 0;
  double worst = 0.0;
  for (int a = 0; a < 2; ++a) {
    for (int s = 0; s <= kSmax; ++s) {
      const pomdp::SystemCmdp::Row row = cmdp.row(s, a);
      stored += row.bump.size();
      double mass = row.floor * (kSmax + 1);
      for (const double b : row.bump) mass += b;
      worst = std::max(worst, std::fabs(mass - 1.0));
    }
  }
  const double dense = 2.0 * (kSmax + 1) * (kSmax + 1);
  EXPECT_LT(static_cast<double>(stored), 0.25 * dense);
  EXPECT_LE(worst, 1e-12);
}

}  // namespace
}  // namespace tolerance::solvers
