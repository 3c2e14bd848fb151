// Parameterized property tests (TEST_P sweeps) over the model/solver
// parameter space: the structural theorems and protocol invariants must hold
// across the grid, not just at the paper's default operating point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/core/node_controller.hpp"
#include "tolerance/core/system_controller.hpp"
#include "tolerance/markov/chain.hpp"
#include "tolerance/oracles/dense_simplex.hpp"
#include "tolerance/pomdp/assumptions.hpp"
#include "tolerance/pomdp/belief.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"
#include "tolerance/stats/distributions.hpp"
#include "tolerance/solvers/threshold_policy.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance {
namespace {

// Draw NodeParams uniformly from the admissible box (probabilities kept
// away from the degenerate endpoints so the belief recursion is defined).
pomdp::NodeParams random_node_params(Rng& rng) {
  pomdp::NodeParams params;
  params.p_attack = rng.uniform(1e-4, 0.9);
  params.p_update = rng.uniform(1e-4, 0.5);
  params.p_crash_healthy = rng.uniform(0.0, 0.05);
  params.p_crash_compromised = rng.uniform(0.0, 0.2);
  params.eta = rng.uniform(1.0, 10.0);  // eq. (5) requires eta >= 1
  return params;
}

// ---------------------------------------------------------------------------
// Node model invariants across the (pA, pU) grid
// ---------------------------------------------------------------------------

class NodeModelGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(NodeModelGrid, KernelRowsAreStochasticAndBeliefIsNormalized) {
  const auto [p_attack, p_update] = GetParam();
  pomdp::NodeParams params;
  params.p_attack = p_attack;
  params.p_update = p_update;
  params.p_crash_healthy = 1e-5;
  params.p_crash_compromised = 1e-3;
  const pomdp::NodeModel model(params);
  for (auto a : {pomdp::NodeAction::Wait, pomdp::NodeAction::Recover}) {
    EXPECT_TRUE(model.transition_matrix(a).is_row_stochastic(1e-12));
  }
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const pomdp::BeliefUpdater updater(model, obs);
  for (double b : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (int o = 0; o <= 10; ++o) {
      for (auto a : {pomdp::NodeAction::Wait, pomdp::NodeAction::Recover}) {
        const double post = updater.update(b, a, o);
        EXPECT_GE(post, 0.0);
        EXPECT_LE(post, 1.0);
      }
    }
  }
}

TEST_P(NodeModelGrid, OptimalCyclePolicyHasThresholdStructure) {
  // Theorem 1 across the grid: for every stage, the exact-DP policy is
  // Wait below some belief and Recover above it (a single switch).
  const auto [p_attack, p_update] = GetParam();
  pomdp::NodeParams params;
  params.p_attack = p_attack;
  params.p_update = p_update;
  params.p_crash_healthy = 1e-5;
  params.p_crash_compromised = 1e-3;
  const pomdp::NodeModel model(params);
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto report = pomdp::check_theorem1(model, obs);
  EXPECT_TRUE(report.d_observations_positive);
  EXPECT_TRUE(report.e_tp2);
  const auto result = solvers::IncrementalPruning::solve_cycle(model, obs, 8);
  for (std::size_t t = 0; t + 1 < result.value_functions.size(); ++t) {
    const auto& v = result.value_functions[t];
    int switches = 0;
    bool prev_recover =
        solvers::envelope_action(v, 0.0) == pomdp::NodeAction::Recover;
    for (int g = 1; g <= 100; ++g) {
      const bool recover =
          solvers::envelope_action(v, g / 100.0) == pomdp::NodeAction::Recover;
      if (recover != prev_recover) ++switches;
      prev_recover = recover;
    }
    EXPECT_LE(switches, 1) << "pA=" << p_attack << " pU=" << p_update
                           << " t=" << t;
    EXPECT_TRUE(prev_recover || switches == 0)
        << "if there is a switch it must end in the Recover region";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AttackUpdateGrid, NodeModelGrid,
    ::testing::Combine(::testing::Values(0.01, 0.05, 0.1, 0.3),
                       ::testing::Values(0.005, 0.02, 0.1)));

// ---------------------------------------------------------------------------
// Belief monotonicity in the observation (TP-2 channel) across priors
// ---------------------------------------------------------------------------

class BeliefPrior : public ::testing::TestWithParam<double> {};

TEST_P(BeliefPrior, PosteriorMonotoneInObservation) {
  const double prior = GetParam();
  pomdp::NodeParams params;
  params.p_attack = 0.1;
  params.p_update = 2e-2;
  params.p_crash_healthy = 1e-5;
  params.p_crash_compromised = 1e-3;
  const pomdp::NodeModel model(params);
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const pomdp::BeliefUpdater updater(model, obs);
  double prev = -1.0;
  for (int o = 0; o <= 10; ++o) {
    const double post = updater.update(prior, pomdp::NodeAction::Wait, o);
    EXPECT_GE(post, prev - 1e-12) << "o=" << o << " prior=" << prior;
    prev = post;
  }
}

INSTANTIATE_TEST_SUITE_P(Priors, BeliefPrior,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8, 0.95));

// ---------------------------------------------------------------------------
// CMDP LP across the (smax, f, epsilon_A) grid (Thm. 2 structure)
// ---------------------------------------------------------------------------

class CmdpGrid
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(CmdpGrid, SolutionSatisfiesConstraintsAndMixtureStructure) {
  const auto [smax, f, eps_a] = GetParam();
  // Crash-heavy regime so additions matter.
  const auto cmdp = pomdp::SystemCmdp::parametric(smax, f, eps_a, 0.88, 0.05);
  const auto sol = solvers::solve_replication_lp(cmdp);
  const auto dense = oracles::dense_simplex(solvers::replication_lp(cmdp));
  if (sol.status != lp::LpStatus::Optimal) {
    // Skip only an availability target the dense tableau also finds
    // unreachable for this (smax, f); a stall is a failure.
    ASSERT_EQ(sol.status, lp::LpStatus::Infeasible);
    ASSERT_EQ(dense.status, lp::LpStatus::Infeasible);
    GTEST_SKIP() << "infeasible instance";
  }
  ASSERT_EQ(dense.status, lp::LpStatus::Optimal);
  EXPECT_NEAR(sol.average_cost, dense.objective,
              1e-8 * (1.0 + dense.objective));
  // (14c): occupancy sums to one.
  double total = 0.0;
  for (const auto& rho : sol.occupancy) total += rho[0] + rho[1];
  EXPECT_NEAR(total, 1.0, 1e-6);
  // (14e): availability constraint.
  EXPECT_GE(sol.availability, eps_a - 1e-6);
  // Basic optimal solutions of a CMDP LP with a single side constraint have
  // at most one randomized state — this holds regardless of Thm. 2.
  EXPECT_LE(sol.num_randomized_states, 1);
  // The threshold (monotone) structure itself is guaranteed only under the
  // Thm. 2 assumptions; check it exactly when they hold.
  if (pomdp::check_theorem2(cmdp).all()) {
    for (std::size_t s = 1; s < sol.add_probability.size(); ++s) {
      EXPECT_LE(sol.add_probability[s], sol.add_probability[s - 1] + 1e-6);
    }
  }
  // (14d): flow balance.
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
    EXPECT_NEAR(lhs, rhs, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SystemGrid, CmdpGrid,
    ::testing::Combine(::testing::Values(6, 10, 16),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0.5, 0.9, 0.99)));

// ---------------------------------------------------------------------------
// Threshold-policy BTR compliance across DeltaR
// ---------------------------------------------------------------------------

class BtrGrid : public ::testing::TestWithParam<int> {};

TEST_P(BtrGrid, ForcedRecoveryEveryDeltaRSteps) {
  const int delta_r = GetParam();
  const solvers::ThresholdPolicy policy(
      std::vector<double>(
          static_cast<std::size_t>(solvers::ThresholdPolicy::dimension(delta_r)),
          1.0),
      delta_r);
  int recoveries = 0;
  const int horizon = 10 * delta_r;
  for (int t = 1; t <= horizon; ++t) {
    if (policy.action(0.0, t) == pomdp::NodeAction::Recover) ++recoveries;
  }
  EXPECT_EQ(recoveries, horizon / delta_r) << "(6b) violated";
}

INSTANTIATE_TEST_SUITE_P(DeltaRs, BtrGrid,
                         ::testing::Values(2, 3, 5, 15, 25, 100));

// ---------------------------------------------------------------------------
// MinBFT safety across cluster sizes and Byzantine behaviours
// ---------------------------------------------------------------------------

class MinBftGrid
    : public ::testing::TestWithParam<std::tuple<int, consensus::ByzantineMode>> {};

TEST_P(MinBftGrid, SafetyWithFByzantineReplicas) {
  const auto [n, mode] = GetParam();
  const int f = (n - 1) / 2;
  consensus::MinBftConfig cfg;
  cfg.f = f;
  cfg.checkpoint_period = 10;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  net::LinkConfig link;
  link.loss = 0.0;
  consensus::MinBftCluster cluster(n, cfg, 1234 + n, link);
  // Compromise f replicas (never the view-0 leader, so this tests the
  // steady-state path; leader failure is covered by the view-change tests).
  for (int i = 0; i < f; ++i) {
    cluster.replica(static_cast<consensus::ReplicaId>(n - 1 - i))
        .set_mode(mode);
  }
  auto& client = cluster.add_client();
  for (int r = 0; r < 8; ++r) {
    const auto result =
        cluster.submit_and_run(client, "op" + std::to_string(r));
    ASSERT_TRUE(result.has_value()) << "n=" << n << " request " << r;
    EXPECT_NE(*result, "garbage");
  }
  cluster.run_for(1.0);
  // All honest replicas hold identical logs.
  const auto& reference = cluster.replica(0).service().log();
  EXPECT_EQ(reference.size(), 8u);
  for (int i = 1; i < n - f; ++i) {
    EXPECT_EQ(cluster.replica(static_cast<consensus::ReplicaId>(i))
                  .service()
                  .log(),
              reference)
        << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClusterSizes, MinBftGrid,
    ::testing::Combine(::testing::Values(3, 5, 7),
                       ::testing::Values(consensus::ByzantineMode::Silent,
                                         consensus::ByzantineMode::Random)));

// ---------------------------------------------------------------------------
// Reliability function properties across pool sizes (Appendix F)
// ---------------------------------------------------------------------------

class ReliabilityGrid : public ::testing::TestWithParam<int> {};

TEST_P(ReliabilityGrid, MonotoneAndOrderedByPoolSize) {
  const int n1 = GetParam();
  const double p_survive = 0.97;
  const auto chain = markov::binomial_survival_chain(n1, p_survive);
  std::vector<bool> failed(static_cast<std::size_t>(n1) + 1, false);
  for (int s = 0; s <= std::min(3, n1); ++s) {
    failed[static_cast<std::size_t>(s)] = true;
  }
  std::vector<double> init(static_cast<std::size_t>(n1) + 1, 0.0);
  init[static_cast<std::size_t>(n1)] = 1.0;
  const auto r = chain.reliability_curve(init, failed, 60);
  for (std::size_t t = 1; t < r.size(); ++t) {
    EXPECT_LE(r[t], r[t - 1] + 1e-12);
    EXPECT_GE(r[t], -1e-12);
    EXPECT_LE(r[t], 1.0 + 1e-9);  // vecmat rounding can exceed 1 by ulps
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ReliabilityGrid,
                         ::testing::Values(5, 10, 25, 50));

// ---------------------------------------------------------------------------
// Randomized invariants: the structural properties above must hold not only
// on the hand-picked grid but at random points of the parameter space.
// ---------------------------------------------------------------------------

class RandomizedSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedSeed, TransitionMatricesRowStochasticUnderRandomParams) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const pomdp::NodeModel model(random_node_params(rng));
    for (auto a : {pomdp::NodeAction::Wait, pomdp::NodeAction::Recover}) {
      const auto m = model.transition_matrix(a);
      EXPECT_TRUE(m.is_row_stochastic(1e-12)) << "trial " << trial;
      for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
          EXPECT_GE(m(r, c), 0.0) << "trial " << trial;
          EXPECT_LE(m(r, c), 1.0) << "trial " << trial;
        }
      }
    }
  }
}

TEST_P(RandomizedSeed, BeliefUpdatesStayNormalizedAndNonNegative) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const pomdp::NodeModel model(random_node_params(rng));
    const auto obs = pomdp::BetaBinObservationModel::paper_default();
    const pomdp::BeliefUpdater updater(model, obs);
    for (int step = 0; step < 50; ++step) {
      const double b = rng.uniform();
      const auto a = rng.bernoulli(0.5) ? pomdp::NodeAction::Recover
                                        : pomdp::NodeAction::Wait;
      const int o = rng.uniform_int(obs.num_observations());
      const double post = updater.update(b, a, o);
      // The scalar belief is P[C]; normalization of the full posterior over
      // {H, C} is exactly "post lies in [0, 1]" with no NaN leakage.
      EXPECT_TRUE(std::isfinite(post)) << "b=" << b << " o=" << o;
      EXPECT_GE(post, 0.0) << "b=" << b << " o=" << o;
      EXPECT_LE(post, 1.0) << "b=" << b << " o=" << o;
    }
  }
}

TEST_P(RandomizedSeed, ThresholdPolicyMonotoneInBelief) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const int delta_r = rng.bernoulli(0.3)
                            ? solvers::kNoBtr
                            : rng.uniform_int(2, 30);
    std::vector<double> thetas(
        static_cast<std::size_t>(solvers::ThresholdPolicy::dimension(delta_r)));
    for (auto& theta : thetas) theta = rng.uniform();
    const solvers::ThresholdPolicy policy(thetas, delta_r);
    for (int t = 1; t <= 40; ++t) {
      // Once the policy recovers at some belief it must keep recovering for
      // every larger belief (threshold structure, Theorem 1).
      bool seen_recover = false;
      for (int g = 0; g <= 100; ++g) {
        const bool recover =
            policy.action(g / 100.0, t) == pomdp::NodeAction::Recover;
        if (seen_recover) {
          EXPECT_TRUE(recover) << "trial " << trial << " t=" << t
                               << " belief=" << g / 100.0;
        }
        seen_recover = seen_recover || recover;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSeed,
                         ::testing::Values(1u, 17u, 4242u, 99991u));

// ---------------------------------------------------------------------------
// System-controller invariants under randomized churn (the clamps the
// scenario harness relies on to keep the BFT quorum intact)
// ---------------------------------------------------------------------------

class ChurnSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnSeed, RandomChurnNeverEvictsMoreThanFPerCycleNorBelowFloor) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int f = rng.uniform_int(1, 3);
    const int floor = 2 * f + 1;
    const int max_nodes = floor + rng.uniform_int(2, 8);
    int n = rng.uniform_int(floor, max_nodes);
    core::SystemLimits limits;
    limits.f = f;
    limits.min_nodes = floor;
    core::SystemController controller(std::nullopt, max_nodes,
                                      GetParam() ^ static_cast<std::uint64_t>(trial),
                                      limits);
    for (int cycle = 0; cycle < 50; ++cycle) {
      std::vector<double> beliefs;
      std::vector<bool> reported;
      for (int i = 0; i < n; ++i) {
        const bool alive = rng.bernoulli(0.7);
        reported.push_back(alive);
        beliefs.push_back(alive ? rng.uniform() : 1.0);
      }
      const auto decision = controller.step(beliefs, reported);
      // Invariant 1: at most f evictions per cycle.
      EXPECT_LE(decision.evict.size(), static_cast<std::size_t>(f))
          << "f=" << f << " cycle=" << cycle;
      // Invariant 2: the membership never drops below 2f + 1, and every
      // eviction targets a node that actually failed to report.
      for (const int idx : decision.evict) {
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, n);
        EXPECT_FALSE(reported[static_cast<std::size_t>(idx)]);
      }
      n -= static_cast<int>(decision.evict.size());
      EXPECT_GE(n, floor) << "f=" << f << " cycle=" << cycle;
      // Deferred evictions are exactly the unreported remainder.
      int silent = 0;
      for (const bool r : reported) silent += r ? 0 : 1;
      EXPECT_EQ(decision.deferred_evictions,
                silent - static_cast<int>(decision.evict.size()));
      if (decision.add_node && n < max_nodes) ++n;
    }
  }
}

TEST_P(ChurnSeed, BeliefsStayNormalizedThroughMembershipChanges) {
  Rng rng(GetParam());
  const pomdp::NodeParams params = random_node_params(rng);
  const pomdp::NodeModel model(params);
  Rng fit_rng(GetParam() ^ 0xfee1);
  const auto detector = emulation::fit_pooled_detector(20, 11, 80.0, fit_rng);
  const auto policy = solvers::ThresholdPolicy::constant(0.76);
  std::vector<core::NodeController> controllers;
  for (int i = 0; i < 5; ++i) controllers.emplace_back(model, detector, policy);
  for (int cycle = 0; cycle < 60; ++cycle) {
    // Random membership churn: evictions erase controllers mid-vector,
    // additions append fresh ones — exactly what the scenario loop does.
    if (controllers.size() > 3 && rng.bernoulli(0.2)) {
      controllers.erase(controllers.begin() +
                        rng.uniform_int(static_cast<int>(controllers.size())));
    }
    if (controllers.size() < 9 && rng.bernoulli(0.2)) {
      controllers.emplace_back(model, detector, policy);
      // A fresh node starts at the initial distribution b_1 = pA.
      EXPECT_DOUBLE_EQ(controllers.back().belief(), params.p_attack);
    }
    for (auto& controller : controllers) {
      const double belief = controller.observe(rng.uniform(0.0, 3000.0));
      EXPECT_TRUE(std::isfinite(belief));
      EXPECT_GE(belief, 0.0);
      EXPECT_LE(belief, 1.0);
      controller.commit(rng.bernoulli(0.1) ? pomdp::NodeAction::Recover
                                           : pomdp::NodeAction::Wait);
      EXPECT_GE(controller.belief(), 0.0);
      EXPECT_LE(controller.belief(), 1.0);
    }
  }
}

TEST_P(ChurnSeed, RecoveryResetsBeliefToTheInitialState) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const pomdp::NodeParams params = random_node_params(rng);
    const pomdp::NodeModel model(params);
    Rng fit_rng(GetParam() ^ static_cast<std::uint64_t>(trial));
    const auto detector =
        emulation::fit_pooled_detector(20, 11, 80.0, fit_rng);
    core::NodeController controller(
        model, detector, solvers::ThresholdPolicy::constant(0.76));
    // Feed heavy alert volumes, then recover: the belief must return to the
    // fresh-node prior b_1 = pA regardless of how high it climbed.
    for (int step = 0; step < 10; ++step) {
      controller.observe(rng.uniform(2000.0, 6000.0));
      controller.commit(pomdp::NodeAction::Wait);
    }
    controller.commit(pomdp::NodeAction::Recover);
    EXPECT_DOUBLE_EQ(controller.belief(), params.p_attack) << "trial " << trial;
    controller.reset();  // the global-level replacement path
    EXPECT_DOUBLE_EQ(controller.belief(), params.p_attack) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSeed,
                         ::testing::Values(3u, 71u, 5555u));

// ---------------------------------------------------------------------------
// Poisson sampler equivalence: PTRS (mean > 10) against the exact pmf
// ---------------------------------------------------------------------------

class PoissonMean : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMean, SamplerMatchesExactPmfByChiSquare) {
  // Distribution-equivalence property for the Rng::poisson dispatch (Knuth
  // product sampler at small means, PTRS rejection above 10): binned
  // chi-square against the exact pmf plus moment checks.  Deterministic
  // seeds — no flake budget.
  const double mean = GetParam();
  const stats::PoissonDist exact(mean);
  Rng rng(0xB0B0 + static_cast<std::uint64_t>(mean * 16.0));
  const int samples = 200000;
  const double sd = std::sqrt(mean);
  const int lo = std::max(0, static_cast<int>(mean - 6.0 * sd));
  const int hi = static_cast<int>(mean + 6.0 * sd) + 1;
  std::vector<double> observed(static_cast<std::size_t>(hi - lo + 2), 0.0);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < samples; ++i) {
    const int k = rng.poisson(mean);
    ASSERT_GE(k, 0);
    sum += k;
    sum_sq += static_cast<double>(k) * k;
    const int bin = k < lo ? 0 : (k > hi ? hi - lo + 1 : k - lo + 1);
    observed[static_cast<std::size_t>(bin)] += 1.0;
  }
  // Moments: sample mean and variance within 5 standard errors.
  const double m1 = sum / samples;
  const double var = sum_sq / samples - m1 * m1;
  EXPECT_NEAR(m1, mean, 5.0 * sd / std::sqrt(static_cast<double>(samples)));
  EXPECT_NEAR(var, mean, 5.0 * mean * std::sqrt(2.0 / samples) + 0.05 * mean);
  // Chi-square over the central bins plus two merged tails, bins with
  // expected count >= 5 only.
  double chi2 = 0.0;
  int dof = 0;
  double tail_lo_p = 0.0;
  for (int k = 0; k < lo; ++k) tail_lo_p += exact.pmf(k);
  double tail_hi_p = 1.0 - tail_lo_p;
  for (int k = lo; k <= hi; ++k) tail_hi_p -= exact.pmf(k);
  const auto add_bin = [&](double obs, double p) {
    const double expected = p * samples;
    if (expected < 5.0) return;
    chi2 += (obs - expected) * (obs - expected) / expected;
    ++dof;
  };
  add_bin(observed.front(), tail_lo_p);
  for (int k = lo; k <= hi; ++k) {
    add_bin(observed[static_cast<std::size_t>(k - lo + 1)], exact.pmf(k));
  }
  add_bin(observed.back(), std::max(0.0, tail_hi_p));
  // 99.99th percentile of chi2 with ~dof degrees of freedom, generously:
  // dof + 4 * sqrt(2 * dof) + 10.
  EXPECT_LT(chi2, dof + 4.0 * std::sqrt(2.0 * dof) + 10.0)
      << "mean=" << mean << " dof=" << dof;
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMean,
                         ::testing::Values(4.0, 9.5, 10.5, 25.0, 120.0));

TEST(PoissonSampler, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    const double mean = 0.5 + 3.0 * i;  // crosses the PTRS dispatch at 10
    EXPECT_EQ(a.poisson(mean), b.poisson(mean)) << "i=" << i;
  }
}

}  // namespace
}  // namespace tolerance
