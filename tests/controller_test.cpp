// Asynchronous level-2 controller suites: the PolicyBuffer atomic flip, the
// FRESH/HOLD/FALLBACK staleness ladder, the poison-policy guard, warm-start
// reuse across background re-solves, and the Theorem 1 / Theorem 2 structure
// of the threshold fallback.  PolicyBuffer* / AsyncController* /
// ControllerFallback* run in the CI TSan lane (the torture and stalled-solver
// tests are the reason).
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tolerance/core/async_controller.hpp"
#include "tolerance/core/policy_buffer.hpp"
#include "tolerance/pomdp/node_model.hpp"
#include "tolerance/pomdp/observation_model.hpp"
#include "tolerance/pomdp/system_model.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"
#include "tolerance/solvers/threshold_policy.hpp"

namespace tolerance::core {
namespace {

using solvers::CmdpSolution;
using solvers::SystemThresholdPolicy;

// A small but real replication CMDP (the scenario harness's parametric
// route) so solves exercise the genuine LP + warm-start machinery.  These
// parameters produce a non-degenerate Thm. 2 mixture (beta1=4, beta2=5,
// kappa ~ 0.74, one randomized state) — the structure the fallback tests
// need to say anything.
pomdp::SystemCmdp test_cmdp() {
  return pomdp::SystemCmdp::parametric(/*max_nodes=*/10, /*f=*/3,
                                       /*epsilon_a=*/0.9, /*q_healthy=*/0.85,
                                       /*q_recover=*/0.02);
}

CmdpSolution solved() {
  CmdpSolution s = solvers::solve_replication_lp(test_cmdp());
  EXPECT_TRUE(s.valid_policy());
  return s;
}

CmdpSolution poisoned() {
  CmdpSolution s = solved();
  s.status = lp::LpStatus::Infeasible;
  return s;
}

AsyncControllerConfig fast_config() {
  AsyncControllerConfig cfg;
  cfg.resolve_period = 3;
  cfg.solve_latency_cycles = 1;
  cfg.staleness_budget = 4;
  cfg.fallback_deadline = 8;
  cfg.retry_backoff_cycles = 1;
  cfg.max_retry_backoff_cycles = 4;
  cfg.verify_warm_optimum = false;  // individual tests opt back in
  return cfg;
}

// ---------------------------------------------------------------------------
// PolicyBuffer: the atomic epoch flip
// ---------------------------------------------------------------------------

PolicyBuffer::Table table_for_epoch(std::uint64_t epoch) {
  // Every cell is a pure function of the epoch, so a torn snapshot (cells
  // from two different publishes) is detectable by construction.
  PolicyBuffer::Table t;
  t.epoch = epoch;
  const double fill = static_cast<double>(epoch % 97) / 97.0;
  t.add_probability.assign(16, fill);
  t.beta1 = static_cast<int>(epoch % 5);
  t.beta2 = t.beta1 + 2;
  t.kappa = fill;
  t.average_cost = 3.0 * fill;
  return t;
}

bool consistent(const PolicyBuffer::Table& t) {
  const double fill = static_cast<double>(t.epoch % 97) / 97.0;
  if (t.add_probability.size() != 16) return false;
  for (double p : t.add_probability) {
    if (p != fill) return false;
  }
  return t.beta1 == static_cast<int>(t.epoch % 5) && t.beta2 == t.beta1 + 2 &&
         t.kappa == fill && t.average_cost == 3.0 * fill;
}

TEST(PolicyBuffer, SnapshotReturnsTheLatestPublish) {
  PolicyBuffer buffer;
  EXPECT_EQ(buffer.epoch(), 0u);
  EXPECT_EQ(buffer.snapshot().epoch, 0u);  // nothing published yet
  buffer.publish(table_for_epoch(1));
  buffer.publish(table_for_epoch(2));
  EXPECT_EQ(buffer.epoch(), 2u);
  const auto t = buffer.snapshot();
  EXPECT_EQ(t.epoch, 2u);
  EXPECT_TRUE(consistent(t));
}

TEST(PolicyBuffer, EpochsMustStrictlyIncrease) {
  PolicyBuffer buffer;
  buffer.publish(table_for_epoch(3));
  EXPECT_THROW(buffer.publish(table_for_epoch(3)), std::invalid_argument);
  EXPECT_THROW(buffer.publish(table_for_epoch(2)), std::invalid_argument);
  buffer.publish(table_for_epoch(4));
  EXPECT_EQ(buffer.epoch(), 4u);
}

// The torture test behind the "atomic policy flip" claim: one writer flips
// epochs as fast as it can while reader threads snapshot in a tight loop.
// Every snapshot must be internally consistent (no torn tables) and every
// reader must observe monotone non-decreasing epochs.
class PolicyBufferTorture : public ::testing::TestWithParam<int> {};

TEST_P(PolicyBufferTorture, ReadersNeverSeeATornTableAtAnyThreadCount) {
  const int num_readers = GetParam();
  constexpr std::uint64_t kEpochs = 2000;
  PolicyBuffer buffer;
  buffer.publish(table_for_epoch(1));

  std::atomic<bool> stop{false};
  std::atomic<long> torn{0};
  std::atomic<long> non_monotone{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(num_readers));
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto t = buffer.snapshot();
        if (!consistent(t)) torn.fetch_add(1, std::memory_order_relaxed);
        if (t.epoch < last) {
          non_monotone.fetch_add(1, std::memory_order_relaxed);
        }
        last = t.epoch;
      }
    });
  }
  for (std::uint64_t e = 2; e <= kEpochs; ++e) {
    buffer.publish(table_for_epoch(e));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(non_monotone.load(), 0);
  EXPECT_EQ(buffer.epoch(), kEpochs);
}

INSTANTIATE_TEST_SUITE_P(Readers, PolicyBufferTorture,
                         ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "readers_" + std::to_string(info.param);
                         });

// The decision a reader derives from a snapshot is a pure function of the
// snapshot's epoch, so the (epoch -> decision) tape must be bit-identical
// whether 1 or 8 readers race the writer — concurrency may change *which*
// epochs a reader samples, never what any epoch decides.
TEST(PolicyBufferTorture, DecisionTapeIsBitIdenticalAcrossThreadCounts) {
  const auto decide = [](const PolicyBuffer::Table& t) {
    // A stand-in decision kernel: threshold the state against beta2 and mix
    // with the table's kappa — touches every field a real decision reads.
    return (7 <= t.beta2 ? 1.0 : 0.0) + t.kappa +
           t.add_probability[static_cast<std::size_t>(t.beta1)];
  };
  for (int num_readers : {1, 8}) {
    constexpr std::uint64_t kEpochs = 500;
    PolicyBuffer buffer;
    buffer.publish(table_for_epoch(1));
    std::atomic<bool> stop{false};
    std::atomic<long> mismatches{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < num_readers; ++r) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          const auto t = buffer.snapshot();
          // Reference tape entry, recomputed from the epoch alone.
          if (decide(t) != decide(table_for_epoch(t.epoch))) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::uint64_t e = 2; e <= kEpochs; ++e) {
      buffer.publish(table_for_epoch(e));
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    EXPECT_EQ(mismatches.load(), 0) << num_readers << " readers";
  }
}

// ---------------------------------------------------------------------------
// AsyncCmdpController: the staleness ladder
// ---------------------------------------------------------------------------

TEST(AsyncController, LadderDegradesFreshHoldFallbackAndRecovers) {
  const CmdpSolution initial = solved();
  AsyncControllerConfig cfg = fast_config();
  AsyncCmdpController ctrl(
      initial, [](const lp::SimplexBasis* warm) {
        return solvers::solve_replication_lp(test_cmdp(), {}, warm);
      },
      cfg, /*seed=*/17);
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fresh);
  EXPECT_EQ(ctrl.epoch(), 1u);

  // Steady state: re-solves land every resolve_period + latency cycles, so
  // the ladder never leaves FRESH.
  for (long t = 1; t <= 12; ++t) {
    ctrl.begin_cycle(t);
    EXPECT_EQ(ctrl.mode(), ControllerMode::Fresh) << "cycle " << t;
  }
  EXPECT_GT(ctrl.stats().resolves, 1);

  // A GC pause freezes harvest+launch: staleness climbs through HOLD
  // (budget 4) into FALLBACK (deadline 8), then the first post-pause cycle
  // harvests the parked solve and the ladder snaps back to FRESH.
  ctrl.inject_stall(13, 12);
  std::uint64_t saw_hold = 0;
  std::uint64_t saw_fallback = 0;
  for (long t = 13; t <= 24; ++t) {
    ctrl.begin_cycle(t);
    const PolicyQuery q = ctrl.policy_at(3);
    EXPECT_EQ(q.mode, ctrl.mode());
    if (q.mode == ControllerMode::Hold) ++saw_hold;
    if (q.mode == ControllerMode::Fallback) ++saw_fallback;
  }
  EXPECT_GT(saw_hold, 0u);
  EXPECT_GT(saw_fallback, 0u);
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fallback);
  // Pause over.  Nothing was in flight when the stall hit (the last flip
  // landed at cycle 12), so cycle 25 relaunches — still FALLBACK — and the
  // flip lands one solve-latency later.
  ctrl.begin_cycle(25);
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fallback);
  ctrl.begin_cycle(26);
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fresh);
  const AsyncControllerStats stats = ctrl.stats();
  EXPECT_GT(stats.hold_cycles, 0);
  EXPECT_GT(stats.fallback_cycles, 0);
  EXPECT_GE(stats.max_staleness, cfg.fallback_deadline + 1);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(AsyncController, PoisonedSolveIsNeverFlippedIn) {
  const CmdpSolution initial = solved();
  std::atomic<int> solves{0};
  AsyncCmdpController ctrl(
      initial, [&solves](const lp::SimplexBasis*) {
        solves.fetch_add(1, std::memory_order_relaxed);
        return poisoned();
      },
      fast_config(), /*seed=*/17);
  for (long t = 1; t <= 40; ++t) {
    ctrl.begin_cycle(t);
    const PolicyQuery q = ctrl.policy_at(2);
    // The epoch never advances past the initial table: every poisoned
    // re-solve is rejected before the flip.
    EXPECT_EQ(q.epoch, 1u) << "cycle " << t;
    EXPECT_EQ(q.add_probability, initial.add_probability_at(2));
  }
  const AsyncControllerStats stats = ctrl.stats();
  EXPECT_EQ(stats.resolves, 0);
  EXPECT_GT(stats.rejected, 2);
  EXPECT_EQ(stats.rejected, solves.load());
  EXPECT_EQ(ctrl.epoch(), 1u);
  // With nothing ever published again the ladder must have degraded.
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fallback);
}

// A SolveFn that throws reaches the poison guard instead of terminating the
// process, in both lanes: the previous epoch keeps serving, the throw counts
// as one rejection and one solver error, and the retry publishes.  Solves
// after the throwing one wait on a gate, so nothing can publish between the
// rejection and the checks.
TEST(AsyncController, ThrowingSolveIsRejectedNotFatal) {
  for (const bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic lane" : "wall-clock lane");
    const CmdpSolution initial = solved();
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> calls{0};
    AsyncControllerConfig cfg = fast_config();
    cfg.deterministic = deterministic;
    AsyncCmdpController ctrl(
        initial,
        [&](const lp::SimplexBasis* warm) {
          const int call = calls.fetch_add(1) + 1;
          if (call == 2) throw std::runtime_error("solver fault");
          if (call > 2) {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return open; });
          }
          return solvers::solve_replication_lp(test_cmdp(), {}, warm);
        },
        cfg, /*seed=*/17);
    const auto open_gate = [&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        open = true;
      }
      cv.notify_all();
    };
    // Destroyed before ctrl: a solve parked on the gate lets the pool drain.
    struct OpenOnExit {
      std::function<void()> open;
      ~OpenOnExit() { open(); }
    } open_on_exit{open_gate};

    long t = 0;
    const auto run_until = [&](const auto& done) {
      for (int i = 0; i < 5000 && !done(); ++i) {
        ctrl.begin_cycle(++t);
        if (!deterministic) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    };
    run_until([&] { return ctrl.stats().rejected > 0; });
    AsyncControllerStats stats = ctrl.stats();
    EXPECT_EQ(stats.resolves, 1);
    EXPECT_EQ(stats.rejected, 1);
    EXPECT_EQ(stats.solver_errors, 1);
    EXPECT_NE(stats.last_solver_error.find("solver fault"), std::string::npos);
    EXPECT_EQ(ctrl.epoch(), 2u);
    EXPECT_EQ(ctrl.policy_at(3).epoch, 2u);

    open_gate();
    run_until([&] { return ctrl.epoch() >= 3; });
    stats = ctrl.stats();
    EXPECT_EQ(ctrl.epoch(), 3u);
    EXPECT_EQ(stats.resolves, 2);
    EXPECT_EQ(stats.rejected, 1);
    EXPECT_EQ(stats.solver_errors, 1);
  }
}

TEST(AsyncController, CrashDiscardsInFlightSolveAndRecoversAfterRestart) {
  const CmdpSolution initial = solved();
  AsyncCmdpController ctrl(
      initial, [](const lp::SimplexBasis* warm) {
        return solvers::solve_replication_lp(test_cmdp(), {}, warm);
      },
      fast_config(), /*seed=*/17);
  ctrl.begin_cycle(1);
  ctrl.begin_cycle(2);
  ctrl.begin_cycle(3);  // launches the first re-solve (period 3), due 4
  ctrl.inject_crash(4, 10);  // takes the in-flight solve with it
  for (long t = 4; t <= 13; ++t) {
    ctrl.begin_cycle(t);
    EXPECT_EQ(ctrl.epoch(), 1u) << "no publish may land during the crash";
  }
  // Restart: cycle 14 relaunches cold, the flip lands at 15.
  ctrl.begin_cycle(14);
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fallback);
  ctrl.begin_cycle(15);
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fresh);
  EXPECT_GE(ctrl.epoch(), 2u);
}

// The acceptance-criterion test: a solver hung on a condition variable must
// not block the decision path.  Wall-clock lane (deterministic = false), so
// begin_cycle never waits for the solver thread — the cycle loop completes
// while the solve is parked on the CV, and the ladder degrades to FALLBACK.
TEST(AsyncController, StalledSolverNeverBlocksDecisionPath) {
  const CmdpSolution initial = solved();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  AsyncControllerConfig cfg = fast_config();
  cfg.deterministic = false;
  AsyncCmdpController ctrl(
      initial,
      [&](const lp::SimplexBasis* warm) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
        return solvers::solve_replication_lp(test_cmdp(), {}, warm);
      },
      cfg, /*seed=*/17);
  long completed = 0;
  for (long t = 1; t <= 30; ++t) {
    ctrl.begin_cycle(t);
    const PolicyQuery q = ctrl.policy_at(3);
    EXPECT_EQ(q.epoch, 1u);
    ++completed;
  }
  EXPECT_EQ(completed, 30) << "the decision path blocked on a hung solve";
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fallback);
  EXPECT_EQ(ctrl.stats().resolves, 0);

  // Un-hang the solver; the wall-clock lane publishes from the solver
  // thread, so poll stats until the flip lands, then the next cycle is
  // FRESH again.  (The release also guarantees the pool can drain at
  // destruction.)
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (int i = 0; i < 2000 && ctrl.stats().resolves == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(ctrl.stats().resolves, 0) << "solver never completed";
  ctrl.begin_cycle(31);
  EXPECT_EQ(ctrl.mode(), ControllerMode::Fresh);
  EXPECT_GE(ctrl.epoch(), 2u);
}

// ---------------------------------------------------------------------------
// Warm-start reuse across background re-solves
// ---------------------------------------------------------------------------

TEST(AsyncControllerWarmStart, BasisIsThreadedThroughConsecutiveResolves) {
  const CmdpSolution initial = solved();
  std::atomic<int> warm_calls{0};
  std::atomic<int> cold_calls{0};
  std::atomic<int> not_warm_started{0};
  AsyncControllerConfig cfg = fast_config();
  cfg.verify_warm_optimum = true;  // also exercises the warm==cold ENSURE
  AsyncCmdpController ctrl(
      initial,
      [&](const lp::SimplexBasis* warm) {
        if (warm != nullptr) {
          warm_calls.fetch_add(1, std::memory_order_relaxed);
        } else {
          cold_calls.fetch_add(1, std::memory_order_relaxed);
        }
        CmdpSolution s = solvers::solve_replication_lp(test_cmdp(), {}, warm);
        if (warm != nullptr && s.warm_start == lp::WarmStart::None) {
          not_warm_started.fetch_add(1, std::memory_order_relaxed);
        }
        return s;
      },
      cfg, /*seed=*/17);
  for (long t = 1; t <= 20; ++t) {
    ctrl.begin_cycle(t);
    EXPECT_EQ(ctrl.mode(), ControllerMode::Fresh) << "cycle " << t;
  }
  const AsyncControllerStats stats = ctrl.stats();
  EXPECT_GE(stats.resolves, 4);
  // Every background re-solve received the previous optimal basis; the only
  // cold call is the one-time warm==cold verification solve.
  EXPECT_EQ(warm_calls.load(), static_cast<int>(stats.resolves));
  EXPECT_EQ(cold_calls.load(), 1);
  EXPECT_EQ(not_warm_started.load(), 0)
      << "a supplied basis was not used to warm-start the simplex";
}

// ---------------------------------------------------------------------------
// The threshold fallback's structure (Thm. 1 / Thm. 2)
// ---------------------------------------------------------------------------

TEST(ControllerFallback, Level1ThresholdMatchesIncrementalPruningOnFig4Pin) {
  // The Fig. 4 pin: the exact IP solve of the node POMDP (paper parameters,
  // DeltaR = 100).  Theorem 1 says the optimal strategy is a belief
  // threshold; the fallback ladder leans on exactly that structure, so
  // assert the ThresholdPolicy built from the IP recovery threshold takes
  // the same action as the IP envelope at every belief.
  pomdp::NodeParams p;
  p.p_attack = 0.1;
  p.p_crash_healthy = 1e-5;
  p.p_crash_compromised = 1e-3;
  p.p_update = 2e-2;
  p.eta = 2.0;
  const pomdp::NodeModel model(p);
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const auto result = solvers::IncrementalPruning::solve_cycle(model, obs, 100);
  const double alpha_star =
      solvers::IncrementalPruning::recovery_threshold(result.value_functions[0]);
  EXPECT_NEAR(alpha_star, 0.278464678, 1e-6);  // the committed pin
  const solvers::ThresholdPolicy fallback =
      solvers::ThresholdPolicy::constant(alpha_star);
  for (int i = 0; i <= 400; ++i) {
    const double b = static_cast<double>(i) / 400.0;
    if (std::abs(b - alpha_star) < 1e-6) continue;  // the switch point itself
    const auto ip_action = solvers::envelope_action(result.value_functions[0], b);
    EXPECT_EQ(fallback.action(b, 1), ip_action) << "belief " << b;
  }
}

TEST(ControllerFallback, DominantThresholdCollapsesTheThm2Mixture) {
  using STP = SystemThresholdPolicy;
  // Majority weight on the randomized band extends to beta2...
  EXPECT_EQ(STP::dominant_threshold(2, 4, 0.7, 1), 4);
  EXPECT_EQ(STP::dominant_threshold(2, 4, 0.5, 1), 4);
  // ...minority weight contracts to beta1.
  EXPECT_EQ(STP::dominant_threshold(2, 4, 0.3, 1), 2);
  // Degenerate decompositions fall through sensibly.
  EXPECT_EQ(STP::dominant_threshold(-1, -1, 1.0, 1), 1);
  EXPECT_EQ(STP::dominant_threshold(3, -1, 1.0, 1), 3);
  EXPECT_EQ(STP::dominant_threshold(-1, 4, 0.8, 1), 4);
  EXPECT_EQ(STP::dominant_threshold(-1, 4, 0.2, 1), 1);
}

TEST(ControllerFallback, SystemThresholdIsMonotoneAndMatchesTheSolvedMixture) {
  const CmdpSolution solution = solved();
  ASSERT_TRUE(solution.valid_policy());
  const SystemThresholdPolicy policy =
      SystemThresholdPolicy::from_solution(solution, /*fallback_beta=*/1);
  // The dominant component is one of the mixture's own thresholds.
  EXPECT_TRUE(policy.beta() == solution.beta1 ||
              policy.beta() == solution.beta2);
  // Thm. 2 structure: add iff s <= beta — monotone, single switch.
  bool seen_reject = false;
  for (int s = 0; s <= 10; ++s) {
    const bool add = policy.add(s);
    EXPECT_EQ(add, s <= policy.beta()) << "state " << s;
    if (!add) seen_reject = true;
    if (seen_reject) {
      EXPECT_FALSE(add) << "non-monotone at state " << s;
    }
  }
  // The deterministic fallback agrees with the randomized table wherever
  // the table is itself deterministic (outside the randomized band).
  for (int s = 0; s <= solution.beta2 + 2; ++s) {
    const double pi = solution.add_probability_at(s);
    if (pi >= 1.0) {
      EXPECT_TRUE(policy.add(s)) << "state " << s;
    }
    if (pi <= 0.0) {
      EXPECT_FALSE(policy.add(s)) << "state " << s;
    }
  }
}

}  // namespace
}  // namespace tolerance::core
