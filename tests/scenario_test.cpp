// End-to-end system-controller scenario battery (`-L scenario` in ctest).
//
// Exercises the second feedback level closed-loop: ScenarioRunner drives the
// CMDP policy's recover/evict/add decisions against the emulated testbed AND
// a live MinBFT cluster, for every scenario in the catalog, with
// bit-identical results at any thread count.  Also pins the consensus-layer
// membership invariants the loop depends on: the 2f+1 floor, rejected USIG
// counters from evicted replicas, and restored voting rights (fresh USIG
// epoch) after a recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/core/system_controller.hpp"
#include "tolerance/emulation/scenario_runner.hpp"
#include "tolerance/emulation/scenarios.hpp"

namespace {

using namespace tolerance;
using emulation::Scenario;
using emulation::ScenarioResult;
using emulation::ScenarioRunner;

const std::vector<std::uint64_t> kBatterySeeds{7, 21};

ScenarioRunner runner_for(const std::string& name) {
  return emulation::make_scenario_runner(emulation::find_scenario(name), 42);
}

int scenario_floor(const Scenario& s) { return 2 * s.f + 1; }

// ---------------------------------------------------------------------------
// Catalog shape
// ---------------------------------------------------------------------------

TEST(ScenarioCatalog, HasTheDocumentedScenarios) {
  const auto names = emulation::scenario_names();
  ASSERT_GE(names.size(), 8u);
  const std::set<std::string> set(names.begin(), names.end());
  for (const char* expected :
       {"baseline-intrusion", "staggered-intrusions", "false-positive-storms",
        "correlated-burst-exceeds-f", "silent-saboteurs", "slow-loris",
        "crash-wave", "aggressive-attacker", "golden-small",
        "load-spike-100x", "retry-storm", "slow-loris-flood",
        "controller-crash-mid-intrusion", "controller-gc-pause",
        "controller-solver-failures", "controller-slow-solve-churn"}) {
    EXPECT_EQ(set.count(expected), 1u) << expected;
  }
  EXPECT_EQ(set.size(), names.size()) << "duplicate scenario names";
}

TEST(ScenarioCatalog, LookupFindsEveryEntryAndRejectsUnknownNames) {
  for (const auto& s : emulation::scenario_catalog()) {
    EXPECT_EQ(emulation::find_scenario(s.name).name, s.name);
    EXPECT_GE(s.initial_nodes, 2 * s.f + 1) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
  }
  EXPECT_THROW(emulation::find_scenario("no-such-scenario"),
               std::invalid_argument);
}

TEST(ScenarioCatalog, RunnerRejectsMalformedScenarios) {
  Rng rng(1);
  const auto detector = emulation::fit_pooled_detector(20, 11, 80.0, rng);
  Scenario s = emulation::find_scenario("golden-small");
  s.initial_nodes = 2;  // < 2f + 1
  EXPECT_THROW(ScenarioRunner(s, detector, std::nullopt),
               std::invalid_argument);
  Scenario late = emulation::find_scenario("golden-small");
  late.events[0].step = late.horizon + 5;
  EXPECT_THROW(ScenarioRunner(late, detector, std::nullopt),
               std::invalid_argument);
  Scenario pool = emulation::find_scenario("golden-small");
  pool.max_nodes = pool.initial_nodes - 1;
  EXPECT_THROW(ScenarioRunner(pool, detector, std::nullopt),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The battery: every named scenario runs green at threads=1 and threads=8
// with identical episode stats, and never lets the membership drop below
// the 2f+1 quorum floor.
// ---------------------------------------------------------------------------

class ScenarioBattery : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioBattery, GreenAndThreadCountInvariant) {
  const auto runner = runner_for(GetParam());
  const Scenario& s = runner.scenario();
  const auto serial = runner.run_many(kBatterySeeds, /*threads=*/1);
  const auto parallel = runner.run_many(kBatterySeeds, /*threads=*/8);
  ASSERT_EQ(serial.size(), kBatterySeeds.size());
  ASSERT_EQ(parallel.size(), kBatterySeeds.size());
  for (std::size_t i = 0; i < kBatterySeeds.size(); ++i) {
    EXPECT_TRUE(emulation::identical(serial[i], parallel[i]))
        << s.name << " episode " << i << " differs between thread counts";
    const ScenarioResult& r = serial[i];
    // The §III-C metrics are well-formed.
    EXPECT_GE(r.availability, 0.0);
    EXPECT_LE(r.availability, 1.0);
    EXPECT_GE(r.service_availability, 0.0);
    EXPECT_LE(r.service_availability, 1.0);
    EXPECT_GE(r.time_to_recovery, 0.0);
    EXPECT_GE(r.avg_nodes, static_cast<double>(scenario_floor(s)));
    // Quorum never silently drops below 2f + 1.
    EXPECT_GE(r.min_membership, scenario_floor(s)) << s.name;
    EXPECT_LE(r.max_membership, s.max_nodes) << s.name;
    // The decision trace covers every control cycle.
    ASSERT_EQ(r.trace.size(), static_cast<std::size_t>(s.horizon));
    for (int t = 0; t < s.horizon; ++t) {
      EXPECT_EQ(r.trace[static_cast<std::size_t>(t)].rfind(
                    "t=" + std::to_string(t + 1) + " ", 0),
                0u)
          << s.name << " trace line " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ScenarioBattery,
    ::testing::ValuesIn(emulation::scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Consensus batching equivalence: the scenario workload is sequential (one
// probe / membership op at a time), so the batched cluster must reproduce
// the unbatched episode bit-for-bit — across the whole catalog, at 1 and 8
// threads.  (Named *Parallel* so the TSan lane picks it up.)
// ---------------------------------------------------------------------------

class ScenarioBatchParallel : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioBatchParallel, BatchedMatchesUnbatchedAtAnyThreadCount) {
  const Scenario s = emulation::find_scenario(GetParam());
  ScenarioRunner::Options batched;  // defaults: batch_size 16, depth 4
  ScenarioRunner::Options unbatched;
  unbatched.unbatched_consensus = true;
  const auto batched_runner =
      emulation::make_scenario_runner(s, 42, 60, batched);
  const std::vector<std::uint64_t> seeds{7};
  const auto b1 = batched_runner.run_many(seeds, /*threads=*/1);
  const auto b8 = batched_runner.run_many(seeds, /*threads=*/8);
  ASSERT_EQ(b1.size(), 1u);
  EXPECT_TRUE(emulation::identical(b1[0], b8[0]))
      << s.name << ": batched episode differs between thread counts";
  // Scripted crashes kill leaders mid-flight: the view-change reproposal
  // backlog then engages the bounded pipeline window (unbatched runs with
  // an unbounded one), so the episodes legitimately drift apart in time —
  // safety for those runs is covered by the battery and the outcome pins,
  // and the unbatched episode is not worth simulating at all.  Every other
  // scenario is a sequential workload the batched cluster must reproduce
  // bit-for-bit.
  const bool has_scripted_crash = std::any_of(
      s.events.begin(), s.events.end(), [](const emulation::ScenarioEvent& e) {
        return e.kind == emulation::ScenarioEvent::Kind::ForceCrash;
      });
  // Flood scenarios are likewise exempt from the unbatched comparison:
  // hundreds of concurrent flood clients keep the request queues full, so
  // batch sealing genuinely changes execution timing (that is the point of
  // batching) and the two episodes drift apart legitimately.
  const bool exempt = has_scripted_crash || emulation::has_flood_events(s);
  if (!exempt) {
    const auto unbatched_runner =
        emulation::make_scenario_runner(s, 42, 60, unbatched);
    const auto u1 = unbatched_runner.run_many(seeds, /*threads=*/1);
    EXPECT_TRUE(emulation::identical(b1[0], u1[0]))
        << s.name << ": batching changed the sequential-workload episode";
  } else {
    // The batched run must still hold the structural invariants.
    EXPECT_GE(b1[0].min_membership, 2 * s.f + 1);
    EXPECT_EQ(b1[0].trace.size(), static_cast<std::size_t>(s.horizon));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ScenarioBatchParallel,
    ::testing::ValuesIn(emulation::scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Per-scenario expectations (calibrated on the battery seeds; episodes are
// deterministic, so these are regressions, not statistical tests).
// ---------------------------------------------------------------------------

TEST(ScenarioOutcomes, BaselineKeepsServiceUp) {
  const auto r = runner_for("baseline-intrusion").run(7);
  EXPECT_GE(r.availability, 0.95);
  EXPECT_GE(r.service_availability, 0.95);
  EXPECT_GT(r.recoveries, 0);
}

TEST(ScenarioOutcomes, StaggeredIntrusionsAreAllCaught) {
  const auto r = runner_for("staggered-intrusions").run(7);
  // Three forced compromises plus whatever the stochastic attacker lands.
  EXPECT_GE(r.compromises, 3);
  EXPECT_GT(r.time_to_recovery, 0.0);
  EXPECT_GE(r.availability, 0.9);
}

TEST(ScenarioOutcomes, FalsePositiveStormsDoNotCompromiseAnything) {
  const auto r = runner_for("false-positive-storms").run(7);
  // Attacker is off: every recovery is storm-induced, no compromise exists.
  EXPECT_EQ(r.compromises, 0);
  EXPECT_EQ(r.time_to_recovery, 0.0);
  EXPECT_GT(r.recoveries, 0) << "storms should trip some recoveries";
  EXPECT_GE(r.availability, 0.99) << "storms must not take the system down";
  EXPECT_GE(r.service_availability, 0.99);
}

TEST(ScenarioOutcomes, CorrelatedBurstIsRecoveredWithinSlots) {
  const auto r = runner_for("correlated-burst-exceeds-f").run(21);
  EXPECT_GE(r.compromises, 3) << "the scripted 2f+1 burst must register";
  EXPECT_GT(r.time_to_recovery, 0.0);
  // The burst exceeds the per-cycle recovery slots, so full recovery takes
  // more than one cycle — but the loop must win quickly.
  EXPECT_GE(r.availability, 0.95);
}

TEST(ScenarioOutcomes, SlowLorisRaisesLoadWithoutTakingServiceDown) {
  const auto r = runner_for("slow-loris").run(7);
  EXPECT_GE(r.service_availability, 0.95);
  EXPECT_GE(r.availability, 0.95);
}

TEST(ScenarioOutcomes, CrashWaveChurnsMembershipAndHoldsTheFloor) {
  const auto runner = runner_for("crash-wave");
  const auto r = runner.run(7);
  const int floor = scenario_floor(runner.scenario());
  EXPECT_GT(r.evictions, 0) << "crashes must be evicted through consensus";
  EXPECT_GT(r.additions, 0) << "the pool has capacity; adds must land";
  EXPECT_EQ(r.min_membership, floor)
      << "the wave should pin the cluster at the floor, never below";
  EXPECT_GT(r.final_view, 0u) << "crashed leaders force view changes";
  EXPECT_LT(r.service_availability, 1.0)
      << "a crash wave without service impact would be suspicious";
  EXPECT_GT(r.service_availability, 0.3);
}

TEST(ScenarioOutcomes, AggressiveAttackerDrivesRecoveryChurn) {
  const auto r = runner_for("aggressive-attacker").run(7);
  EXPECT_GE(r.recoveries, 15) << "4x attack rate must drive recovery churn";
  EXPECT_GE(r.availability, 0.9);
}

// ---------------------------------------------------------------------------
// Overload battery: the admission valve's contract under floods.  Each gate
// is paired with a valve-off baseline run of the same scenario, so the test
// demonstrates the valve EARNS its keep: the baseline measurably violates
// the same bounds the valve holds.
// ---------------------------------------------------------------------------

ScenarioResult run_without_admission(const std::string& name) {
  Scenario s = emulation::find_scenario(name);
  s.admission_control = false;
  return emulation::make_scenario_runner(s, 42).run(7);
}

TEST(ScenarioOverload, LoadSpikeServesOrShedsEverythingWithBoundedQueues) {
  const auto on = runner_for("load-spike-100x").run(7);
  // Every admitted request completes; shed requests are the valve's doing
  // and excluded from the denominator by definition.
  EXPECT_GE(on.admitted_availability, 0.95);
  EXPECT_LE(on.max_queue_depth, 512) << "queues must stay bounded";
  EXPECT_EQ(on.final_view, 0u) << "overload must not masquerade as leader "
                                  "failure and trigger failover";
  EXPECT_GT(on.flood_rejections, 0u) << "the valve must actually shed";
  EXPECT_GT(on.flood_backoffs, 0u) << "clients must actually back off";
  const auto off = run_without_admission("load-spike-100x");
  EXPECT_LT(off.admitted_availability, 0.6)
      << "baseline must melt or the scenario is not an overload";
  EXPECT_GT(off.max_queue_depth, 100000)
      << "baseline queues must grow without bound";
}

TEST(ScenarioOverload, RetryStormConvergesUnderBackoff) {
  const auto on = runner_for("retry-storm").run(7);
  EXPECT_GE(on.admitted_availability, 0.95);
  EXPECT_LE(on.max_queue_depth, 512);
  EXPECT_GT(on.flood_backoffs, 0u);
  EXPECT_EQ(on.final_view, 0u);
  const auto off = run_without_admission("retry-storm");
  EXPECT_GT(off.max_queue_depth, 2000)
      << "1 s retransmissions must swamp the baseline's queues";
}

TEST(ScenarioOverload, SlowLorisFloodIsShedAndQueuesStayBounded) {
  const auto on = runner_for("slow-loris-flood").run(7);
  // Loris requests linger by design (their clients never retransmit and
  // never complete), so the gate here is purely structural: bounded queues
  // and an alive trickle, while the baseline drowns.
  EXPECT_LE(on.max_queue_depth, 512);
  EXPECT_GT(on.flood_rejections, 0u);
  EXPECT_GE(on.service_availability, 0.2)
      << "the HARD trickle must keep some probes alive";
  const auto off = run_without_admission("slow-loris-flood");
  EXPECT_GT(off.max_queue_depth, 2000);
}

// ---------------------------------------------------------------------------
// Controller-fault battery: the asynchronous level-2 controller's staleness
// failsafe vs. the inline/no-failsafe baseline on the same scenarios.  Each
// gate pairs the failsafe run (FALLBACK engages, zero frozen cycles, service
// holds) with an inline baseline run whose controller-fault windows freeze
// the whole level-2 step — demonstrating the ladder earns its keep.
// ---------------------------------------------------------------------------

ScenarioResult run_controller(const std::string& name, std::uint64_t seed,
                              bool async) {
  ScenarioRunner::Options opt;
  opt.async_controller = async;
  return emulation::make_scenario_runner(emulation::find_scenario(name), 42,
                                         60, opt)
      .run(seed);
}

TEST(ScenarioController, CrashFailsafeBeatsFrozenBaseline) {
  for (std::uint64_t seed : kBatterySeeds) {
    const auto on = run_controller("controller-crash-mid-intrusion", seed,
                                   /*async=*/true);
    // Failsafe ON: the ladder degrades through HOLD into FALLBACK while the
    // re-solver is down, keeps evicting/adding on the threshold policy, and
    // recovers to FRESH once the cold restart's first flip lands.
    EXPECT_EQ(on.controller_frozen_cycles, 0) << "seed " << seed;
    EXPECT_GT(on.controller_fallback_cycles, 0) << "seed " << seed;
    EXPECT_GT(on.controller_hold_cycles, 0) << "seed " << seed;
    EXPECT_GE(on.policy_epoch, 2u) << "no flip landed after the restart";
    EXPECT_EQ(on.controller_mode, "fresh") << "seed " << seed;
    EXPECT_GE(std::min(on.availability, on.service_availability), 0.95)
        << "seed " << seed;
    // Failsafe OFF: the crash window freezes the level-2 step outright.
    const auto off = run_controller("controller-crash-mid-intrusion", seed,
                                    /*async=*/false);
    EXPECT_EQ(off.controller_frozen_cycles, 30) << "seed " << seed;
    EXPECT_EQ(off.policy_epoch, 0u);
    EXPECT_LE(std::min(off.availability, off.service_availability), 0.87)
        << "baseline must measurably degrade, or the scenario is toothless "
           "(seed "
        << seed << ")";
  }
}

TEST(ScenarioController, GcPauseFailsafeHoldsService) {
  double worst_inline_availability = 1.0;
  for (std::uint64_t seed : kBatterySeeds) {
    const auto on = run_controller("controller-gc-pause", seed, true);
    EXPECT_EQ(on.controller_frozen_cycles, 0) << "seed " << seed;
    EXPECT_GT(on.controller_fallback_cycles, 0) << "seed " << seed;
    EXPECT_EQ(on.controller_mode, "fresh") << "seed " << seed;
    EXPECT_GE(on.availability, 0.999) << "seed " << seed;
    EXPECT_GE(on.service_availability, 0.999) << "seed " << seed;
    // The stall parks the in-flight solve rather than losing it: once the
    // pause lifts, the harvest publishes without a cold restart.
    EXPECT_GE(on.controller_resolves, 5L) << "seed " << seed;
    const auto off = run_controller("controller-gc-pause", seed, false);
    EXPECT_EQ(off.controller_frozen_cycles, 24) << "seed " << seed;
    worst_inline_availability =
        std::min(worst_inline_availability,
                 std::min(off.availability, off.service_availability));
  }
  EXPECT_LT(worst_inline_availability, 1.0)
      << "the frozen baseline must drop probes for at least one seed";
}

TEST(ScenarioController, SolverFailuresAreRejectedAndRecovered) {
  for (std::uint64_t seed : kBatterySeeds) {
    const auto on = run_controller("controller-solver-failures", seed, true);
    // Exactly the five scripted poisoned solves are rejected; the guard
    // never flips one in, and the jittered retries eventually land a good
    // re-solve that returns the ladder to FRESH.
    EXPECT_EQ(on.controller_rejected, 5L) << "seed " << seed;
    EXPECT_GE(on.controller_resolves, 5L) << "seed " << seed;
    EXPECT_GE(on.policy_epoch, 6u) << "seed " << seed;
    EXPECT_EQ(on.controller_mode, "fresh") << "seed " << seed;
    EXPECT_GT(on.controller_fallback_cycles, 0L) << "seed " << seed;
    EXPECT_EQ(on.controller_frozen_cycles, 0L) << "seed " << seed;
    EXPECT_GE(on.availability, 0.999) << "seed " << seed;
    EXPECT_GE(on.service_availability, 0.999) << "seed " << seed;
    const auto off = run_controller("controller-solver-failures", seed, false);
    EXPECT_EQ(off.controller_frozen_cycles, 25) << "seed " << seed;
    EXPECT_EQ(off.controller_rejected, 0L) << "seed " << seed;
  }
}

TEST(ScenarioController, SlowSolveChurnHoldsWithoutFallback) {
  const Scenario& s = emulation::find_scenario("controller-slow-solve-churn");
  for (std::uint64_t seed : kBatterySeeds) {
    const auto on = run_controller("controller-slow-solve-churn", seed, true);
    // Staleness rides above the (deliberately tight) budget while each slow
    // solve is in flight, but never reaches the fallback deadline: the
    // ladder oscillates FRESH <-> HOLD and the failsafe stays sheathed.
    EXPECT_GT(on.controller_hold_cycles, 0L) << "seed " << seed;
    EXPECT_EQ(on.controller_fallback_cycles, 0L) << "seed " << seed;
    EXPECT_LE(on.controller_max_staleness, s.controller->fallback_deadline)
        << "seed " << seed;
    EXPECT_GT(on.controller_max_staleness, s.controller->staleness_budget)
        << "seed " << seed;
    // No controller fault is scripted, so in FRESH/HOLD the async controller
    // consumes the decision RNG exactly like the inline solve: the episode
    // outcomes must be identical, telemetry aside.
    const auto off = run_controller("controller-slow-solve-churn", seed, false);
    EXPECT_EQ(on.availability, off.availability) << "seed " << seed;
    EXPECT_EQ(on.service_availability, off.service_availability)
        << "seed " << seed;
    EXPECT_EQ(on.evictions, off.evictions) << "seed " << seed;
    EXPECT_EQ(on.additions, off.additions) << "seed " << seed;
    EXPECT_EQ(on.recoveries, off.recoveries) << "seed " << seed;
  }
}

TEST(ScenarioController, LateEvictionSkipsTheConsensusRecovery) {
  // Under this seed an eviction ordered past its budget executes before the
  // cycle's local-recovery loop reaches the same node: its id has already
  // left the membership.  The runner must skip that consensus recovery (the
  // reconciliation step later in the cycle finalizes the eviction) rather
  // than rebuild a replica outside the membership, which throws.
  const Scenario& s = emulation::find_scenario("controller-slow-solve-churn");
  ScenarioResult r;
  ASSERT_NO_THROW(r = runner_for(s.name).run(175218));
  EXPECT_GE(r.min_membership, scenario_floor(s));
  EXPECT_GT(r.evictions, 0);
  EXPECT_EQ(r.availability, 1.0);
}

TEST(ScenarioController, AsyncNoFaultMatchesInlineOnLegacyCatalog) {
  // Forcing the async controller onto a legacy (fault-free) scenario must
  // not change a single decision: scalars are equal and each async trace
  // line is the inline line plus the controller-telemetry suffix.
  const auto on = run_controller("golden-small", 2024, true);
  const auto off = run_controller("golden-small", 2024, false);
  EXPECT_EQ(on.availability, off.availability);
  EXPECT_EQ(on.service_availability, off.service_availability);
  EXPECT_EQ(on.avg_nodes, off.avg_nodes);
  EXPECT_EQ(on.recoveries, off.recoveries);
  EXPECT_EQ(on.evictions, off.evictions);
  EXPECT_EQ(on.additions, off.additions);
  EXPECT_EQ(on.compromises, off.compromises);
  EXPECT_EQ(on.final_view, off.final_view);
  EXPECT_GE(on.policy_epoch, 1u);
  EXPECT_EQ(off.policy_epoch, 0u);
  ASSERT_EQ(on.trace.size(), off.trace.size());
  for (std::size_t i = 0; i < on.trace.size(); ++i) {
    EXPECT_EQ(on.trace[i].rfind(off.trace[i], 0), 0u)
        << "async trace line " << i
        << " does not extend the inline line:\n  inline: " << off.trace[i]
        << "\n  async:  " << on.trace[i];
    EXPECT_NE(on.trace[i].find(" ep="), std::string::npos) << "line " << i;
  }
}

// ---------------------------------------------------------------------------
// Runner mechanics
// ---------------------------------------------------------------------------

TEST(ScenarioRunnerApi, RunManyMatchesIndividualRuns) {
  const auto runner = runner_for("golden-small");
  const std::vector<std::uint64_t> seeds{3, 9, 27};
  const auto many = runner.run_many(seeds, 4);
  ASSERT_EQ(many.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(emulation::identical(many[i], runner.run(seeds[i]))) << i;
  }
}

TEST(ScenarioRunnerApi, TraceRecordingCanBeDisabled) {
  const Scenario s = emulation::find_scenario("golden-small");
  Rng rng(5);
  const auto detector = emulation::fit_pooled_detector(30, 11, 80.0, rng);
  ScenarioRunner::Options options;
  options.record_trace = false;
  const ScenarioRunner quiet(s, detector, std::nullopt, options);
  const auto r = quiet.run(7);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_GT(r.avg_nodes, 0.0);
}

TEST(ScenarioRunnerApi, StaticReplicationNeverAddsNodes) {
  const Scenario s = emulation::find_scenario("crash-wave");
  Rng rng(5);
  const auto detector = emulation::fit_pooled_detector(30, 11, 80.0, rng);
  const ScenarioRunner fixed(s, detector, std::nullopt);
  const auto r = fixed.run(7);
  EXPECT_EQ(r.additions, 0);
  EXPECT_GE(r.min_membership, scenario_floor(s));
}

// ---------------------------------------------------------------------------
// Golden-trace regression: the full decision/membership trace of the fixed
// golden-small episode is pinned against a committed file, so solver or
// estimator drift is caught by ctest rather than by eyeballing benches.
// Regenerate with TOLERANCE_REGEN_GOLDEN=1 after an intentional change.
// ---------------------------------------------------------------------------

TEST(ScenarioGolden, TraceMatchesCommittedFile) {
  const std::string path =
      std::string(TOLERANCE_GOLDEN_DIR) + "/scenario_golden_trace.txt";
  const auto result = runner_for("golden-small").run(2024);
  if (std::getenv("TOLERANCE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : result.trace) out << line << '\n';
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  ASSERT_EQ(result.trace.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.trace[i], expected[i]) << "trace line " << i + 1;
  }
}

// ---------------------------------------------------------------------------
// SystemController limits (the clamps the harness relies on)
// ---------------------------------------------------------------------------

TEST(SystemLimits, EvictionsAreClampedToFPerCycle) {
  core::SystemLimits limits;
  limits.f = 2;
  limits.min_nodes = 0;
  core::SystemController controller(std::nullopt, 10, 1, limits);
  // Six nodes, all silent: only f = 2 may go this cycle.
  const auto decision = controller.step(std::vector<double>(6, 1.0),
                                        std::vector<bool>(6, false));
  EXPECT_EQ(decision.evict.size(), 2u);
  EXPECT_EQ(decision.deferred_evictions, 4);
  EXPECT_EQ(decision.evict[0], 0);
  EXPECT_EQ(decision.evict[1], 1);
}

TEST(SystemLimits, MembershipFloorDefersEvictionsAndForcesAdd) {
  core::SystemLimits limits;
  limits.f = 1;
  limits.min_nodes = 3;
  // A CMDP solution that would never add on its own.
  solvers::CmdpSolution never_add;
  never_add.status = lp::LpStatus::Optimal;
  never_add.add_probability = std::vector<double>(11, 0.0);
  core::SystemController controller(never_add, 10, 1, limits);
  const auto decision = controller.step({0.1, 0.1, 1.0},
                                        {true, true, false});
  EXPECT_TRUE(decision.evict.empty()) << "eviction would break 2f+1";
  EXPECT_EQ(decision.deferred_evictions, 1);
  EXPECT_TRUE(decision.add_node) << "floor repair must not wait on the policy";
}

TEST(SystemLimits, DisabledLimitsPreserveLegacyBehaviour) {
  core::SystemController controller(std::nullopt, 10, 7);
  const auto decision = controller.step(std::vector<double>(4, 1.0),
                                        std::vector<bool>(4, false));
  EXPECT_EQ(decision.evict.size(), 4u);
  EXPECT_EQ(decision.deferred_evictions, 0);
}

TEST(SystemLimits, CmdpPolicyQueryClampsOutOfRangeStates) {
  solvers::CmdpSolution sol;
  sol.status = lp::LpStatus::Optimal;
  sol.add_probability = {1.0, 0.5, 0.0};
  EXPECT_EQ(sol.add_probability_at(-5), 1.0);
  EXPECT_EQ(sol.add_probability_at(0), 1.0);
  EXPECT_EQ(sol.add_probability_at(1), 0.5);
  EXPECT_EQ(sol.add_probability_at(99), 0.0);
  Rng rng(3);
  EXPECT_EQ(sol.act_clamped(-5, rng), 1);
  EXPECT_EQ(sol.act_clamped(99, rng), 0);
}

// ---------------------------------------------------------------------------
// Testbed scenario hooks
// ---------------------------------------------------------------------------

TEST(TestbedHooks, ForceCompromiseAndCrashChangeStateInstantly) {
  emulation::TestbedConfig config;
  config.initial_nodes = 3;
  emulation::Testbed testbed(config, 11);
  testbed.force_compromise(0, emulation::CompromisedBehavior::Silent);
  EXPECT_EQ(testbed.nodes()[0].state, pomdp::NodeState::Compromised);
  EXPECT_EQ(testbed.nodes()[0].behavior,
            emulation::CompromisedBehavior::Silent);
  EXPECT_EQ(testbed.failed_count(), 1);
  testbed.force_crash(0);
  EXPECT_EQ(testbed.nodes()[0].state, pomdp::NodeState::Crashed);
  // A crashed node cannot be compromised (it is dark).
  EXPECT_THROW(
      testbed.force_compromise(0, emulation::CompromisedBehavior::Participate),
      std::invalid_argument);
}

TEST(TestbedHooks, ExtraLoadIsStickyUntilCleared) {
  emulation::TestbedConfig config;
  config.initial_nodes = 3;
  emulation::Testbed testbed(config, 11);
  EXPECT_EQ(testbed.extra_load(), 0);
  testbed.set_extra_load(200);
  EXPECT_EQ(testbed.extra_load(), 200);
  testbed.step();
  EXPECT_EQ(testbed.extra_load(), 200);
  testbed.set_extra_load(0);
  EXPECT_EQ(testbed.extra_load(), 0);
  EXPECT_THROW(testbed.set_extra_load(-1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Consensus membership invariants under churn
// ---------------------------------------------------------------------------

consensus::MinBftConfig quiet_config() {
  consensus::MinBftConfig cfg;
  cfg.f = 1;
  cfg.checkpoint_period = 100;
  cfg.view_change_timeout = 1000.0;  // keep views stable for these tests
  cfg.request_retry_timeout = 1.0;
  return cfg;
}

net::LinkConfig lossless() {
  net::LinkConfig link;
  link.loss = 0.0;
  return link;
}

TEST(MembershipInvariants, ClusterExposesMembershipAndQuorumFloor) {
  consensus::MinBftCluster cluster(3, quiet_config(), 77, lossless());
  EXPECT_EQ(cluster.membership(), (std::vector<consensus::ReplicaId>{0, 1, 2}));
  EXPECT_EQ(cluster.quorum_floor(), 3);
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "op").has_value());
}

TEST(MembershipInvariants, EvictedReplicasUsigCounterIsNeverAcceptedAgain) {
  consensus::MinBftCluster cluster(3, quiet_config(), 99, lossless());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "op1").has_value());

  // Evict replica 2 through consensus but keep the object alive and wired
  // to the network: an attacker-controlled machine that was excluded from
  // the protocol but not powered off.  Its USIG still certifies fresh,
  // strictly-monotonic counters.
  auto zombie = cluster.evict_and_detach(2);
  ASSERT_NE(zombie, nullptr);
  EXPECT_EQ(cluster.membership(),
            (std::vector<consensus::ReplicaId>{0, 1}));

  // Silence replica 1 and wiretap its host: every PREPARE the leader sends
  // it is forwarded to the zombie, which will answer with a fresh-counter
  // COMMIT.  The leader then holds its own commit plus the zombie's — a
  // quorum of f+1 = 2 if evicted counters were accepted.
  consensus::MinBftReplica* zombie_raw = zombie.get();
  cluster.network().register_host(
      1, [zombie_raw](net::NodeId from, const consensus::MinBftMsg& m) {
        if (std::holds_alternative<consensus::Prepare>(m)) {
          zombie_raw->on_message(from, m);
        }
      });

  const std::size_t executed_before = cluster.replica(0).committed_log_size();
  const std::uint64_t zombie_counter_before = zombie_raw->usig_counter();
  const auto result = cluster.submit_and_run(client, "op2", 40000);
  EXPECT_FALSE(result.has_value())
      << "op2 executed — an evicted replica's USIG counter was accepted";
  EXPECT_EQ(cluster.replica(0).committed_log_size(), executed_before);
  EXPECT_GT(zombie_raw->usig_counter(), zombie_counter_before)
      << "the zombie never voted — the wiretap did not fire";
}

TEST(MembershipInvariants, RecoveredReplicaRegainsVotingRightsViaFreshEpoch) {
  consensus::MinBftCluster cluster(3, quiet_config(), 123, lossless());
  auto& client = cluster.add_client();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        cluster.submit_and_run(client, "op" + std::to_string(i)).has_value());
  }
  // Recover replica 1: fresh container, USIG counter restarts at zero under
  // a bumped epoch.  Then crash replica 2, so the next request can only
  // reach quorum if the recovered replica's votes are accepted again.
  cluster.recover_replica(1);
  EXPECT_EQ(cluster.replica(1).committed_log_size(), 3u)
      << "state transfer should have caught the recovered replica up";
  cluster.crash_replica(2);
  const auto result = cluster.submit_and_run(client, "after-recovery", 60000);
  ASSERT_TRUE(result.has_value())
      << "recovered replica's restarted counters were rejected — the epoch "
         "bump is not working";
  EXPECT_EQ(cluster.replica(1).service().log().back(), "after-recovery");
}

TEST(MembershipInvariants, ClientCancelAbandonsPendingProbes) {
  consensus::MinBftCluster cluster(3, quiet_config(), 55, lossless());
  for (const auto id : cluster.replica_ids()) {
    cluster.replica(id).set_mode(consensus::ByzantineMode::Silent);
  }
  auto& client = cluster.add_client();
  bool completed = false;
  const auto rid = client.submit(
      "probe", [&completed](std::uint64_t, const std::string&, double) {
        completed = true;
      });
  cluster.network().run(20000);
  EXPECT_FALSE(completed);
  EXPECT_EQ(client.pending_count(), 1u);
  client.cancel(rid);
  EXPECT_EQ(client.pending_count(), 0u);
  cluster.network().run(20000);
  EXPECT_FALSE(completed) << "a cancelled probe must never complete";
}

TEST(MembershipInvariants, TryJoinAndTryEvictSucceedWithHealthyQuorum) {
  consensus::MinBftCluster cluster(3, quiet_config(), 31, lossless());
  const auto joined = cluster.try_join_new_replica();
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(cluster.membership().size(), 4u);
  EXPECT_TRUE(cluster.has_replica(*joined));
  ASSERT_TRUE(cluster.try_evict_replica(*joined));
  EXPECT_EQ(cluster.membership().size(), 3u);
  EXPECT_FALSE(cluster.has_replica(*joined));
}

TEST(MembershipInvariants, TryOpsFailGracefullyWithoutQuorum) {
  consensus::MinBftCluster cluster(3, quiet_config(), 13, lossless());
  // Silence 2 > f replicas: nothing can be ordered.
  cluster.replica(1).set_mode(consensus::ByzantineMode::Silent);
  cluster.replica(2).set_mode(consensus::ByzantineMode::Silent);
  EXPECT_FALSE(cluster.try_evict_replica(2, 30000));
  EXPECT_EQ(cluster.membership().size(), 3u);
  EXPECT_TRUE(cluster.has_replica(2));
  EXPECT_FALSE(cluster.try_join_new_replica(30000).has_value());
  EXPECT_EQ(cluster.membership().size(), 3u)
      << "failed join must roll the speculative replica back";
}

}  // namespace
