// Admission-control battery: the service-boundary valve from the unit level
// (pressure filter, hysteresis mode machine, token budgets) up through a
// live MinBFT cluster (typed Overloaded rejections, client backoff, and the
// Byzantine fake-pressure defense).  All suites are named Admission* so the
// TSan CI lane picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "tolerance/consensus/admission.hpp"
#include "tolerance/consensus/minbft_cluster.hpp"

namespace tolerance::consensus {
namespace {

MinBftConfig fast_config(int f) {
  MinBftConfig cfg;
  cfg.f = f;
  cfg.checkpoint_period = 10;
  cfg.log_watermark = 100;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  return cfg;
}

net::LinkConfig fast_link() {
  net::LinkConfig link;
  link.base_delay = 1e-3;
  link.jitter = 2e-4;
  link.loss = 0.0;
  return link;
}

/// A valve that rejects everything from the first request on: any pressure
/// enters SOFT, and both budgets are zero.
AdmissionConfig reject_all_config() {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.soft_enter = 0.0;
  cfg.soft_exit = -1.0;  // never leaves SOFT
  cfg.soft_rate = 0.0;
  cfg.soft_burst = 0.0;
  cfg.hard_rate = 0.0;
  cfg.hard_burst = 0.0;
  cfg.retry_after_soft_ms = 100;
  return cfg;
}

// ---------------------------------------------------------------------------
// Pressure filter: EWMA attack, wall-clock release
// ---------------------------------------------------------------------------

TEST(AdmissionFilter, AttackConvergesOnSustainedPressure) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  AdmissionController c(cfg);
  // Saturated queue, saturated latency, all-retry window: raw pressure 1.0.
  // The first sample seeds the filter outright; the rest are a fixed point.
  for (int i = 0; i < 10; ++i) {
    c.observe_request(/*retry=*/true);
    c.update(/*now=*/static_cast<double>(i), /*queue_depth=*/1000.0,
             /*oldest_wait_seconds=*/100.0);
  }
  EXPECT_DOUBLE_EQ(c.pressure(), 1.0);
  EXPECT_EQ(c.mode(), AdmissionMode::kHard);

  // Partial pressure converges to the raw blend, never overshooting it:
  // queue at half capacity and nothing else contributes 0.5 * W_Q, with
  // the queue weight W_Q = 0.5.
  AdmissionController half(cfg);
  for (int i = 0; i < 200; ++i) {
    half.observe_request(/*retry=*/false);
    half.update(static_cast<double>(i), cfg.queue_capacity / 2.0, 0.0);
  }
  EXPECT_NEAR(half.pressure(), 0.5 * 0.5, 1e-9);
}

TEST(AdmissionFilter, ReleaseDecaysOnTheClockNotPerSample) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.release_tau = 10.0;
  AdmissionController c(cfg);
  c.observe_request(/*retry=*/true);  // err* = 1 so the raw blend is 1.0
  c.update(/*now=*/0.0, /*queue_depth=*/1e9, /*oldest_wait=*/1e9);
  ASSERT_DOUBLE_EQ(c.pressure(), 1.0);
  // A burst of calm samples at the SAME instant decays nothing: release is
  // a function of elapsed time, so a saturated replica's momentary queue
  // troughs (hundreds of arrivals at one busy-window boundary) cannot
  // reopen the valve between serving bursts.
  for (int i = 0; i < 1000; ++i) c.update(0.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(c.pressure(), 1.0);
  // One time constant later the decay is the textbook 1 - 1/e.
  c.update(/*now=*/cfg.release_tau, 0.0, 0.0);
  EXPECT_NEAR(c.pressure(), std::exp(-1.0), 1e-9);
  // Rising samples still take the fast per-observation path.
  c.observe_request(/*retry=*/true);
  c.update(cfg.release_tau, 1e9, 1e9);
  EXPECT_GT(c.pressure(), 0.5);
}

// ---------------------------------------------------------------------------
// Mode machine: hysteresis and stepwise recovery
// ---------------------------------------------------------------------------

TEST(AdmissionModes, SquareWavePressureDoesNotFlapTheValve) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  AdmissionController c(cfg);
  // Raw pressure square-waving across soft_enter (0.55): 0.65 on even
  // samples (queue saturated + 1 s wait), 0.45 on odd ones (queue at 60%).
  // The filter plus the [soft_exit, soft_enter] hysteresis band must absorb
  // the oscillation — the valve closes once and stays closed.
  const double hi_queue = cfg.queue_capacity;        // queue* = 1.0 -> 0.50
  const double lo_queue = cfg.queue_capacity * 0.6;  // queue* = 0.6 -> 0.30
  for (int i = 0; i < 400; ++i) {
    c.observe_request(/*retry=*/false);
    c.update(static_cast<double>(i) * 0.1,
             i % 2 == 0 ? hi_queue : lo_queue,
             /*oldest_wait=*/1.0);  // lat* = 0.5 -> a constant 0.15
  }
  EXPECT_EQ(c.mode(), AdmissionMode::kSoft);
  EXPECT_EQ(c.mode_changes(), 1u)
      << "a square wave around the threshold must not flap the mode";
}

TEST(AdmissionModes, EscalationIsImmediateButRecoveryStepsDown) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.release_tau = 1.0;
  AdmissionController c(cfg);
  // A 100x spike saturates every signal at once: NORMAL -> HARD in one
  // update, no SOFT dwell on the way up.
  c.observe_request(true);
  c.update(0.0, 1e9, 1e9);
  EXPECT_EQ(c.mode(), AdmissionMode::kHard);
  EXPECT_EQ(c.mode_changes(), 1u);
  // Recovery is stepwise: as pressure decays on the release clock the valve
  // passes through SOFT before reopening, never HARD -> NORMAL directly.
  std::vector<AdmissionMode> seen{c.mode()};
  for (int i = 1; i <= 40; ++i) {
    c.update(static_cast<double>(i), 0.0, 0.0);
    if (seen.back() != c.mode()) seen.push_back(c.mode());
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], AdmissionMode::kHard);
  EXPECT_EQ(seen[1], AdmissionMode::kSoft);
  EXPECT_EQ(seen[2], AdmissionMode::kNormal);
  EXPECT_EQ(c.mode_changes(), 3u);
}

// ---------------------------------------------------------------------------
// Token budgets
// ---------------------------------------------------------------------------

TEST(AdmissionTokens, BudgetExhaustsAndRefillsDeterministically) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.soft_enter = 0.0;  // first sample closes the valve
  cfg.soft_rate = 2.0;
  cfg.soft_burst = 4.0;
  AdmissionController c(cfg);
  c.update(0.0, cfg.queue_capacity, 0.0);
  ASSERT_EQ(c.mode(), AdmissionMode::kSoft);
  // The burst is granted on closing; then the bucket runs dry.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.try_admit(0.0)) << i;
  EXPECT_FALSE(c.try_admit(0.0));
  EXPECT_EQ(c.admitted(), 4u);
  EXPECT_EQ(c.rejected(), 1u);
  // Elapsed time refills at soft_rate: one second buys exactly two tokens.
  EXPECT_TRUE(c.try_admit(1.0));
  EXPECT_TRUE(c.try_admit(1.0));
  EXPECT_FALSE(c.try_admit(1.0));
  // The bucket clamps at the burst, no matter how long the lull.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.try_admit(1000.0)) << i;
  EXPECT_FALSE(c.try_admit(1000.0));
}

TEST(AdmissionTokens, BandEdgeFlappingCannotMintTokens) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.soft_enter = 0.0;
  cfg.soft_rate = 0.0;  // no refill: any admission below is minted
  cfg.soft_burst = 3.0;
  cfg.hard_rate = 0.0;
  cfg.hard_burst = 2.0;
  cfg.release_tau = 1e9;  // pressure moves only via the attack path here
  AdmissionController c(cfg);
  c.update(0.0, cfg.queue_capacity * 0.5, 0.0);  // close into SOFT
  ASSERT_EQ(c.mode(), AdmissionMode::kSoft);
  while (c.try_admit(0.0)) {
  }
  EXPECT_EQ(c.admitted(), 3u);
  // Slam the pressure across the HARD band and (via a fresh controller
  // update at low raw... not possible with infinite tau) back: SOFT -> HARD
  // carries min(balance, burst) = 0 — the transition grants nothing.
  for (int i = 0; i < 50; ++i) {
    c.observe_request(true);
    c.update(static_cast<double>(i), 1e9, 1e9);  // SOFT -> HARD (once)
    EXPECT_FALSE(c.try_admit(static_cast<double>(i)));
  }
  EXPECT_EQ(c.admitted(), 3u) << "mode churn must never mint admissions";
  EXPECT_EQ(c.mode(), AdmissionMode::kHard);
}

// ---------------------------------------------------------------------------
// Determinism: the controller is a pure function of its input sequence, so
// eight threads replaying the same tape must agree bit-for-bit with a
// serial run (this is what makes the sim-lane traces reproducible).
// ---------------------------------------------------------------------------

TEST(AdmissionParallel, IdenticalTapesAgreeAcrossThreads) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.soft_enter = 0.3;
  const auto replay = [&cfg]() {
    AdmissionController c(cfg);
    std::uint64_t admits = 0;
    // A deterministic tape mixing bursts, lulls, and retry storms.
    for (int i = 0; i < 5000; ++i) {
      const double now = static_cast<double>(i) * 0.01;
      c.observe_request(/*retry=*/(i * 7) % 3 == 0);
      const double queue = ((i / 100) % 2 == 0) ? (i % 97) : (i % 11);
      c.update(now, queue, (i % 13) * 0.3);
      if (c.try_admit(now)) ++admits;
    }
    return std::tuple<double, AdmissionMode, std::uint64_t, std::uint64_t,
                      std::uint64_t>{c.pressure(), c.mode(), admits,
                                     c.rejected(), c.mode_changes()};
  };
  const auto serial = replay();
  std::vector<std::remove_const_t<decltype(serial)>> results(8);
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (auto& slot : results) {
      threads.emplace_back([&slot, &replay]() { slot = replay(); });
    }
    for (auto& t : threads) t.join();
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], serial) << "thread " << i;
  }
}

// ---------------------------------------------------------------------------
// End-to-end through a live cluster: typed rejections, client backoff, and
// the fault-injection battery.
// ---------------------------------------------------------------------------

TEST(AdmissionEndToEnd, RejectionQuorumTriggersVerifiedBackoff) {
  MinBftConfig cfg = fast_config(1);
  cfg.admission = reject_all_config();
  MinBftCluster cluster(3, cfg, 11, fast_link());
  auto& client = cluster.add_client();
  bool completed = false;
  client.submit("write:x=1", [&](std::uint64_t, const std::string&, double) {
    completed = true;
  });
  cluster.run_for(5.0);
  // Every replica rejects, so the f+1 quorum forms and the client backs
  // off instead of completing.  overloaded_replies counts only rejections
  // whose signature verified — the typed reply is authenticated end to end.
  EXPECT_FALSE(completed);
  EXPECT_GE(client.overloaded_replies(), 2u);
  EXPECT_GE(client.overload_backoffs(), 1u);
  EXPECT_EQ(client.shed_pending_count(), 1u);
  EXPECT_GT(client.last_backoff_delay(), 0.0);
  // Reopen the valve cluster-wide: the backed-off client's next re-probe
  // must complete the request — shedding is a delay, never a black hole.
  for (ReplicaId id : cluster.replica_ids()) {
    cluster.replica(id).set_admission_config(AdmissionConfig{});  // disabled
  }
  cluster.run_for(30.0);
  EXPECT_TRUE(completed);
  EXPECT_EQ(client.shed_pending_count(), 0u);
}

TEST(AdmissionEndToEnd, ByzantineFakeOverloadCannotStarveClients) {
  // Replica 2 (a follower) lies: it claims HARD overload and rejects every
  // request while the rest of the cluster is idle.  A single rejecter is
  // below the f+1 quorum, so the client must NOT back off — and the honest
  // quorum serves the request at full speed.
  MinBftCluster cluster(3, fast_config(1), 13, fast_link());
  AdmissionConfig liar = reject_all_config();
  liar.retry_after_soft_ms = 60000;  // a huge hint, hoping to stall clients
  cluster.replica(2).set_admission_config(liar);
  auto& client = cluster.add_client();
  const auto result = cluster.submit_and_run(client, "write:x=1");
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(client.overloaded_replies(), 1u) << "the lie was delivered";
  EXPECT_EQ(client.overload_backoffs(), 0u)
      << "a sub-quorum rejection must never trigger backoff";
  EXPECT_EQ(client.shed_pending_count(), 0u);
  // The liar keeps rejecting but the cluster keeps serving.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        cluster.submit_and_run(client, "op" + std::to_string(i)).has_value())
        << i;
  }
  EXPECT_EQ(client.overload_backoffs(), 0u);
}

TEST(AdmissionEndToEnd, RetryStormOfFiveHundredClientsConverges) {
  MinBftConfig cfg = fast_config(1);
  cfg.admission.enabled = true;
  cfg.admission.soft_enter = 0.2;
  cfg.admission.queue_capacity = 32.0;
  cfg.admission.soft_rate = 40.0;
  cfg.admission.soft_burst = 20.0;
  cfg.admission.hard_rate = 10.0;
  cfg.admission.hard_burst = 5.0;
  cfg.admission.retry_after_soft_ms = 500;
  cfg.admission.retry_after_hard_ms = 2000;
  MinBftCluster cluster(3, cfg, 17, fast_link());
  std::vector<MinBftClient*> clients;
  clients.reserve(500);
  int completed = 0;
  // Aggressive 0.5 s retransmission timers: without backoff these 500
  // clients re-send three messages each every half second forever.
  for (int i = 0; i < 500; ++i) {
    clients.push_back(&cluster.add_client(/*retry_timeout=*/0.5));
  }
  for (MinBftClient* c : clients) {
    c->submit("op", [&](std::uint64_t, const std::string&, double) {
      ++completed;
    });
  }
  cluster.run_for(120.0);
  EXPECT_EQ(completed, 500) << "the storm must drain, not starve";
  std::uint64_t backoffs = 0;
  std::set<double> delays;
  for (const MinBftClient* c : clients) {
    backoffs += c->overload_backoffs();
    if (c->overload_backoffs() > 0) delays.insert(c->last_backoff_delay());
    EXPECT_EQ(c->pending_count(), 0u);
  }
  EXPECT_GT(backoffs, 100u) << "the valve must have shed the initial wave";
  // Jitter must desynchronize the storm: clients draw from per-client Rng
  // streams, so their chosen delays are (essentially) all distinct — a
  // shared stream would re-synchronize the retry wave and defeat backoff.
  EXPECT_GE(delays.size(), 50u)
      << "backoff delays collide: jitter streams are not per-client";
}

}  // namespace
}  // namespace tolerance::consensus
