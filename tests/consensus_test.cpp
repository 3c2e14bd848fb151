#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/consensus/raft.hpp"
#include "tolerance/oracles/minbft_workload.hpp"

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

// ---------------------------------------------------------------------------
// MinBFT: normal operation
// ---------------------------------------------------------------------------

TEST(MinBft, ExecutesClientRequest) {
  MinBftCluster cluster(3, fast_config(1), 1, fast_link());
  auto& client = cluster.add_client();
  const auto result = cluster.submit_and_run(client, "write:x=1");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, "ok:1");
  EXPECT_EQ(client.completed_count(), 1u);
}

TEST(MinBft, SafetyAllReplicasExecuteSameSequence) {
  MinBftCluster cluster(3, fast_config(1), 2, fast_link());
  auto& client = cluster.add_client();
  for (int i = 0; i < 20; ++i) {
    const auto r = cluster.submit_and_run(client, "op" + std::to_string(i));
    ASSERT_TRUE(r.has_value()) << "request " << i;
  }
  cluster.run_for(1.0);
  const auto& log0 = cluster.replica(0).service().log();
  ASSERT_EQ(log0.size(), 20u);
  for (ReplicaId id : cluster.replica_ids()) {
    EXPECT_EQ(cluster.replica(id).service().log(), log0) << "replica " << id;
  }
}

TEST(MinBft, ToleratesSilentByzantineReplica) {
  // N = 3, f = 1 under the hybrid model: one silent replica (behaviour (b)
  // of §VIII-A) must not block progress.
  MinBftCluster cluster(3, fast_config(1), 3, fast_link());
  cluster.replica(2).set_mode(ByzantineMode::Silent);
  auto& client = cluster.add_client();
  for (int i = 0; i < 5; ++i) {
    const auto r = cluster.submit_and_run(client, "w" + std::to_string(i));
    ASSERT_TRUE(r.has_value()) << "request " << i;
  }
  EXPECT_EQ(cluster.replica(0).service().log().size(), 5u);
}

TEST(MinBft, ToleratesRandomByzantineReplica) {
  // Behaviour (c): garbage messages.  Honest replicas must agree and the
  // client must still obtain f+1 matching (honest) replies.
  MinBftCluster cluster(3, fast_config(1), 4, fast_link());
  cluster.replica(1).set_mode(ByzantineMode::Random);
  auto& client = cluster.add_client();
  for (int i = 0; i < 5; ++i) {
    const auto r = cluster.submit_and_run(client, "w" + std::to_string(i));
    ASSERT_TRUE(r.has_value()) << "request " << i;
    EXPECT_NE(*r, "garbage");
  }
  EXPECT_EQ(cluster.replica(0).service().log(),
            cluster.replica(2).service().log());
}

TEST(MinBft, ClientNeedsQuorumNotSingleReply) {
  // A single garbage reply must never be accepted: the completed result is
  // backed by f+1 identical replies.
  MinBftCluster cluster(3, fast_config(1), 5, fast_link());
  cluster.replica(0).set_mode(ByzantineMode::Random);  // replica 0 is leader
  auto& client = cluster.add_client();
  const auto r = cluster.submit_and_run(client, "w");
  // Progress may require a view change away from the Byzantine leader; the
  // result, when present, is never the garbage string.
  if (r.has_value()) {
    EXPECT_NE(*r, "garbage");
  }
}

TEST(MinBft, DuplicateRequestsExecuteOnce) {
  MinBftCluster cluster(3, fast_config(1), 6, fast_link());
  auto& client = cluster.add_client();
  const auto r1 = cluster.submit_and_run(client, "same-op");
  ASSERT_TRUE(r1.has_value());
  // Client retransmission path: send the identical request object again.
  cluster.run_for(3.0);  // allow retry timers to fire and drain
  EXPECT_EQ(cluster.replica(0).service().log().size(), 1u);
}

TEST(MinBft, CheckpointsGarbageCollect) {
  MinBftConfig cfg = fast_config(1);
  cfg.checkpoint_period = 5;
  MinBftCluster cluster(3, cfg, 7, fast_link());
  auto& client = cluster.add_client();
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(cluster.submit_and_run(client, "o" + std::to_string(i)));
  }
  cluster.run_for(1.0);
  // All replicas should have advanced their executed counts.
  for (ReplicaId id : cluster.replica_ids()) {
    EXPECT_EQ(cluster.replica(id).committed_log_size(), 17u);
  }
}

// ---------------------------------------------------------------------------
// MinBFT: view change
// ---------------------------------------------------------------------------

TEST(MinBft, ViewChangeOnCrashedLeader) {
  MinBftCluster cluster(3, fast_config(1), 8, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "before-crash"));
  cluster.crash_replica(0);  // view-0 leader
  // Submit; the remaining replicas must time out and rotate the view.
  std::optional<std::string> result;
  client.submit("after-crash", [&](std::uint64_t, const std::string& r,
                                   double) { result = r; });
  cluster.run_for(30.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(cluster.replica(1).service().log().size(), 2u);
  EXPECT_GT(cluster.replica(1).view(), 0u);
}

TEST(MinBft, ViewChangePreservesExecutedPrefix) {
  MinBftCluster cluster(5, fast_config(2), 9, fast_link());
  auto& client = cluster.add_client();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.submit_and_run(client, "pre" + std::to_string(i)));
  }
  const auto log_before = cluster.replica(1).service().log();
  cluster.crash_replica(0);
  std::optional<std::string> result;
  client.submit("post", [&](std::uint64_t, const std::string& r, double) {
    result = r;
  });
  cluster.run_for(30.0);
  ASSERT_TRUE(result.has_value());
  const auto& log_after = cluster.replica(1).service().log();
  ASSERT_GE(log_after.size(), log_before.size());
  for (std::size_t i = 0; i < log_before.size(); ++i) {
    EXPECT_EQ(log_after[i], log_before[i]) << "prefix diverged at " << i;
  }
}

// ---------------------------------------------------------------------------
// MinBFT: reconfiguration and recovery (Fig. 17 d-f)
// ---------------------------------------------------------------------------

TEST(MinBft, JoinExtendsMembershipAndTransfersState) {
  MinBftCluster cluster(3, fast_config(1), 10, fast_link());
  auto& client = cluster.add_client();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.submit_and_run(client, "w" + std::to_string(i)));
  }
  const ReplicaId joined = cluster.join_new_replica();
  EXPECT_EQ(cluster.replica(0).membership().size(), 4u);
  // The joiner caught up via state transfer (the join op itself is the 5th).
  EXPECT_GE(cluster.replica(joined).committed_log_size(), 4u);
  // And participates in new operations.
  ASSERT_TRUE(cluster.submit_and_run(client, "after-join"));
  cluster.run_for(1.0);
  EXPECT_EQ(cluster.replica(joined).service().log().back(), "after-join");
}

TEST(MinBft, EvictShrinksMembership) {
  MinBftCluster cluster(4, fast_config(1), 11, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "w0"));
  cluster.evict_replica(3);
  EXPECT_FALSE(cluster.has_replica(3));
  EXPECT_EQ(cluster.replica(0).membership().size(), 3u);
  ASSERT_TRUE(cluster.submit_and_run(client, "w1"));
}

TEST(MinBft, RecoveryReplacesCompromisedReplica) {
  MinBftCluster cluster(3, fast_config(1), 12, fast_link());
  auto& client = cluster.add_client();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.submit_and_run(client, "w" + std::to_string(i)));
  }
  cluster.replica(2).set_mode(ByzantineMode::Random);
  cluster.recover_replica(2);  // fresh container + state transfer (Fig. 17d)
  EXPECT_EQ(cluster.replica(2).mode(), ByzantineMode::Honest);
  EXPECT_GE(cluster.replica(2).committed_log_size(), 3u);
  ASSERT_TRUE(cluster.submit_and_run(client, "after-recovery"));
  cluster.run_for(1.0);
  EXPECT_EQ(cluster.replica(2).service().log().back(), "after-recovery");
}

TEST(MinBft, ThroughputDecreasesWithClusterSize) {
  // The Fig. 10 shape: more replicas => more crypto+messages per request =>
  // lower throughput.
  auto throughput = [](int n) {
    MinBftCluster cluster(n, fast_config((n - 1) / 2), 13, fast_link());
    auto& client = cluster.add_client();
    const double start = cluster.network().now();
    int completed = 0;
    for (int i = 0; i < 30; ++i) {
      if (cluster.submit_and_run(client, "op" + std::to_string(i))) {
        ++completed;
      }
    }
    const double elapsed = cluster.network().now() - start;
    return completed / elapsed;
  };
  const double t3 = throughput(3);
  const double t9 = throughput(9);
  EXPECT_GT(t3, t9);
}

// ---------------------------------------------------------------------------
// MinBFT: request batching and pipelined USIG signing
// ---------------------------------------------------------------------------

using oracles::logs_equivalent;
using oracles::TaggedWorkloadResult;

/// The shared tagged-workload driver (also behind the Fig. 10 CI gate),
/// lifted to test expectations: a failed run is a test failure.
TaggedWorkloadResult tagged_workload(const MinBftConfig& cfg, int n,
                                     int clients, int ops_each,
                                     std::uint64_t seed) {
  const auto result =
      oracles::run_tagged_workload(cfg, n, clients, ops_each, seed, 4000000);
  EXPECT_EQ(result.error, "");
  return result;
}

TEST(MinBftBatching, BatchesFormUnderLoadAndLogsMatchUnbatched) {
  MinBftConfig cfg = fast_config(1);
  cfg.batch_size = 8;
  cfg.pipeline_depth = 2;
  const int clients = 8, ops = 12;
  const auto batched = tagged_workload(cfg, 3, clients, ops, 5);
  EXPECT_GT(batched.avg_batch, 1.5) << "batches never formed under load";
  const auto unbatched = tagged_workload(cfg.unbatched(), 3, clients, ops, 5);
  ASSERT_EQ(batched.log.size(), static_cast<std::size_t>(clients * ops));
  ASSERT_EQ(unbatched.log.size(), batched.log.size());
  // Identical operation logs, per the shared equivalence definition the CI
  // bench also gates on: same multiset, same per-client order.
  std::string err;
  EXPECT_TRUE(logs_equivalent(batched.log, unbatched.log, clients, &err))
      << err;
}

TEST(MinBftBatching, BatchingMultipliesSimulatedThroughputUnderLoad) {
  // Deterministic (simulated-time) throughput comparison with the paper's
  // crypto costs: batching must clearly beat one-request-per-counter.
  auto throughput = [](const MinBftConfig& cfg) {
    net::LinkConfig link;
    link.base_delay = 1e-3;
    link.jitter = 0.0;
    link.loss = 0.0;
    MinBftCluster cluster(5, cfg, 9, link);
    std::vector<MinBftClient*> cs;
    for (int c = 0; c < 20; ++c) cs.push_back(&cluster.add_client());
    long completed = 0;
    const double horizon = 2.0;
    std::function<void(MinBftClient*)> pump = [&](MinBftClient* client) {
      client->submit("w", [&, client](std::uint64_t, const std::string&,
                                      double) {
        ++completed;
        if (cluster.network().now() < horizon) pump(client);
      });
    };
    for (auto* c : cs) pump(c);
    cluster.network().run_until(horizon);
    return completed;
  };
  MinBftConfig cfg = fast_config(2);
  cfg.crypto_cost_sign = 5e-3;
  cfg.crypto_cost_verify = 2e-4;
  cfg.cpu_cost_per_send = 1e-3;
  cfg.crypto_cost_reply = 1e-4;
  const long batched = throughput(cfg);
  const long unbatched = throughput(cfg.unbatched());
  EXPECT_GE(batched, 2 * unbatched)
      << "batched " << batched << " vs unbatched " << unbatched;
}

TEST(MinBftBatching, ViewChangeWithHalfAcknowledgedBatchInFlight) {
  // Five requests land at the leader: the first seals immediately, the rest
  // accumulate behind a window of one and seal as a second batch.  The
  // leader crashes mid-flight — whatever subset of PREPAREs/COMMITs got out
  // must be recovered by the view change without loss or double execution.
  MinBftConfig cfg = fast_config(2);
  cfg.batch_size = 8;
  cfg.pipeline_depth = 1;
  MinBftCluster cluster(5, cfg, 11, fast_link());
  auto& client = cluster.add_client();
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    client.submit("op" + std::to_string(i),
                  [&](std::uint64_t, const std::string&, double) {
                    ++completions;
                  });
  }
  // Run just long enough for the second (4-request) batch to be prepared at
  // some followers but not committed everywhere, then kill the leader.
  cluster.run_for(0.006);
  cluster.crash_replica(0);
  cluster.run_for(30.0);
  EXPECT_EQ(completions, 5);
  const auto& log1 = cluster.replica(1).service().log();
  ASSERT_EQ(log1.size(), 5u) << "lost or duplicated requests";
  std::set<std::string> unique(log1.begin(), log1.end());
  EXPECT_EQ(unique.size(), 5u);
  for (ReplicaId id : cluster.replica_ids()) {
    if (id == 0) continue;
    EXPECT_EQ(cluster.replica(id).service().log(), log1) << "replica " << id;
  }
  EXPECT_GT(cluster.replica(1).view(), 0u);
}

TEST(MinBftBatching, RandomLeaderGarbageBatchTriggersViewChange) {
  // Behaviour (c) as leader: a corrupted operation under a valid UI.  The
  // per-request client-signature check catches it, the followers denounce
  // the leader, and the smuggled operation never reaches an honest log.
  MinBftCluster cluster(3, fast_config(1), 13, fast_link());
  cluster.replica(0).set_mode(ByzantineMode::Random);  // view-0 leader
  auto& client = cluster.add_client();
  std::optional<std::string> result;
  client.submit("legit", [&](std::uint64_t, const std::string& r, double) {
    result = r;
  });
  cluster.run_for(30.0);
  ASSERT_TRUE(result.has_value()) << "cluster never recovered from the "
                                     "garbage-batch leader";
  EXPECT_NE(*result, "garbage");
  for (ReplicaId id : {ReplicaId{1}, ReplicaId{2}}) {
    for (const std::string& op : cluster.replica(id).service().log()) {
      EXPECT_EQ(op.find("|garbage"), std::string::npos)
          << "garbage batch executed on replica " << id;
    }
    EXPECT_GT(cluster.replica(id).view(), 0u);
  }
}

// Forging kit for view-change attack tests: USIG secrets derive
// deterministically from (principal, seed) exactly as MinBftCluster derives
// them, so a test can mint certificates that verify at honest replicas —
// standing in for a compromised member's ability to emit well-formed
// protocol messages with arbitrary content.
crypto::Usig forged_usig(std::uint64_t cluster_seed, ReplicaId id) {
  crypto::KeyRegistry scratch;
  return crypto::Usig(
      id, scratch.register_principal(
              static_cast<crypto::PrincipalId>(id) +
                  crypto::kUsigPrincipalOffset,
              (cluster_seed ^ id) ^ 0x5a5au));
}

ViewChange forged_view_change(std::uint64_t cluster_seed, ReplicaId id,
                              View to_view,
                              const std::vector<Prepare>& prepared,
                              SeqNum stable_seq = 0) {
  ViewChange vc;
  vc.replica = id;
  vc.to_view = to_view;
  vc.stable_seq = stable_seq;
  for (const Prepare& p : prepared) vc.prepared.push_back(PreparedProof{p});
  crypto::Usig usig = forged_usig(cluster_seed, id);
  vc.ui = usig.create(vc.body_digest());
  return vc;
}

Request unverifiable_request(const std::string& op) {
  Request evil;
  evil.client = 77777;  // unregistered principal: signature cannot verify
  evil.request_id = 1;
  evil.operation = op;
  evil.signature.signer = evil.client;
  return evil;
}

/// A prepare certified by `leader`'s (forged) USIG — reproposal candidates
/// must carry their claimed view's leader UI to survive selection.
Prepare forged_prepare(std::uint64_t cluster_seed, ReplicaId leader,
                       View view, SeqNum seq, std::vector<Request> requests) {
  Prepare p;
  p.view = view;
  p.seq = seq;
  p.requests = std::move(requests);
  crypto::Usig usig = forged_usig(cluster_seed, leader);
  p.ui = usig.create(p.body_digest());
  return p;
}

/// A genuinely-signed request from a cluster client's (deterministically
/// derived) key — what a compromised replica can replay into forged proofs.
Request forged_client_request(std::uint64_t cluster_seed, ClientId client,
                              std::uint64_t request_id,
                              const std::string& op) {
  Request r;
  r.client = client;
  r.request_id = request_id;
  r.operation = op;
  crypto::KeyRegistry scratch;
  crypto::Signer signer(
      client, scratch.register_principal(client, cluster_seed ^ client));
  r.signature = signer.sign(r.payload());
  return r;
}

/// Submit `op` through `client` while wiretapping replica 0's deliveries,
/// and return the genuinely client-signed Request captured off the wire.
std::optional<Request> submit_and_capture(MinBftCluster& cluster,
                                          MinBftClient& client,
                                          const std::string& op) {
  auto captured = std::make_shared<std::optional<Request>>();
  auto& r0 = cluster.replica(0);
  cluster.network().register_host(
      0, [captured, &r0](net::NodeId from, const MinBftMsg& m) {
        if (const auto* req = std::get_if<Request>(&m)) {
          if (!captured->has_value()) *captured = *req;
        }
        r0.on_message(from, m);
      });
  if (!cluster.submit_and_run(client, op).has_value()) return std::nullopt;
  return *captured;
}

TEST(MinBftBatching, GarbageProofInViewChangeIsReplacedByNullBatch) {
  // The liveness half of the garbage-batch defence: a compromised ex-leader
  // can land its unverifiable batch in one of the f+1 view-change proofs,
  // where a later view number wins the highest-view-per-seq selection over
  // an honest prepare.  The new leader must not simply drop that seq —
  // try_execute only advances contiguously and seal_one_batch only assigns
  // fresh seqs above the highest logged one, so a hole below a reproposed
  // batch could never be filled or passed and the cluster would stall
  // forever.  It re-prepares a null batch in its place instead.
  const std::uint64_t kSeed = 29;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();

  // Capture a genuinely signed client request off the wire so the forged
  // proof can also carry a *verifiable* batch above the garbage one.
  const auto captured = submit_and_capture(cluster, client, "w1");  // seq 1
  ASSERT_TRUE(captured.has_value());

  // Later-view garbage under a perfectly valid leader UI (view 3's leader is
  // replica 0, the compromised one): it wins the per-seq view ordering and
  // only the client-signature check can reject it.
  const Prepare garbage =
      forged_prepare(kSeed, 0, 3, 2, {unverifiable_request("evil-op")});
  // A verifiable batch *above* the garbage seq, certified by view 0's leader.
  const Prepare real = forged_prepare(kSeed, 0, 0, 3, {*captured});

  auto& r1 = cluster.replica(1);  // leader of view 1
  r1.on_message(0, MinBftMsg{forged_view_change(kSeed, 0, 1, {garbage, real})});
  r1.on_message(2, MinBftMsg{forged_view_change(kSeed, 2, 1, {garbage, real})});
  EXPECT_EQ(r1.view(), 1u) << "f+1 proofs must assemble the new view";

  // The cluster must stay live: the garbage seq is filled by a null batch,
  // the log stays contiguous, and fresh requests keep committing.
  const auto result = cluster.submit_and_run(client, "w2");
  ASSERT_TRUE(result.has_value()) << "cluster stalled on a sequence hole";
  cluster.run_for(1.0);
  const auto& log1 = r1.service().log();
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "w1"), 1);
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "w2"), 1);
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "evil-op"), 0);
  for (ReplicaId id : cluster.replica_ids()) {
    EXPECT_EQ(cluster.replica(id).service().log(), log1) << "replica " << id;
  }
}

TEST(MinBftBatching, ForgedProofSeqCannotBloatTheNullBatchFill) {
  // The contiguous null-batch fill is clamped to the live-path watermark: a
  // forged proof smuggling an absurd seq must not make the new leader sign
  // and log tens of millions of null batches (and a seq near UINT64_MAX
  // must not wrap the fill loop).  The fill stops at the watermark,
  // checkpoints advance the stable point over the no-ops, and fresh
  // requests keep committing.
  const std::uint64_t kSeed = 31;
  MinBftConfig cfg = fast_config(1);  // log_watermark = 100
  MinBftCluster cluster(3, cfg, kSeed, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "w1").has_value());

  const Prepare absurd = forged_prepare(kSeed, 0, 3, 50'000'000,
                                        {unverifiable_request("evil-op")});
  auto& r1 = cluster.replica(1);  // leader of view 1
  r1.on_message(0, MinBftMsg{forged_view_change(kSeed, 0, 1, {absurd})});
  r1.on_message(2, MinBftMsg{forged_view_change(kSeed, 2, 1, {absurd})});
  EXPECT_EQ(r1.view(), 1u) << "f+1 proofs must assemble the new view";

  const auto result = cluster.submit_and_run(client, "w2");
  ASSERT_TRUE(result.has_value()) << "cluster stalled after the clamped fill";
  cluster.run_for(1.0);
  const auto& log1 = r1.service().log();
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "w1"), 1);
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "w2"), 1);
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "evil-op"), 0);
  for (ReplicaId id : cluster.replica_ids()) {
    EXPECT_EQ(cluster.replica(id).service().log(), log1) << "replica " << id;
  }
}

TEST(MinBftBatching, ForgedStableSeqCannotWrapTheFill) {
  // A forged proof claiming stable_seq = UINT64_MAX must not wrap the
  // contiguous fill (max_stable + 1 == 0 with a never-false loop bound):
  // uncertified stable claims are ignored, and even certified ones are
  // saturated.  Pre-fix, assembly hung signing null batches forever.
  const std::uint64_t kSeed = 37;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "w1").has_value());
  constexpr SeqNum kHuge = std::numeric_limits<SeqNum>::max();
  auto& r1 = cluster.replica(1);  // leader of view 1
  r1.on_message(0, MinBftMsg{forged_view_change(kSeed, 0, 1, {}, kHuge)});
  r1.on_message(2, MinBftMsg{forged_view_change(kSeed, 2, 1, {}, kHuge)});
  EXPECT_EQ(r1.view(), 1u) << "f+1 proofs must assemble the new view";
  const auto result = cluster.submit_and_run(client, "w2");
  ASSERT_TRUE(result.has_value()) << "cluster stalled after forged stable";
  cluster.run_for(1.0);
  const auto& log1 = r1.service().log();
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "w1"), 1);
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "w2"), 1);
}

TEST(MinBftBatching, NewViewWithLeadingHoleIsRejected) {
  // A Byzantine new leader sends a contiguous reproposed run floating above
  // an unfillable gap (seqs 51..60 over proofs whose stable is 0).  The
  // adjacent-pair contiguity check alone would accept it and the follower
  // would sit stalled behind seq 51 until the next view-change timeout; the
  // range must anchor at the proofs' stable checkpoint + 1.
  const std::uint64_t kSeed = 41;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "w1").has_value());
  NewView nv;
  nv.leader = 1;  // the genuine leader of view 1
  nv.view = 1;
  nv.proofs.push_back(forged_view_change(kSeed, 0, 1, {}));
  nv.proofs.push_back(forged_view_change(kSeed, 2, 1, {}));
  for (SeqNum seq = 51; seq <= 60; ++seq) {
    Prepare null_batch;
    null_batch.view = 1;
    null_batch.seq = seq;
    nv.reproposed.push_back(std::move(null_batch));
  }
  crypto::Usig leader_usig = forged_usig(kSeed, 1);
  nv.ui = leader_usig.create(nv.body_digest());
  auto& r0 = cluster.replica(0);
  r0.on_message(1, MinBftMsg{nv});
  EXPECT_EQ(r0.view(), 0u) << "holed NEW-VIEW must not install";
  // The cluster is undisturbed and stays live under the view-0 leader.
  ASSERT_TRUE(cluster.submit_and_run(client, "w2").has_value());
}

TEST(MinBftBatching, NewViewCannotNullOutAPreparedBatch) {
  // Followers recompute the reproposal selection from the NEW-VIEW's own
  // proofs: a Byzantine new leader whose proofs evidence a verifiable
  // prepared batch cannot replace it with a null batch (which honest
  // replicas would execute as a no-op, silently diverging from any replica
  // that already executed the real batch).
  const std::uint64_t kSeed = 43;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();
  const auto captured = submit_and_capture(cluster, client, "w1");
  ASSERT_TRUE(captured.has_value());

  const Prepare real = forged_prepare(kSeed, 0, 0, 2, {*captured});
  NewView nv;
  nv.leader = 1;  // the genuine leader of view 1, presumed compromised
  nv.view = 1;
  nv.proofs.push_back(forged_view_change(kSeed, 0, 1, {real}));
  nv.proofs.push_back(forged_view_change(kSeed, 2, 1, {real}));
  // The fill honest replicas derive is [null@1, real@2]; the Byzantine
  // leader deviates only at the contested seq, nulling out `real`.
  for (SeqNum seq = 1; seq <= 2; ++seq) {
    Prepare null_batch;
    null_batch.view = 1;
    null_batch.seq = seq;
    nv.reproposed.push_back(std::move(null_batch));
  }
  crypto::Usig leader_usig = forged_usig(kSeed, 1);
  nv.ui = leader_usig.create(nv.body_digest());
  auto& r2 = cluster.replica(2);
  r2.on_message(1, MinBftMsg{nv});
  EXPECT_EQ(r2.view(), 0u) << "nulled-out NEW-VIEW must not install";
  ASSERT_TRUE(cluster.submit_and_run(client, "w2").has_value());
}

TEST(MinBftBatching, TamperedProofContentsBreakTheProofCertificate) {
  // The sneakier variant of the null-out attack: instead of deviating from
  // the deterministic reproposal selection, a Byzantine new leader corrupts
  // a candidate *inside* a relayed honest proof (here its UI certificate) so
  // that every honest replica's own recomputation derives the null batch
  // "legitimately".  The VIEW-CHANGE digest binds the prepare's view, UI,
  // and signature-bound request digests, so the tampering breaks the proof
  // sender's USIG certificate and the NEW-VIEW is rejected.
  const std::uint64_t kSeed = 47;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();
  const auto captured = submit_and_capture(cluster, client, "w1");
  ASSERT_TRUE(captured.has_value());

  const Prepare real = forged_prepare(kSeed, 0, 0, 2, {*captured});
  NewView nv;
  nv.leader = 1;
  nv.view = 1;
  for (const ReplicaId sender : {ReplicaId{0}, ReplicaId{2}}) {
    ViewChange tampered = forged_view_change(kSeed, sender, 1, {real});
    tampered.prepared[0].prepare.ui.certificate[0] ^= 0xff;  // in-flight flip
    tampered.invalidate_digests();
    nv.proofs.push_back(std::move(tampered));
  }
  // The reproposals the tampering would "justify": with every copy of the
  // candidate corrupted, honest recomputation derives [null@1, null@2].
  for (SeqNum seq = 1; seq <= 2; ++seq) {
    Prepare null_batch;
    null_batch.view = 1;
    null_batch.seq = seq;
    nv.reproposed.push_back(std::move(null_batch));
  }
  crypto::Usig leader_usig = forged_usig(kSeed, 1);
  nv.ui = leader_usig.create(nv.body_digest());
  auto& r2 = cluster.replica(2);
  r2.on_message(1, MinBftMsg{nv});
  EXPECT_EQ(r2.view(), 0u) << "tampered-proof NEW-VIEW must not install";
  ASSERT_TRUE(cluster.submit_and_run(client, "w2").has_value());
}

TEST(MinBftBatching, UncertifiedStableClaimCannotDisplacePreparedSuffix) {
  // A single compromised member inflating its claimed stable checkpoint
  // (without the f+1 checkpoint certificate that makes one stable) must not
  // start the reproposal fill above the genuinely prepared suffix — that
  // would deterministically discard a prepared (possibly committed) batch
  // at every honest replica at once.  Uncertified claims are ignored.
  const std::uint64_t kSeed = 53;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "w1").has_value());  // seq 1
  const Request displaced =
      forged_client_request(kSeed, 10000, 999, "w-displaced");
  const Prepare prepared = forged_prepare(kSeed, 0, 0, 2, {displaced});
  auto& r1 = cluster.replica(1);  // leader of view 1
  for (const ReplicaId sender : {ReplicaId{0}, ReplicaId{2}}) {
    r1.on_message(sender, MinBftMsg{forged_view_change(
                              kSeed, sender, 1, {prepared}, /*stable=*/50)});
  }
  EXPECT_EQ(r1.view(), 1u) << "f+1 proofs must assemble the new view";
  cluster.run_for(5.0);
  const auto& log1 = r1.service().log();
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "w-displaced"), 1)
      << "prepared batch displaced by an uncertified stable claim";
  for (ReplicaId id : cluster.replica_ids()) {
    EXPECT_EQ(cluster.replica(id).service().log(), log1) << "replica " << id;
  }
}

TEST(MinBftBatching, NewViewReproposalsRequireLeaderCertification) {
  // A NEW-VIEW whose reproposed suffix matches the deterministic selection
  // but carries garbage UIs must still be rejected: installing it would
  // poison the entries honest replicas log and later carry as view-change
  // candidates themselves (whose failed UI check would null them out in the
  // next reassembly).
  const std::uint64_t kSeed = 59;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();
  const auto captured = submit_and_capture(cluster, client, "w1");
  ASSERT_TRUE(captured.has_value());

  const Prepare real = forged_prepare(kSeed, 0, 0, 2, {*captured});
  NewView nv;
  nv.leader = 1;
  nv.view = 1;
  nv.proofs.push_back(forged_view_change(kSeed, 0, 1, {real}));
  nv.proofs.push_back(forged_view_change(kSeed, 2, 1, {real}));
  // Byte-exact match for the expected selection [null@1, real@2] — but the
  // prepares carry default (unverifiable) UIs instead of the leader's.
  Prepare null_batch;
  null_batch.view = 1;
  null_batch.seq = 1;
  nv.reproposed.push_back(std::move(null_batch));
  Prepare unsigned_real;
  unsigned_real.view = 1;
  unsigned_real.seq = 2;
  unsigned_real.requests = {*captured};
  nv.reproposed.push_back(std::move(unsigned_real));
  crypto::Usig leader_usig = forged_usig(kSeed, 1);
  nv.ui = leader_usig.create(nv.body_digest());
  auto& r2 = cluster.replica(2);
  r2.on_message(1, MinBftMsg{nv});
  EXPECT_EQ(r2.view(), 0u) << "uncertified reproposals must not install";
  ASSERT_TRUE(cluster.submit_and_run(client, "w2").has_value());
}

TEST(MinBftBatching, SpoofedSelfProofIsRejected) {
  // A VIEW-CHANGE spoofing the prospective leader's own id with a garbage
  // UI must be verified like any other proof (the genuine local self-proof
  // is USIG-signed): stored unverified it would both count toward the f+1
  // quorum and suppress the leader's real self-proof, poisoning the
  // NEW-VIEW for every follower.
  const std::uint64_t kSeed = 61;
  MinBftCluster cluster(3, fast_config(1), kSeed, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "w1").has_value());
  auto& r1 = cluster.replica(1);  // leader of view 1
  ViewChange spoof;
  spoof.replica = 1;  // "from" r1 itself, with an unverifiable UI
  spoof.to_view = 1;
  spoof.ui.replica = 1;
  r1.on_message(0, MinBftMsg{spoof});
  r1.on_message(0, MinBftMsg{forged_view_change(kSeed, 0, 1, {})});
  EXPECT_EQ(r1.view(), 0u) << "spoofed self-proof counted toward the quorum";
  r1.on_message(2, MinBftMsg{forged_view_change(kSeed, 2, 1, {})});
  EXPECT_EQ(r1.view(), 1u);
  ASSERT_TRUE(cluster.submit_and_run(client, "w2").has_value());
}

TEST(MinBftBatching, EvictedReplicasBatchIsRejected) {
  // An evicted ex-leader that never saw its own eviction still believes it
  // leads view 0: fed a genuine signed request, it seals a batch with a
  // fresh USIG counter and broadcasts it.  Live members must reject the
  // batch (they moved on; the sender is not their leader and not a member).
  MinBftConfig cfg = fast_config(1);
  MinBftCluster cluster(4, cfg, 17, fast_link());
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.submit_and_run(client, "w0").has_value());
  cluster.replica(0).set_mode(ByzantineMode::Silent);
  // The silent leader forces a view change; then its eviction is ordered
  // among the live members.  The zombie never executes "evict:0", so its
  // membership still contains itself.
  auto zombie = cluster.evict_and_detach(0);
  ASSERT_NE(zombie, nullptr);
  zombie->set_mode(ByzantineMode::Honest);
  EXPECT_TRUE(zombie->is_leader()) << "zombie should still believe in view 0";

  // Route a fresh client request to the zombie as well (its host slot is
  // free after eviction) so it leads a batch for it.
  consensus::MinBftReplica* zombie_raw = zombie.get();
  cluster.network().register_host(
      0, [zombie_raw](net::NodeId from, const consensus::MinBftMsg& m) {
        zombie_raw->on_message(from, m);
      });
  const std::uint64_t counter_before = zombie_raw->usig_counter();
  const auto executed_before = cluster.replica(1).committed_log_size();
  const auto result = cluster.submit_and_run(client, "after-evict");
  ASSERT_TRUE(result.has_value());
  cluster.run_for(5.0);
  EXPECT_GT(zombie_raw->usig_counter(), counter_before)
      << "the zombie never sealed its batch — the test exercised nothing";
  // The live cluster executed the request exactly once, via its own leader;
  // the zombie's batch bought it nothing.
  const auto& log1 = cluster.replica(1).service().log();
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "after-evict"), 1);
  EXPECT_EQ(cluster.replica(1).committed_log_size(), executed_before + 1);
}

TEST(MinBftBatching, RetransmittedCommitHitsUsigCacheAndStaysRejected) {
  // A network-level duplicate of a COMMIT must not pay a second HMAC
  // verification (the verdict is cached per counter) and must still be
  // rejected by counter freshness.
  MinBftCluster cluster(3, fast_config(1), 19, fast_link());
  auto& client = cluster.add_client();

  // Wiretap replica 1's deliveries so we can replay a commit at replica 0.
  std::optional<consensus::Commit> captured;
  auto& r1 = cluster.replica(1);
  cluster.network().register_host(
      1, [&](net::NodeId from, const consensus::MinBftMsg& m) {
        if (const auto* c = std::get_if<consensus::Commit>(&m)) {
          if (!captured.has_value() && c->replica == 2) captured = *c;
        }
        r1.on_message(from, m);
      });
  ASSERT_TRUE(cluster.submit_and_run(client, "w").has_value());
  ASSERT_TRUE(captured.has_value());

  auto& r0 = cluster.replica(0);
  const auto executed = r0.committed_log_size();
  const auto misses_before = r0.usig_cache_misses();
  const auto hits_before = r0.usig_cache_hits();
  r0.on_message(2, consensus::MinBftMsg{*captured});  // the retransmit
  EXPECT_EQ(r0.usig_cache_hits(), hits_before + 1)
      << "duplicate commit re-verified instead of hitting the cache";
  EXPECT_EQ(r0.usig_cache_misses(), misses_before);
  EXPECT_EQ(r0.committed_log_size(), executed) << "stale counter was accepted";
}

TEST(MinBftBatching, PipelineKeepsMultipleBatchesInFlight) {
  // With a deep window and many clients the leader assigns several counter
  // values before the first batch executes — the pipelining half of the
  // scale-up.  Cheap crypto + slow links make in-flight overlap certain.
  MinBftConfig cfg = fast_config(1);
  cfg.batch_size = 1;  // forces every request onto its own counter
  cfg.pipeline_depth = 8;
  net::LinkConfig slow;
  slow.base_delay = 5e-2;
  slow.jitter = 0.0;
  slow.loss = 0.0;
  MinBftCluster cluster(3, cfg, 23, slow);
  std::vector<MinBftClient*> cs;
  for (int c = 0; c < 6; ++c) cs.push_back(&cluster.add_client());
  int completions = 0;
  for (auto* c : cs) {
    c->submit("op", [&](std::uint64_t, const std::string&, double) {
      ++completions;
    });
  }
  // All six requests reach the leader within ~one link delay and must all
  // be assigned counters (sealed) before the first COMMIT round trips.
  cluster.run_for(0.08);
  EXPECT_GE(cluster.replica(0).batches_proposed(), 6u);
  EXPECT_EQ(completions, 0) << "nothing should have round-tripped yet";
  cluster.run_for(5.0);
  EXPECT_EQ(completions, 6);
}

TEST(MinBftBatching, BodyDigestsAreMemoizedAndInvalidatable) {
  Prepare p;
  p.view = 1;
  p.seq = 2;
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.client = 10000;
    r.request_id = static_cast<std::uint64_t>(i);
    r.operation = "w" + std::to_string(i);
    p.requests.push_back(std::move(r));
  }
  const auto first = p.body_digest();
  const std::uint64_t sha_after_first = crypto::Sha256::invocations();
  const auto stats_after_first = digest_memo_stats();
  // Repeated digest requests (what sign + N verifies + conflict checks do)
  // run zero SHA-256 compressions and count as memo saves.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(crypto::digest_equal(p.body_digest(), first));
  }
  EXPECT_EQ(crypto::Sha256::invocations(), sha_after_first);
  EXPECT_GE(digest_memo_stats().saved, stats_after_first.saved + 10);
  // Mutation + invalidation recomputes — and changes the digest.
  p.requests[0].operation += "|garbage";
  p.invalidate_digests();
  EXPECT_FALSE(crypto::digest_equal(p.body_digest(), first));
  EXPECT_GT(crypto::Sha256::invocations(), sha_after_first);
}

// ---------------------------------------------------------------------------
// Signed bytes: the exact strings that client signatures, reply signatures,
// USIG certificates and body digests cover.  Any change here breaks every
// signature and digest a replica of another build would check, so these
// bytes are pinned rather than round-tripped.  Field values cross 32 bits
// where the type allows, so the decimal formatting is pinned too.
// ---------------------------------------------------------------------------

Request pinned_request(std::uint64_t request_id, std::string operation) {
  Request r;
  r.client = 10007;
  r.request_id = request_id;
  r.operation = std::move(operation);
  r.signature.signer = 10007;
  r.signature.tag = crypto::Sha256::hash("client-tag");
  return r;
}

TEST(MinBftSignedBytes, PayloadsAndBodyDigestsArePinned) {
  const Request r1 = pinned_request(12345678901234ULL, "write:key=v|1");
  const Request r2 = pinned_request(0, "");
  EXPECT_EQ(r1.payload(), "req|10007|12345678901234|write:key=v|1");
  EXPECT_EQ(r2.payload(), "req|10007|0|");
  EXPECT_EQ(crypto::to_hex(r1.digest()),
            "b0fdca7020c308ded12b8df0e5f114d43ca1089452bca664d46ec28525d746a4");

  Reply reply;
  reply.replica = 4;
  reply.client = 10007;
  reply.request_id = 12345678901234ULL;
  reply.result = "ok:4294967296";
  EXPECT_EQ(reply.payload(), "reply|4|10007|12345678901234|ok:4294967296");

  Prepare prepare;
  prepare.view = 3;
  prepare.seq = 4294967301ULL;
  prepare.requests = {r1, r2};
  EXPECT_EQ(crypto::to_hex(prepare.body_digest()),
            "98b47d32be2b835c0b4b2fceb8c280e78c85303cd235f62c092ae580c42c483e");

  Commit commit;
  commit.view = 3;
  commit.seq = 4294967301ULL;
  commit.replica = 6;
  commit.batch_digest = prepare.batch_digest();
  commit.leader_ui.replica = 3;
  commit.leader_ui.counter = 4294967301ULL;
  EXPECT_EQ(crypto::to_hex(commit.body_digest()),
            "433e43d5c4c9bec2481f71aa68789db37c02ed4c3c66c866c5cfc4894afdb302");

  Checkpoint checkpoint;
  checkpoint.replica = 5;
  checkpoint.last_executed = 9876543210ULL;
  checkpoint.state_digest = crypto::Sha256::hash("state");
  EXPECT_EQ(crypto::to_hex(checkpoint.body_digest()),
            "631230b49fbdf490c38cf66dc20cf2dadfd56eb66e9b00999454ab24b8feb0d3");

  ReplicatedService service;
  EXPECT_EQ(service.execute("write:a"), "ok:1");
  EXPECT_EQ(service.execute("write:b"), "ok:2");
  EXPECT_EQ(crypto::to_hex(service.state_digest()),
            "a8304bd1b51f80bd6bcf7f3bc26c5e38b55bb4f3abf606920b7b997844ff6f34");
}

TEST(MinBftSignedBytes, UsigCertificateIsPinned) {
  crypto::KeyRegistry registry;
  const std::string secret =
      registry.register_principal(3 + crypto::kUsigPrincipalOffset, 77);
  crypto::Usig usig(3, secret, /*epoch=*/4294967297ULL);
  (void)usig.create(crypto::Sha256::hash("first"));
  const crypto::UniqueIdentifier ui = usig.create(crypto::Sha256::hash("op"));
  EXPECT_EQ(ui.counter, 2u);
  EXPECT_EQ(crypto::to_hex(ui.certificate),
            "97dac878f73fa29bd3bd74bff81696700a8af6840b3b4498805fed194901f049");
  EXPECT_TRUE(crypto::Usig::verify(registry, crypto::Sha256::hash("op"), ui));
}

TEST(MinBftCommitRepair, LostCommitVotesHealInPlaceWithoutViewChange) {
  // Wedge the cluster: with follower<->follower links blocked at n=5
  // (f=2), every follower holds 2 of the f+1 = 3 required commit votes
  // (leader + self).  The leader STAYS UP and the commit-repair clock is
  // turned on.  Once the links heal, each follower's repair nudge
  // re-broadcasts its own (re-signed) vote; the other followers count the
  // fresh vote and the wedge closes in view 0.  No crash, no view change:
  // the repair path is the only healer.  (With commit_repair_timeout = 0 —
  // the sim-lane default — the followers stay wedged forever and the
  // committed_log_size assertions below fail.)
  MinBftConfig cfg = fast_config(2);
  cfg.commit_repair_timeout = 0.2;
  MinBftCluster cluster(5, cfg, 37, fast_link());
  for (ReplicaId a = 1; a <= 4; ++a) {
    for (ReplicaId b = static_cast<ReplicaId>(a + 1); b <= 4; ++b) {
      cluster.network().set_blocked(a, b, true);
    }
  }
  auto& client = cluster.add_client();
  client.submit("repair-w", [](std::uint64_t, const std::string&, double) {});
  cluster.run_for(1.0);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(cluster.replica(id).committed_log_size(), 0u)
        << "replica " << id << " committed through blocked links";
  }
  for (ReplicaId a = 1; a <= 4; ++a) {
    for (ReplicaId b = static_cast<ReplicaId>(a + 1); b <= 4; ++b) {
      cluster.network().set_blocked(a, b, false);
    }
  }
  cluster.run_for(1.0);
  for (ReplicaId id = 0; id <= 4; ++id) {
    auto& replica = cluster.replica(id);
    EXPECT_EQ(replica.view(), 0u) << "replica " << id;
    EXPECT_EQ(replica.committed_log_size(), 1u) << "replica " << id;
    EXPECT_EQ(replica.service().log().front(), "repair-w");
  }
}

TEST(MinBftCommitRepair, DestroyedReplicaLeavesNoRepairTimerBehind) {
  // Replica 4 signs its COMMIT, then loses every link: it sits on a
  // self-voted entry short of quorum, so its repair clock is armed when the
  // cluster evicts it and the caller destroys it.  The timer's callback
  // captures the replica; if the destructor leaves it scheduled it fires
  // into freed memory half a second later (a heap-use-after-free under
  // ASan).
  MinBftConfig cfg = fast_config(2);
  cfg.commit_repair_timeout = 0.5;
  MinBftCluster cluster(5, cfg, 41, fast_link());
  // Only the leader reaches replica 4, so its PREPARE plus replica 4's own
  // vote stay one short of the f + 1 = 3 commit quorum.
  for (ReplicaId peer = 1; peer <= 3; ++peer) {
    cluster.network().set_blocked(4, peer, true);
  }
  auto& client = cluster.add_client();
  client.submit("w0", [](std::uint64_t, const std::string&, double) {});
  const std::uint64_t counter_before = cluster.replica(4).usig_counter();
  while (cluster.replica(4).usig_counter() == counter_before &&
         cluster.network().step()) {
  }
  ASSERT_GT(cluster.replica(4).usig_counter(), counter_before)
      << "replica 4 never signed its COMMIT";
  cluster.network().set_blocked(4, 0, true);
  cluster.run_for(0.1);
  ASSERT_EQ(cluster.replica(4).committed_log_size(), 0u)
      << "replica 4 reached quorum, so no repair timer was armed";

  cluster.evict_and_detach(4).reset();
  cluster.run_for(2.0);
  const auto result = cluster.submit_and_run(client, "after-evict");
  ASSERT_TRUE(result.has_value());
  for (ReplicaId id = 0; id <= 3; ++id) {
    EXPECT_EQ(cluster.replica(id).service().log().back(), "after-evict")
        << "replica " << id;
  }
}

TEST(MinBftPrepareFetch, RecoveredReplicaLeavesNoGraceTimerBehind) {
  // The leader's PREPAREs never reach replica 4, so the three followers'
  // COMMITs arrive there first (at ~0.3 s) and form an f+1 quorum without
  // a prepare: replica 4 arms its 20 ms PREPARE-fetch grace timer.
  // Recovering replica 4 inside that window destroys the object the
  // timer's callback captured; unless the destructor cancels it, the
  // callback reads freed memory (a heap-use-after-free under ASan).
  MinBftConfig cfg = fast_config(2);
  cfg.crypto_cost_sign = 0.0;
  cfg.crypto_cost_verify = 0.0;
  cfg.crypto_cost_reply = 0.0;
  net::LinkConfig link;
  link.base_delay = 0.1;
  link.jitter = 0.0;
  MinBftCluster cluster(5, cfg, 43, link);
  net::LinkConfig lost = link;
  lost.loss = 1.0;
  cluster.network().set_link(0, 4, lost);  // only PREPAREs flow 0 -> 4 here
  auto& client = cluster.add_client();
  const double submitted = cluster.network().now();
  client.submit("w0", [](std::uint64_t, const std::string&, double) {});
  cluster.run_for(0.31);
  ASSERT_EQ(cluster.replica(4).committed_log_size(), 0u)
      << "replica 4 executed without the PREPARE";
  const double elapsed = cluster.network().now() - submitted;
  ASSERT_GE(elapsed, 0.305);
  ASSERT_LE(elapsed, 0.32);
  cluster.recover_replica(4);  // runs the network past the grace deadline
  for (ReplicaId id = 0; id <= 3; ++id) {
    EXPECT_EQ(cluster.replica(id).service().log(),
              std::vector<std::string>{"w0"})
        << "replica " << id;
  }
}

TEST(MinBft, LostReplyIsAnsweredFromTheReplyCache) {
  // Every reply to the client is lost until all replicas have executed the
  // request.  The client's retransmission then reaches replicas that
  // already applied it: each must answer from its reply cache rather than
  // drop the duplicate or execute it again.
  MinBftCluster cluster(3, fast_config(1), 47, fast_link());
  auto& client = cluster.add_client();
  net::LinkConfig lost = fast_link();
  lost.loss = 1.0;
  for (ReplicaId id : cluster.replica_ids()) {
    cluster.network().set_link(id, client.id(), lost);
  }
  std::optional<std::string> result;
  client.submit("w0", [&](std::uint64_t, const std::string& r, double) {
    result = r;
  });
  const auto all_executed = [&] {
    for (ReplicaId id : cluster.replica_ids()) {
      if (cluster.replica(id).committed_log_size() == 0) return false;
    }
    return true;
  };
  while (!all_executed() && cluster.network().step()) {
  }
  ASSERT_TRUE(all_executed());
  EXPECT_FALSE(result.has_value()) << "a reply crossed a lossy link";
  for (ReplicaId id : cluster.replica_ids()) {
    cluster.network().set_link(id, client.id(), fast_link());
  }
  cluster.run_for(3.0);  // past the client's 1 s retransmission timer
  ASSERT_TRUE(result.has_value()) << "the retransmission went unanswered";
  EXPECT_EQ(*result, "ok:1");
  for (ReplicaId id : cluster.replica_ids()) {
    EXPECT_EQ(cluster.replica(id).service().log(),
              std::vector<std::string>{"w0"})
        << "replica " << id;
  }
}

TEST(MinBftFlushWindow, FlushWindowLogsMatchBaseline) {
  // The sim-lane half of the CI bench gate, as a unit test: under the same
  // deterministic workload, the MAC flush window is a pure cost lever — the
  // committed operation logs stay equivalent to the plain configuration
  // (same multiset, same per-client order).
  MinBftConfig cfg = fast_config(1);
  const int clients = 6, ops = 10;
  const auto baseline = tagged_workload(cfg, 3, clients, ops, 37);
  MinBftConfig mac = cfg;
  mac.mac_flush_window = 0.002;
  const auto batched = tagged_workload(mac, 3, clients, ops, 37);
  ASSERT_EQ(baseline.log.size(), static_cast<std::size_t>(clients * ops));
  std::string err;
  EXPECT_TRUE(logs_equivalent(batched.log, baseline.log, clients, &err))
      << err;
}

// ---------------------------------------------------------------------------
// Raft
// ---------------------------------------------------------------------------

raft::RaftConfig raft_config() {
  raft::RaftConfig cfg;
  cfg.election_timeout_min = 0.15;
  cfg.election_timeout_max = 0.30;
  cfg.heartbeat_interval = 0.05;
  return cfg;
}

TEST(Raft, ElectsSingleLeader) {
  raft::RaftCluster cluster(5, raft_config(), 21, fast_link());
  const auto leader = cluster.await_leader();
  ASSERT_TRUE(leader.has_value());
  int leaders = 0;
  for (auto id : cluster.node_ids()) {
    if (cluster.node(id).role() == raft::Role::Leader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Raft, ReplicatesAndCommits) {
  raft::RaftCluster cluster(3, raft_config(), 22, fast_link());
  const auto leader = cluster.await_leader();
  ASSERT_TRUE(leader.has_value());
  std::vector<std::string> applied;
  cluster.node(*leader).set_apply_handler(
      [&](raft::Index, const std::string& cmd) { applied.push_back(cmd); });
  ASSERT_TRUE(cluster.node(*leader).propose("set-replication=5").has_value());
  ASSERT_TRUE(cluster.node(*leader).propose("add-node=7").has_value());
  cluster.run_for(1.0);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], "set-replication=5");
  // Followers hold identical committed prefixes.
  for (auto id : cluster.node_ids()) {
    EXPECT_GE(cluster.node(id).commit_index(), 2u);
    EXPECT_EQ(cluster.node(id).log()[0].command, "set-replication=5");
  }
}

TEST(Raft, FollowerRejectsProposals) {
  raft::RaftCluster cluster(3, raft_config(), 23, fast_link());
  const auto leader = cluster.await_leader();
  ASSERT_TRUE(leader.has_value());
  for (auto id : cluster.node_ids()) {
    if (id != *leader) {
      EXPECT_FALSE(cluster.node(id).propose("nope").has_value());
    }
  }
}

TEST(Raft, SurvivesLeaderCrash) {
  raft::RaftCluster cluster(5, raft_config(), 24, fast_link());
  const auto first = cluster.await_leader();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(cluster.node(*first).propose("before").has_value());
  cluster.run_for(1.0);
  cluster.node(*first).crash();
  const auto second = cluster.await_leader();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);
  ASSERT_TRUE(cluster.node(*second).propose("after").has_value());
  cluster.run_for(1.0);
  // The new leader's log contains both entries.
  const auto& log = cluster.node(*second).log();
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log[0].command, "before");
  EXPECT_EQ(log[1].command, "after");
}

TEST(Raft, MinorityPartitionCannotCommit) {
  raft::RaftCluster cluster(5, raft_config(), 25, fast_link());
  const auto leader = cluster.await_leader();
  ASSERT_TRUE(leader.has_value());
  // Isolate the leader with one follower (minority).
  std::vector<raft::NodeId> minority{*leader};
  std::vector<raft::NodeId> majority;
  for (auto id : cluster.node_ids()) {
    if (id == *leader) continue;
    if (minority.size() < 2) {
      minority.push_back(id);
    } else {
      majority.push_back(id);
    }
  }
  cluster.network().partition(
      {{minority.begin(), minority.end()}, {majority.begin(), majority.end()}});
  const auto old_commit = cluster.node(*leader).commit_index();
  cluster.node(*leader).propose("stale");
  cluster.run_for(2.0);
  EXPECT_EQ(cluster.node(*leader).commit_index(), old_commit)
      << "minority leader must not commit";
  // The majority elects a fresh leader that can commit.
  std::optional<raft::NodeId> new_leader;
  for (auto id : majority) {
    if (cluster.node(id).role() == raft::Role::Leader) new_leader = id;
  }
  ASSERT_TRUE(new_leader.has_value());
  ASSERT_TRUE(cluster.node(*new_leader).propose("fresh").has_value());
  cluster.run_for(2.0);
  EXPECT_GT(cluster.node(*new_leader).commit_index(), old_commit);
}

TEST(Raft, RestartedNodeRejoins) {
  raft::RaftCluster cluster(3, raft_config(), 26, fast_link());
  const auto leader = cluster.await_leader();
  ASSERT_TRUE(leader.has_value());
  // Crash a follower, commit entries, restart it, verify catch-up.
  raft::NodeId follower = 0;
  for (auto id : cluster.node_ids()) {
    if (id != *leader) {
      follower = id;
      break;
    }
  }
  cluster.node(follower).crash();
  ASSERT_TRUE(cluster.node(*leader).propose("while-down").has_value());
  cluster.run_for(1.0);
  cluster.node(follower).restart();
  cluster.run_for(2.0);
  ASSERT_GE(cluster.node(follower).log().size(), 1u);
  EXPECT_EQ(cluster.node(follower).log()[0].command, "while-down");
  EXPECT_GE(cluster.node(follower).commit_index(), 1u);
}

}  // namespace
}  // namespace tolerance::consensus
