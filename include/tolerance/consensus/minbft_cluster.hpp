// Harness that wires MinBFT replicas and clients onto a simulated network,
// and drives the reconfiguration flows of Fig. 17 (join, evict, recover).
// Used by the consensus tests, the Fig. 10 throughput bench, and the
// full-stack emulation example.
#pragma once

#include <map>
#include <memory>

#include "tolerance/consensus/minbft_client.hpp"
#include "tolerance/consensus/minbft_replica.hpp"

namespace tolerance::consensus {

class MinBftCluster {
 public:
  MinBftCluster(int num_replicas, MinBftConfig config, std::uint64_t seed,
                net::LinkConfig link = net::LinkConfig{});

  MinBftNet& network() { return net_; }
  MinBftReplica& replica(ReplicaId id);
  bool has_replica(ReplicaId id) const;
  std::vector<ReplicaId> replica_ids() const;
  int f() const { return config_.f; }
  /// The consensus-ordered membership (an arbitrary live replica's view).
  std::vector<ReplicaId> membership() const { return current_membership(); }
  /// Minimum membership that preserves the MinBFT resilience bound 2f + 1.
  int quorum_floor() const { return 2 * config_.f + 1; }

  /// Create a client (ids start at 10000 to avoid clashing with replicas).
  MinBftClient& add_client();
  /// Same, with a per-client retransmission timeout — how the overload
  /// scenarios build retry-storm floods (aggressive timeout) and slow-loris
  /// floods (a timeout beyond the horizon, so requests just linger).
  MinBftClient& add_client(double retry_timeout);

  /// Submit through a client and run the network until completion or the
  /// event budget is exhausted; returns the result if completed.
  std::optional<std::string> submit_and_run(MinBftClient& client,
                                            const std::string& op,
                                            std::size_t max_events = 2000000);

  /// System-controller entry points (§VII-C): ordered via consensus.
  /// `join` spins up the replica object, orders "join:<id>", and triggers
  /// state transfer; `evict` orders "evict:<id>" and detaches the replica.
  ReplicaId join_new_replica();
  void evict_replica(ReplicaId id);

  /// Best-effort membership hooks for the system controller's closed loop:
  /// same flows as join_new_replica / evict_replica, but with a bounded
  /// event budget and a failure return instead of an abort when consensus
  /// cannot order the operation this cycle (e.g. more than f of the live
  /// replicas are silent).  A failed join is rolled back (the provisional
  /// replica is unwired and the request abandoned); if the operation was
  /// already prepared and executes later, the resulting memberless ghost id
  /// is visible via membership() and can be evicted then.
  std::optional<ReplicaId> try_join_new_replica(std::size_t max_events = 200000);
  bool try_evict_replica(ReplicaId id, std::size_t max_events = 200000);

  /// Tear down the local object for a replica whose evict operation was
  /// ordered *after* its try_evict_replica attempt timed out (the request
  /// was already prepared and executed later): the membership no longer
  /// lists it, only the object and host registration remain.  No consensus
  /// round — the eviction was already ordered.
  void finalize_evict(ReplicaId id);

  /// Replace the container of a compromised replica (Fig. 17d): fresh
  /// replica object, same id, state transfer from peers.  The new instance's
  /// USIG epoch is bumped so its restarted counter sequence supersedes the
  /// pre-recovery one at verifiers.
  void recover_replica(ReplicaId id);

  /// Crash a replica (stops handling messages permanently until recovered).
  void crash_replica(ReplicaId id);

  /// Evict `id` through consensus like evict_replica, but hand the detached
  /// replica object back to the caller instead of destroying it.  The host
  /// registration is removed (so nothing routes into the object after the
  /// caller frees it), but the detached replica can still *send*: a test
  /// hook for "evicted node keeps talking" attack scenarios — it can emit
  /// fresh USIG counters, which live members must reject.
  std::unique_ptr<MinBftReplica> evict_and_detach(ReplicaId id);

  /// Run the network for a simulated duration.
  void run_for(double seconds);

 private:
  void wire_replica(ReplicaId id, std::vector<ReplicaId> membership);
  std::vector<ReplicaId> current_membership() const;
  /// Order `op` through the controller client within `max_events` network
  /// events; abandons the request (cancelling its retries) on timeout.
  bool order_with_budget(const std::string& op, std::size_t max_events);

  MinBftConfig config_;
  std::uint64_t seed_;
  MinBftNet net_;
  std::shared_ptr<crypto::KeyRegistry> registry_;
  std::map<ReplicaId, std::unique_ptr<MinBftReplica>> replicas_;
  std::map<ReplicaId, std::uint64_t> usig_epochs_;  ///< per-id lifetime count
  std::vector<std::unique_ptr<MinBftClient>> clients_;
  std::unique_ptr<MinBftClient> controller_client_;  ///< issues join/evict
  ReplicaId next_replica_id_ = 0;
  ClientId next_client_id_ = 10000;
};

}  // namespace tolerance::consensus
