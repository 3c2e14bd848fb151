#include "tolerance/consensus/minbft_cluster.hpp"

#include <sstream>

#include "tolerance/util/ensure.hpp"

namespace tolerance::consensus {

MinBftCluster::MinBftCluster(int num_replicas, MinBftConfig config,
                             std::uint64_t seed, net::LinkConfig link)
    : config_(config), seed_(seed), net_(seed, link),
      registry_(std::make_shared<crypto::KeyRegistry>()) {
  TOL_ENSURE(num_replicas >= 2 * config.f + 1,
             "MinBFT requires N >= 2f + 1 (hybrid failure model)");
  std::vector<ReplicaId> membership;
  for (int i = 0; i < num_replicas; ++i) {
    membership.push_back(static_cast<ReplicaId>(i));
  }
  next_replica_id_ = static_cast<ReplicaId>(num_replicas);
  for (ReplicaId id : membership) wire_replica(id, membership);
  controller_client_ = std::make_unique<MinBftClient>(
      9999, config_.f, membership, net_, registry_, seed ^ 0x9999,
      config_.request_retry_timeout);
  net_.register_host(9999, [this](net::NodeId from, const MinBftMsg& m) {
    controller_client_->on_message(from, m);
  });
}

void MinBftCluster::wire_replica(ReplicaId id,
                                 std::vector<ReplicaId> membership) {
  // usig_epochs_[id] default-initializes to 0 on first wiring; recoveries
  // increment it before re-wiring so the fresh USIG supersedes the old one.
  auto replica = std::make_unique<MinBftReplica>(
      id, std::move(membership), config_, net_, registry_, seed_ ^ id,
      usig_epochs_[id]);
  MinBftReplica* raw = replica.get();
  replicas_[id] = std::move(replica);
  net_.register_host(id, [raw](net::NodeId from, const MinBftMsg& m) {
    raw->on_message(from, m);
  });
}

MinBftReplica& MinBftCluster::replica(ReplicaId id) {
  const auto it = replicas_.find(id);
  TOL_ENSURE(it != replicas_.end(), "unknown replica id");
  return *it->second;
}

bool MinBftCluster::has_replica(ReplicaId id) const {
  return replicas_.count(id) > 0;
}

std::vector<ReplicaId> MinBftCluster::replica_ids() const {
  std::vector<ReplicaId> ids;
  ids.reserve(replicas_.size());
  for (const auto& [id, r] : replicas_) {
    (void)r;
    ids.push_back(id);
  }
  return ids;
}

std::vector<ReplicaId> MinBftCluster::current_membership() const {
  // Use the most advanced replica's view of the membership: a silent or
  // recovering replica may not have executed the latest join/evict yet.
  TOL_ENSURE(!replicas_.empty(), "cluster has no replicas");
  const MinBftReplica* best = nullptr;
  for (const auto& [id, r] : replicas_) {
    (void)id;
    if (best == nullptr || r->last_executed() > best->last_executed()) {
      best = r.get();
    }
  }
  return best->membership();
}

MinBftClient& MinBftCluster::add_client() {
  return add_client(config_.request_retry_timeout);
}

MinBftClient& MinBftCluster::add_client(double retry_timeout) {
  const ClientId id = next_client_id_++;
  auto client = std::make_unique<MinBftClient>(
      id, config_.f, current_membership(), net_, registry_, seed_ ^ id,
      retry_timeout);
  MinBftClient* raw = client.get();
  net_.register_host(id, [raw](net::NodeId from, const MinBftMsg& m) {
    raw->on_message(from, m);
  });
  clients_.push_back(std::move(client));
  return *clients_.back();
}

std::optional<std::string> MinBftCluster::submit_and_run(
    MinBftClient& client, const std::string& op, std::size_t max_events) {
  std::optional<std::string> result;
  client.submit(op, [&result](std::uint64_t, const std::string& r, double) {
    result = r;
  });
  std::size_t events = 0;
  while (!result.has_value() && events < max_events && net_.step()) ++events;
  return result;
}

ReplicaId MinBftCluster::join_new_replica() {
  const ReplicaId id = next_replica_id_++;
  // Spin up the replica with the membership it will have after the join so
  // that it recognises itself as a member.
  std::vector<ReplicaId> membership = current_membership();
  membership.push_back(id);
  wire_replica(id, membership);
  std::ostringstream op;
  op << "join:" << id;
  controller_client_->set_replicas(current_membership());
  const auto res = submit_and_run(*controller_client_, op.str());
  TOL_ENSURE(res.has_value(), "join request did not complete");
  replicas_[id]->request_state_transfer();
  net_.run(200000);
  return id;
}

void MinBftCluster::evict_replica(ReplicaId id) {
  std::ostringstream op;
  op << "evict:" << id;
  controller_client_->set_replicas(current_membership());
  const auto res = submit_and_run(*controller_client_, op.str());
  TOL_ENSURE(res.has_value(), "evict request did not complete");
  net_.unregister_host(id);
  replicas_.erase(id);
}

bool MinBftCluster::order_with_budget(const std::string& op,
                                      std::size_t max_events) {
  controller_client_->set_replicas(current_membership());
  std::optional<std::string> result;
  const std::uint64_t rid = controller_client_->submit(
      op, [&result](std::uint64_t, const std::string& r, double) {
        result = r;
      });
  // Deadline in simulated time: enough for a leader crash to be resolved
  // (view changes) plus a few client retransmissions.  A stalled quorum
  // keeps re-arming retry timers so the queue never drains on its own — the
  // deadline (with the event budget as a hard backstop) bounds the attempt.
  const double deadline = net_.now() + 2.0 * config_.view_change_timeout +
                          4.0 * config_.request_retry_timeout;
  std::size_t events = 0;
  while (!result.has_value() && events < max_events &&
         net_.now() < deadline && net_.step()) {
    ++events;
  }
  if (!result.has_value()) controller_client_->cancel(rid);
  return result.has_value();
}

std::optional<ReplicaId> MinBftCluster::try_join_new_replica(
    std::size_t max_events) {
  const ReplicaId id = next_replica_id_++;
  std::vector<ReplicaId> membership = current_membership();
  membership.push_back(id);
  wire_replica(id, membership);
  std::ostringstream op;
  op << "join:" << id;
  if (!order_with_budget(op.str(), max_events)) {
    // Undo the provisional wiring; the id is burned, never reused.
    net_.unregister_host(id);
    replicas_.erase(id);
    return std::nullopt;
  }
  replicas_[id]->request_state_transfer();
  net_.run(max_events);
  return id;
}

bool MinBftCluster::try_evict_replica(ReplicaId id, std::size_t max_events) {
  std::ostringstream op;
  op << "evict:" << id;
  if (!order_with_budget(op.str(), max_events)) return false;
  // No-ops for a ghost id (in the membership but never wired here).
  net_.unregister_host(id);
  replicas_.erase(id);
  return true;
}

void MinBftCluster::finalize_evict(ReplicaId id) {
  net_.unregister_host(id);
  replicas_.erase(id);
}

std::unique_ptr<MinBftReplica> MinBftCluster::evict_and_detach(ReplicaId id) {
  TOL_ENSURE(replicas_.count(id) > 0, "unknown replica id");
  std::ostringstream op;
  op << "evict:" << id;
  controller_client_->set_replicas(current_membership());
  const auto res = submit_and_run(*controller_client_, op.str());
  TOL_ENSURE(res.has_value(), "evict request did not complete");
  // Unregister the host so the network never routes into the detached
  // object once the caller destroys it; the detached replica can still
  // *send* (an attacker-controlled machine that was excluded from the
  // protocol but not powered off), and a test that wants it to receive
  // traffic can register its own forwarding handler.
  net_.unregister_host(id);
  auto detached = std::move(replicas_[id]);
  replicas_.erase(id);
  return detached;
}

void MinBftCluster::recover_replica(ReplicaId id) {
  TOL_ENSURE(replicas_.count(id) > 0, "unknown replica id");
  const std::vector<ReplicaId> membership = current_membership();
  net_.unregister_host(id);
  replicas_.erase(id);
  ++usig_epochs_[id];  // new container, new trusted-component lifetime
  wire_replica(id, membership);
  replicas_[id]->request_state_transfer();
  net_.run(200000);
}

void MinBftCluster::crash_replica(ReplicaId id) {
  net_.unregister_host(id);
}

void MinBftCluster::run_for(double seconds) {
  net_.run_until(net_.now() + seconds);
}

}  // namespace tolerance::consensus
