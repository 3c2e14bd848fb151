#include "tolerance/consensus/minbft_client.hpp"

#include <algorithm>
#include <cmath>

#include "tolerance/util/ensure.hpp"

namespace tolerance::consensus {
namespace {

/// Backoff floor when a rejection carries no hint (seconds), and the cap
/// the exponential never exceeds.  The cap scales with the server's hint —
/// a replica advertising an 8 s retry-after is describing sustained
/// overload, and a storm of clients re-probing it every fixed 10 s would
/// keep the pressure loop pinned — but never drops below kBackoffCap so a
/// tiny hint cannot turn the backoff into a busy-wait.
constexpr double kBackoffFloor = 0.1;
constexpr double kBackoffCap = 10.0;
constexpr double kBackoffCapHintFactor = 8.0;
/// Cap, in multiples of the flat retry timeout, on how far a retry-after
/// hint may stretch the plain retransmission timer (sub-quorum rejections
/// and post-backoff re-probes).  Bounded so possibly-Byzantine hints can
/// delay retries but never stop them.
constexpr double kRetryStretchCap = 8.0;
/// Stream salt separating the client's jitter stream from any other
/// consumer of the same key seed.
constexpr std::uint64_t kJitterSalt = 0x6f766c64u;  // "ovld"

}  // namespace

MinBftClient::MinBftClient(ClientId id, int f, std::vector<ReplicaId> replicas,
                           MinBftTransport& net,
                           std::shared_ptr<crypto::KeyRegistry> registry,
                           std::uint64_t key_seed, double retry_timeout,
                           double)
    : id_(id), f_(f), replicas_(std::move(replicas)), net_(&net),
      registry_(std::move(registry)),
      signer_(id, registry_->register_principal(id, key_seed)),
      retry_timeout_(retry_timeout),
      rng_(Rng::stream(key_seed ^ kJitterSalt, id)) {
  TOL_ENSURE(f_ >= 0, "f must be non-negative");
  TOL_ENSURE(!replicas_.empty(), "need at least one replica");
}

void MinBftClient::set_replicas(std::vector<ReplicaId> replicas) {
  TOL_ENSURE(!replicas.empty(), "need at least one replica");
  replicas_ = std::move(replicas);
}

std::uint64_t MinBftClient::submit(const std::string& operation,
                                   CompletionHandler on_complete) {
  Request req;
  req.client = id_;
  req.request_id = ++next_request_id_;
  req.operation = operation;
  net_->consume_cpu(id_, crypto::KeyRegistry::kSignCost);
  req.signature = signer_.sign(req.payload());
  Pending pending;
  pending.request = req;
  pending.on_complete = std::move(on_complete);
  pending.submitted_at = net_->now();
  pending_[req.request_id] = std::move(pending);
  transmit(req);
  arm_retry(req.request_id);
  return req.request_id;
}

void MinBftClient::transmit(const Request& request) {
  net_->broadcast(id_, replicas_, MinBftMsg{request});
}

void MinBftClient::cancel(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  net_->cancel(it->second.retry_timer);
  pending_.erase(it);
}

void MinBftClient::arm_retry(std::uint64_t request_id, double delay) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  if (delay < 0.0) delay = retry_timeout_;
  it->second.retry_timer = net_->schedule(id_, delay, [this, request_id]() {
    const auto p = pending_.find(request_id);
    if (p == pending_.end()) return;  // already completed
    transmit(p->second.request);      // Texec retransmission (Table 8)
    arm_retry(request_id);
  });
}

void MinBftClient::handle_overloaded(const Overloaded& ov) {
  if (ov.client != id_) return;
  const auto it = pending_.find(ov.request_id);
  if (it == pending_.end()) return;
  // Rejections are authenticated like replies: the signer must be the
  // claimed replica and the tag must verify over the payload (which binds
  // mode, hint, and request identity) — a forged or replayed Overloaded
  // never reaches the backoff quorum.
  if (ov.signature.signer != ov.replica) return;
  net_->consume_cpu(id_, crypto::KeyRegistry::kVerifyCost);
  if (!registry_->verify(ov.payload(), ov.signature)) return;
  ++overloaded_replies_;
  Pending& p = it->second;
  p.overloaded_from.insert(ov.replica);
  p.retry_after_hint_ms = std::max(p.retry_after_hint_ms, ov.retry_after_ms);
  // f+1 distinct rejecters guarantee at least one honest replica really is
  // overloaded; fewer may all be Byzantine, so retries must keep flowing —
  // but on the stretched timer below, not the short flat one.  Without the
  // stretch a client whose rejections are slow to arrive (queued behind
  // the very overload they describe) keeps retransmitting on the flat
  // timer, feeding the queue that delays its own rejection quorum.  The
  // stretch is bounded by 8x the base timeout, so sub-quorum (possibly
  // all-Byzantine) evidence can delay retries but never stop them.
  if (static_cast<int>(p.overloaded_from.size()) < f_ + 1) {
    if (!p.backing_off) {
      net_->cancel(p.retry_timer);
      arm_retry(ov.request_id, stretched_retry_delay(p));
    }
    return;
  }
  p.was_shed = true;
  if (p.backing_off) return;
  schedule_backoff(ov.request_id);
}

double MinBftClient::stretched_retry_delay(const Pending& p) const {
  const double hint_s = static_cast<double>(p.retry_after_hint_ms) / 1000.0;
  return std::max(retry_timeout_,
                  std::min(hint_s, kRetryStretchCap * retry_timeout_));
}

void MinBftClient::schedule_backoff(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  net_->cancel(p.retry_timer);
  p.backing_off = true;
  const double hint = static_cast<double>(p.retry_after_hint_ms) / 1000.0;
  const double base = std::max(hint, kBackoffFloor);
  const double cap = std::max(kBackoffCap, kBackoffCapHintFactor * base);
  const double capped = std::min(base * std::pow(2.0, p.backoff_attempts), cap);
  ++p.backoff_attempts;
  const double delay = capped * rng_.uniform(0.5, 1.5);
  last_backoff_delay_ = delay;
  ++overload_backoffs_;
  p.retry_timer = net_->schedule(id_, delay, [this, request_id]() {
    const auto pit = pending_.find(request_id);
    if (pit == pending_.end()) return;  // completed while backing off
    pit->second.backing_off = false;
    pit->second.overloaded_from.clear();  // a fresh quorum is required
    transmit(pit->second.request);
    // Re-probe on the stretched timer, not the flat one: the cluster just
    // declared overload, so its answer (serve or reject) may be queued
    // behind the very backlog it described, and flat-timer retries here
    // would feed the queue that delays this client's own rejection quorum.
    arm_retry(request_id, stretched_retry_delay(pit->second));
  });
}

void MinBftClient::on_message(net::NodeId, const MinBftMsg& msg) {
  if (const Overloaded* ov = std::get_if<Overloaded>(&msg)) {
    handle_overloaded(*ov);
    return;
  }
  const Reply* reply = std::get_if<Reply>(&msg);
  if (reply == nullptr || reply->client != id_) return;
  const auto it = pending_.find(reply->request_id);
  if (it == pending_.end()) return;
  net_->consume_cpu(id_, crypto::KeyRegistry::kVerifyCost);
  if (!registry_->verify(reply->payload(), reply->signature)) return;
  auto& votes = it->second.votes[reply->result];
  votes.insert(reply->replica);
  if (static_cast<int>(votes.size()) >= f_ + 1) {
    const double latency = net_->now() - it->second.submitted_at;
    ++completed_;
    net_->cancel(it->second.retry_timer);
    auto handler = std::move(it->second.on_complete);
    const std::string result = reply->result;
    const std::uint64_t rid = reply->request_id;
    pending_.erase(it);
    if (handler) handler(rid, result, latency);
  }
}

}  // namespace tolerance::consensus
