// MinBFT client (§VII-B): broadcasts signed requests to all replicas and
// accepts a result once f+1 replicas return identical, correctly signed
// replies — a quorum is required because the client cannot tell which
// replicas are compromised (Prop. 1).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "tolerance/consensus/minbft_messages.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance::consensus {

class MinBftClient {
 public:
  using CompletionHandler =
      std::function<void(std::uint64_t request_id, const std::string& result,
                         double latency_seconds)>;

  /// The trailing double is ignored; perfbench's service workload passes it.
  MinBftClient(ClientId id, int f, std::vector<ReplicaId> replicas,
               MinBftTransport& net, std::shared_ptr<crypto::KeyRegistry> registry,
               std::uint64_t key_seed, double retry_timeout = 30.0,
               double = 0.0);

  ClientId id() const { return id_; }

  /// Update the replica set after a reconfiguration.
  void set_replicas(std::vector<ReplicaId> replicas);

  /// Submit an operation; `on_complete` fires when f+1 matching replies
  /// arrive.  Returns the request id.
  std::uint64_t submit(const std::string& operation,
                       CompletionHandler on_complete);

  /// Abandon a pending request: cancel its retransmission timer and drop
  /// the completion handler.  Late replies are ignored.  Used by callers
  /// that probe availability with a deadline (the scenario harness).
  void cancel(std::uint64_t request_id);

  std::size_t pending_count() const { return pending_.size(); }

  /// Wire to the network.
  void on_message(net::NodeId from, const MinBftMsg& msg);

  std::uint64_t completed_count() const { return completed_; }

  // Overload-backoff telemetry (tests and the overload scenarios).
  /// Signed Overloaded rejections accepted (after signature verification).
  std::uint64_t overloaded_replies() const { return overloaded_replies_; }
  /// Times this client actually backed off (an f+1 rejection quorum formed).
  std::uint64_t overload_backoffs() const { return overload_backoffs_; }
  /// The most recent backoff delay chosen (seconds, jitter included).
  double last_backoff_delay() const { return last_backoff_delay_; }
  /// Pending requests currently in the valve's custody: ever rejected by an
  /// f+1 quorum and not yet completed.  The overload scenarios subtract
  /// these from the offered load when computing admitted-request
  /// availability — shed traffic is the valve doing its job, not a failure.
  std::size_t shed_pending_count() const {
    std::size_t n = 0;
    for (const auto& [rid, p] : pending_) {
      (void)rid;
      if (p.was_shed) ++n;
    }
    return n;
  }

 private:
  struct Pending {
    Request request;
    std::map<std::string, std::set<ReplicaId>> votes;  // result -> replicas
    CompletionHandler on_complete;
    double submitted_at = 0.0;
    std::uint64_t retry_timer = 0;
    // --- overload-backoff state -------------------------------------------
    /// Distinct replicas that rejected this request with a (verified)
    /// Overloaded.  Backoff requires f+1 of them: at least one is honest,
    /// so a single Byzantine replica advertising fake HARD pressure cannot
    /// starve the client while a quorum still serves.
    std::set<ReplicaId> overloaded_from;
    std::uint64_t retry_after_hint_ms = 0;  ///< max hint across rejecters
    int backoff_attempts = 0;               ///< exponent for the next delay
    bool backing_off = false;               ///< a backoff timer is armed
    bool was_shed = false;  ///< an f+1 rejection quorum ever formed (sticky)
  };

  void transmit(const Request& request);
  /// Arm the retransmission timer; `delay` < 0 means the flat
  /// retry_timeout_.  Rejections stretch the delay (see handle_overloaded);
  /// the timer always re-arms itself at the flat timeout afterwards.
  void arm_retry(std::uint64_t request_id, double delay = -1.0);
  void handle_overloaded(const Overloaded& ov);
  /// Flat retry timeout stretched by the rejection hint (bounded multiple):
  /// used for sub-quorum rejections and post-backoff re-probes, where an
  /// overloaded cluster's answer is expected to be slow.
  double stretched_retry_delay(const Pending& p) const;
  /// Replace the flat retry timer with a jittered exponential backoff:
  /// delay = max(hint, floor) * 2^attempts, capped, scaled by a uniform
  /// [0.5, 1.5) draw from this client's private Rng stream so storms
  /// desynchronize instead of re-arriving in lockstep.
  void schedule_backoff(std::uint64_t request_id);

  ClientId id_;
  int f_;
  std::vector<ReplicaId> replicas_;
  MinBftTransport* net_;
  std::shared_ptr<crypto::KeyRegistry> registry_;
  crypto::Signer signer_;
  double retry_timeout_;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t overloaded_replies_ = 0;
  std::uint64_t overload_backoffs_ = 0;
  double last_backoff_delay_ = 0.0;
  Rng rng_;  ///< jitter source, split per client from the key seed
  std::map<std::uint64_t, Pending> pending_;
};

}  // namespace tolerance::consensus
