// Message vocabulary of the (reconfigurable) MinBFT protocol, Appendix G /
// Fig. 17 of the paper: REQUEST, PREPARE, COMMIT, REPLY, CHECKPOINT,
// REQ-VIEW-CHANGE, VIEW-CHANGE, NEW-VIEW, plus the JOIN/EVICT reconfiguration
// operations which TOLERANCE's system controller drives through consensus.
//
// Batching (the Fig. 10 throughput lever): a PREPARE binds an ordered
// *vector* of client requests to a single USIG counter value, so followers
// verify one UI per batch instead of one per request; COMMITs endorse the
// batch digest.  Execution and REPLYs still fan out per request.
//
// Message body digests are memoized (computed once, reused across sign,
// verify and conflict checks) — a message is serialized when it is built,
// not on every crypto call.  Mutating a message after its digest was taken
// requires invalidate_digests(); the only in-tree mutators are the
// Byzantine fault injections.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "tolerance/crypto/keys.hpp"
#include "tolerance/crypto/usig.hpp"
#include "tolerance/net/sim_network.hpp"

namespace tolerance::consensus {

using ReplicaId = net::NodeId;
using ClientId = net::NodeId;
using View = std::uint64_t;
using SeqNum = std::uint64_t;

/// Running totals of this thread's digest memoization (for the micro bench
/// and tests): `computed` body digests actually hashed, `saved` digest
/// requests served from the memo without touching SHA-256.  Per thread, so
/// event loops on different threads share no counter.
struct DigestMemoStats {
  std::uint64_t computed = 0;
  std::uint64_t saved = 0;
};
DigestMemoStats digest_memo_stats();
void reset_digest_memo_stats();

namespace detail {

/// One-slot digest memo.  Copies carry the cached value along, so a message
/// fanned out to N receivers is hashed once, not N times.
class DigestMemo {
 public:
  template <class Compute>
  const crypto::Digest& get(Compute&& compute) const {
    if (!valid_) {
      value_ = compute();
      valid_ = true;
      note_computed();
    } else {
      note_saved();
    }
    return value_;
  }

  void invalidate() { valid_ = false; }

 private:
  static void note_computed();
  static void note_saved();

  mutable crypto::Digest value_{};
  mutable bool valid_ = false;
};

}  // namespace detail

/// A client operation.  Reconfiguration requests are ordinary operations with
/// a reserved prefix ("join:<id>" / "evict:<id>") issued by the system
/// controller, so membership changes are totally ordered with the workload
/// (the approach of dynamic-BFT reconfiguration, §VII-C).
struct Request {
  ClientId client = 0;
  std::uint64_t request_id = 0;
  std::string operation;
  crypto::Signature signature;  ///< client's signature over the request

  std::string payload() const;
  crypto::Digest digest() const;
  void invalidate_digests() { memo_.invalidate(); }

 private:
  detail::DigestMemo memo_;
};

struct Prepare {
  View view = 0;
  SeqNum seq = 0;  ///< equals the leader's USIG counter value
  /// The ordered request batch bound to this counter value (>= 1 entry).
  std::vector<Request> requests;
  crypto::UniqueIdentifier ui;  ///< leader's UI over the prepare digest

  /// Digest over the ordered request-digest vector — what COMMITs endorse.
  crypto::Digest batch_digest() const;
  crypto::Digest body_digest() const;
  void invalidate_digests() {
    batch_memo_.invalidate();
    body_memo_.invalidate();
    for (Request& r : requests) r.invalidate_digests();
  }

 private:
  detail::DigestMemo batch_memo_;
  detail::DigestMemo body_memo_;
};

struct Commit {
  View view = 0;
  SeqNum seq = 0;
  ReplicaId replica = 0;         ///< the committing replica
  crypto::Digest batch_digest{}; ///< digest of the prepared request batch
  crypto::UniqueIdentifier leader_ui;  ///< copied from the PREPARE
  crypto::UniqueIdentifier ui;   ///< committer's own UI

  crypto::Digest body_digest() const;
  void invalidate_digests() { body_memo_.invalidate(); }

 private:
  detail::DigestMemo body_memo_;
};

struct Reply {
  ReplicaId replica = 0;
  ClientId client = 0;
  std::uint64_t request_id = 0;
  std::string result;
  crypto::Signature signature;

  std::string payload() const;
};

struct Checkpoint {
  ReplicaId replica = 0;
  SeqNum last_executed = 0;
  crypto::Digest state_digest{};
  crypto::UniqueIdentifier ui;

  crypto::Digest body_digest() const;
  void invalidate_digests() { body_memo_.invalidate(); }

 private:
  detail::DigestMemo body_memo_;
};

struct ReqViewChange {
  ReplicaId replica = 0;
  View from_view = 0;
  View to_view = 0;
  crypto::Signature signature;  ///< sender's signature over payload()

  std::string payload() const;
};

/// A prepared-but-possibly-undecided entry carried in view changes.
struct PreparedProof {
  Prepare prepare;
};

struct ViewChange {
  ReplicaId replica = 0;
  View to_view = 0;
  SeqNum stable_seq = 0;
  /// Checkpoint certificate: the f+1 USIG-certified CHECKPOINT messages that
  /// made `stable_seq` stable.  A stable_seq claim without a valid
  /// certificate is ignored during new-view assembly — otherwise a single
  /// compromised member could inflate it and displace the genuinely
  /// prepared suffix (a claim of 0 needs no certificate).
  std::vector<Checkpoint> checkpoint_cert;
  std::vector<PreparedProof> prepared;  ///< log suffix above the checkpoint
  crypto::UniqueIdentifier ui;

  crypto::Digest body_digest() const;
  void invalidate_digests() { body_memo_.invalidate(); }

 private:
  detail::DigestMemo body_memo_;
};

struct NewView {
  ReplicaId leader = 0;
  View view = 0;
  std::vector<ViewChange> proofs;   ///< f+1 view-change messages
  std::vector<Prepare> reproposed;  ///< undecided entries, re-prepared
  crypto::UniqueIdentifier ui;

  crypto::Digest body_digest() const;
  void invalidate_digests() { body_memo_.invalidate(); }

 private:
  detail::DigestMemo body_memo_;
};

/// State-transfer for recovered or joining replicas (Fig. 17 d-e).
/// `ops_executed` is the requester's committed operation count: responders
/// ship only the log suffix above it, so a lagging (but not amnesiac)
/// replica on a long-lived cluster is not mailed megabytes of history it
/// already holds.  A freshly restarted replica reports 0 and gets the full
/// committed log.
struct StateRequest {
  ReplicaId replica = 0;
  std::uint64_t ops_executed = 0;
};

/// Ask a peer to relay the PREPARE for `seq`.  Sent when a commit quorum has
/// accumulated for a sequence number whose PREPARE never arrived (the
/// network dropped it) — any committer necessarily holds that prepare.
/// Unauthenticated on purpose: a forgery can only trigger a bounded resend
/// of a message that is already public.
struct FetchPrepare {
  SeqNum seq = 0;
  ReplicaId requester = 0;
};

/// A PREPARE relayed by a non-leader in answer to FetchPrepare.  The leader's
/// USIG identifier inside still authenticates the content; the wrapper only
/// tells the receiver to skip the monotonic-counter window (the counter is
/// old by definition — the original broadcast already advanced it).
struct RelayedPrepare {
  Prepare prepare;
};

struct StateResponse {
  ReplicaId replica = 0;
  SeqNum last_executed = 0;
  /// Operation count of the committed prefix NOT shipped: `log` holds the
  /// sender's committed operations [prefix_ops, end).  The receiver splices
  /// its own first `prefix_ops` committed operations in front and verifies
  /// the chained digest of the whole against `state_digest`, so a truncated
  /// response carries exactly the same integrity guarantee as a full one.
  std::uint64_t prefix_ops = 0;
  std::vector<std::string> log;  ///< committed operations above prefix_ops
  crypto::Digest state_digest{};
  /// Checkpoint-anchored sidecar (anchor_seq == 0 when absent): the
  /// responder's stable checkpoint — an execution boundary every replica
  /// crosses at the same operation count — together with the f+1 checkpoint
  /// certificate that stabilized it.  The head digest above requires f+1
  /// byte-identical responses to install, which under continuous commit
  /// traffic rarely happens (each responder answers at a different live
  /// head); the anchor is self-certifying, so ONE response suffices for the
  /// receiver to recover to the boundary when head matching stalls.  The
  /// anchored prefix is log[0, anchor_ops - prefix_ops) of this response.
  SeqNum anchor_seq = 0;
  std::uint64_t anchor_ops = 0;
  crypto::Digest anchor_digest{};
  std::vector<Checkpoint> anchor_cert;
  crypto::Signature signature;  ///< sender's signature over payload()

  /// Covers (replica, last_executed, prefix_ops, state_digest) plus the
  /// anchor scalars; the log is bound through the chained state digest and
  /// the anchor_cert checkpoints each carry their own USIG identifier.
  std::string payload() const;
};

/// Typed overload rejection: a replica in SOFT/HARD admission mode answers a
/// request it cannot take with this instead of silently dropping it, so the
/// client backs off deliberately (jittered exponential, honoring the hint)
/// rather than retrying into the storm.  The mode and hint are inside
/// payload(), so a forged or replayed Overloaded fails signature
/// verification; clients additionally require f+1 distinct senders before
/// backing off, so one Byzantine replica faking HARD cannot starve them.
struct Overloaded {
  ReplicaId replica = 0;
  ClientId client = 0;
  std::uint64_t request_id = 0;
  std::uint64_t retry_after_ms = 0;
  std::uint8_t mode = 1;  ///< AdmissionMode: 1 = soft, 2 = hard (never 0)
  crypto::Signature signature;

  std::string payload() const;
};

/// The alternative index is the message's tag byte on the wire
/// (net::MinBftCodec), so this order is a fixed wire contract: append-only.
using MinBftMsg =
    std::variant<Request, Prepare, Commit, Reply, Checkpoint, ReqViewChange,
                 ViewChange, NewView, StateRequest, StateResponse,
                 FetchPrepare, RelayedPrepare, Overloaded>;

/// The deterministic simulated-time backend (golden traces, model checking).
using MinBftNet = net::SimNetwork<MinBftMsg>;

/// What replicas and clients actually program against: either backend —
/// SimNetwork above or net::AsyncRuntime (real threads, wall-clock timers) —
/// satisfies this interface, so the protocol logic is written once.
using MinBftTransport = net::Transport<MinBftMsg>;

}  // namespace tolerance::consensus
