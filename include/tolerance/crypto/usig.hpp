// USIG — Unique Sequential Identifier Generator (Veronese et al.), the
// trusted component that lets MinBFT tolerate f = (N-1)/2 hybrid faults.
//
// The USIG lives in the privileged domain (provided by the virtualization
// layer in TOLERANCE, §IV / Appendix G): even on a compromised replica it
// keeps assigning strictly monotonic counter values and certifying them,
// which prevents equivocation — a replica cannot assign the same counter to
// two different messages.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "tolerance/crypto/hmac.hpp"
#include "tolerance/crypto/keys.hpp"
#include "tolerance/crypto/sha256.hpp"

namespace tolerance::crypto {

/// A unique identifier: (epoch, counter, certificate) bound to a message
/// digest.  The epoch is bumped by the privileged domain each time the
/// replica's container is replaced (recovery, Fig. 17d): the fresh USIG
/// restarts its counter at zero, and receivers order identifiers by
/// (epoch, counter) lexicographically, so a recovered replica's messages are
/// accepted again while anything replayed from an earlier life is not.
struct UniqueIdentifier {
  PrincipalId replica = 0;
  std::uint64_t epoch = 0;
  std::uint64_t counter = 0;
  Digest certificate{};
};

/// USIG secrets live in a separate key namespace from replica signing keys;
/// principal id of replica r's USIG = r + kUsigPrincipalOffset.
inline constexpr PrincipalId kUsigPrincipalOffset = 1000000u;

class Usig {
 public:
  /// `epoch` identifies this USIG instance's lifetime; the virtualization
  /// layer increments it when it re-instantiates a replica's trusted
  /// component (recover/join), which is what lets the fresh counter sequence
  /// supersede the old one at verifiers.
  Usig(PrincipalId replica, std::string_view secret, std::uint64_t epoch = 0)
      : replica_(replica), key_(secret), epoch_(epoch) {}

  PrincipalId replica() const { return replica_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t last_counter() const { return counter_; }

  /// createUI: assign the next counter value to the digest and certify it.
  UniqueIdentifier create(const Digest& message_digest);

  /// verifyUI: check the certificate against the registry-managed secret of
  /// the issuing replica.  Stateless: callers enforce counter contiguity.
  static bool verify(const KeyRegistry& registry, const Digest& message_digest,
                     const UniqueIdentifier& ui);

 private:
  static std::string certificate_payload(PrincipalId replica,
                                         std::uint64_t epoch,
                                         std::uint64_t counter,
                                         const Digest& digest);

  PrincipalId replica_;
  HmacKey key_;
  std::uint64_t epoch_ = 0;
  std::uint64_t counter_ = 0;
};

/// Verification-result cache keyed by (replica, epoch, counter).  A counter
/// value can be bound to only one message (the USIG property), so once a
/// certificate over (counter, digest) has been checked, retransmits and
/// view-change proof re-checks can reuse the verdict instead of recomputing
/// the HMAC — the "pipelined verification" half of the batched consensus
/// path.  An entry only hits when digest AND certificate match what was
/// verified, so a replayed counter with different content always misses.
///
/// Deterministic bounded memory: entries are evicted in insertion order once
/// `capacity` is exceeded.  Byzantine replicas choose the identifiers, so
/// the table hashes them through `hash_seed`, which its owner keeps private.
/// Not thread-safe; each replica owns one.
class UsigVerifyCache {
 public:
  explicit UsigVerifyCache(std::size_t capacity = 4096,
                           std::uint64_t hash_seed = 0)
      : capacity_(capacity == 0 ? 1 : capacity),
        entries_(0, KeyHash{hash_seed}) {}

  /// Cached verdict for `ui` over `digest`, or nullopt on miss.
  std::optional<bool> lookup(const UniqueIdentifier& ui, const Digest& digest) {
    const auto it = entries_.find(key(ui));
    if (it == entries_.end() || !digest_equal(it->second.digest, digest) ||
        !digest_equal(it->second.certificate, ui.certificate)) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    return it->second.ok;
  }

  void insert(const UniqueIdentifier& ui, const Digest& digest, bool ok) {
    const Key k = key(ui);
    const auto it = entries_.find(k);
    if (it != entries_.end()) {
      // An ok=true entry is canonical — the USIG binds one digest per
      // counter, so the successful verification is the one worth keeping;
      // a later forged retransmit (a miss that re-verified and failed) must
      // not evict it.  A failed entry, though, is replaced by the newest
      // verdict, so the legitimate message claims the slot no matter which
      // arrived first.  The entry keeps its original eviction slot.
      if (!it->second.ok) it->second = Entry{digest, ui.certificate, ok};
      return;
    }
    entries_.emplace(k, Entry{digest, ui.certificate, ok});
    order_.push_back(k);
    while (order_.size() > capacity_) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }

 private:
  using Key = std::tuple<PrincipalId, std::uint64_t, std::uint64_t>;
  struct Entry {
    Digest digest;
    Digest certificate;
    bool ok = false;
  };

  struct KeyHash {
    std::uint64_t seed = 0;
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(seeded_mix(
          seeded_mix(seeded_mix(seed, std::get<0>(k)), std::get<1>(k)),
          std::get<2>(k)));
    }
  };

  static Key key(const UniqueIdentifier& ui) {
    return {ui.replica, ui.epoch, ui.counter};
  }

  std::size_t capacity_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::deque<Key> order_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tolerance::crypto
