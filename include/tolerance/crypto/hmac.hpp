// HMAC-SHA256 (RFC 2104).  Used for message authentication on network links
// and as the "signature" primitive: under the paper's threat model the
// attacker cannot forge signatures (Prop. 1(a)), which a keyed MAC with a
// registry of pre-shared keys models faithfully in a closed system.
#pragma once

#include <string_view>

#include "tolerance/crypto/sha256.hpp"

namespace tolerance::crypto {

/// An HMAC key with its ipad and opad blocks already compressed, so a tag
/// costs the message's blocks plus one outer block.  Every holder of a
/// long-lived key (signers, the key registry, USIGs, link keys) keeps one.
class HmacKey {
 public:
  explicit HmacKey(std::string_view key);

  Digest tag(std::string_view message) const;
  /// Constant-time check of `tag` against tag(message).
  bool verify(std::string_view message, const Digest& tag) const;

  bool operator==(const HmacKey& other) const = default;

 private:
  Sha256::State inner_;  ///< chaining state after the ipad block
  Sha256::State outer_;  ///< chaining state after the opad block
};

/// One-shot form: HmacKey(key).tag(message).
Digest hmac_sha256(std::string_view key, std::string_view message);

/// Convenience: tag equality check (constant time).
bool hmac_verify(std::string_view key, std::string_view message,
                 const Digest& tag);

}  // namespace tolerance::crypto
