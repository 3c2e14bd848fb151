// Key registry and signature facade.
//
// The paper assumes an authenticated network and unforgeable digital
// signatures (Prop. 1(a)-(b)); the testbed uses RSA-1024 (Table 8).  In this
// closed-system reproduction every principal registers a secret key with a
// trusted registry, and Sign/Verify are HMACs under the principal's key.
// This preserves the protocol-visible semantics: only the holder of node i's
// key can produce a tag that verifies for node i.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "tolerance/crypto/hmac.hpp"

namespace tolerance::crypto {

using PrincipalId = std::uint32_t;

struct Signature {
  PrincipalId signer = 0;
  Digest tag{};
  bool operator==(const Signature& other) const {
    return signer == other.signer && digest_equal(tag, other.tag);
  }
};

class KeyRegistry {
 public:
  /// Generates and stores a fresh secret for the principal; returns it so a
  /// Signer can be constructed.  Re-registering with a different seed
  /// rotates the key; re-registering with the same seed is a no-op (no
  /// write), so a restarted node can re-register while other threads read.
  /// Only one thread may register at a time.
  std::string register_principal(PrincipalId id, std::uint64_t seed);

  bool known(PrincipalId id) const;

  /// Verify that `sig` is a valid signature by `sig.signer` over `message`.
  bool verify(std::string_view message, const Signature& sig) const;

  /// Simulated per-operation CPU costs (seconds), calibrated to RSA-1024 on
  /// the paper's hardware; consumed by the simulated-time consensus bench
  /// (Fig. 10).
  static constexpr double kSignCost = 1.0e-3;
  static constexpr double kVerifyCost = 6.0e-5;

 private:
  std::unordered_map<PrincipalId, HmacKey> keys_;
};

/// Holds a principal's key and signs messages with it.
class Signer {
 public:
  Signer(PrincipalId id, std::string_view secret) : id_(id), key_(secret) {}

  PrincipalId id() const { return id_; }

  Signature sign(std::string_view message) const {
    return Signature{id_, key_.tag(message)};
  }

 private:
  PrincipalId id_;
  HmacKey key_;
};

}  // namespace tolerance::crypto
