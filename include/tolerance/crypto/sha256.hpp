// SHA-256 (FIPS 180-4), implemented from scratch.  Message digests underpin
// the authenticated channels, "digital signatures" (HMAC-based, valid under
// the paper's no-forgery assumption (a) of Prop. 1) and the USIG certificates
// of MinBFT.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tolerance::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  /// Incremental interface.
  void update(const std::uint8_t* data, std::size_t len);
  void update(std::string_view s);
  Digest finalize();

  /// One-shot helpers.
  static Digest hash(std::string_view s);
  static Digest hash(const std::vector<std::uint8_t>& bytes);

  /// Count of digests this thread has computed (finalize() calls).  Lets
  /// the micro bench put a number on work avoided by memoized message
  /// digests; per thread, so hashing on an event loop touches no shared
  /// cache line.
  static std::uint64_t invocations();
  static void reset_invocations();

 private:
  friend class HmacKey;
  using State = std::array<std::uint32_t, 8>;

  /// Resumes a hash whose first `prefix_len` bytes (a whole number of
  /// blocks) left the chaining state `state`.
  Sha256(const State& state, std::uint64_t prefix_len)
      : state_(state), total_len_(prefix_len) {}

  void process_block(const std::uint8_t* block);

  State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Lowercase hex encoding of a digest.
std::string to_hex(const Digest& d);

/// Constant-time digest comparison.
bool digest_equal(const Digest& a, const Digest& b);

/// Folds `word` into the hash `h` through the 64-bit MurmurHash3
/// finalizer.  Hash containers keyed by values an adversary picks (request
/// digests, Byzantine replicas' USIG identifiers) start `h` at a seed their
/// owner keeps private, so nobody can aim many keys at one bucket.
inline std::uint64_t seeded_mix(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Seeded hash of a digest, for std::unordered_set / unordered_map.
struct DigestHash {
  std::uint64_t seed = 0;
  std::size_t operator()(const Digest& d) const {
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < d.size(); i += 8) {
      std::uint64_t word = 0;
      for (std::size_t j = 0; j < 8; ++j) word = (word << 8) | d[i + j];
      h = seeded_mix(h, word);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace tolerance::crypto
