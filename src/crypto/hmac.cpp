#include "tolerance/crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace tolerance::crypto {

namespace {

constexpr std::size_t kBlock = 64;

}  // namespace

HmacKey::HmacKey(std::string_view key) {
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, kBlock> ipad{}, opad{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ipad.data(), ipad.size());
  inner_ = inner.state_;
  Sha256 outer;
  outer.update(opad.data(), opad.size());
  outer_ = outer.state_;
}

Digest HmacKey::tag(std::string_view message) const {
  Sha256 inner(inner_, kBlock);
  inner.update(message);
  const Digest inner_digest = inner.finalize();
  Sha256 outer(outer_, kBlock);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finalize();
}

bool HmacKey::verify(std::string_view message, const Digest& tag) const {
  return digest_equal(this->tag(message), tag);
}

Digest hmac_sha256(std::string_view key, std::string_view message) {
  return HmacKey(key).tag(message);
}

bool hmac_verify(std::string_view key, std::string_view message,
                 const Digest& tag) {
  return HmacKey(key).verify(message, tag);
}

}  // namespace tolerance::crypto
