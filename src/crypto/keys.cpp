#include "tolerance/crypto/keys.hpp"

#include <sstream>

namespace tolerance::crypto {

std::string KeyRegistry::register_principal(PrincipalId id,
                                            std::uint64_t seed) {
  // Derive a secret deterministically from (id, seed) through the hash; the
  // attacker model never has access to the registry, so predictability across
  // runs is a feature (reproducible tests), not a weakness.
  std::ostringstream material;
  material << "tolerance-key|" << id << '|' << seed;
  const Digest d = Sha256::hash(material.str());
  std::string secret(reinterpret_cast<const char*>(d.data()), d.size());
  const HmacKey key(secret);
  // Same (id, seed) => same key: return without touching the map.  This is
  // what makes a crash-restart's re-registration safe in the wall-clock
  // lane, where other nodes' event loops read this entry concurrently —
  // an identical re-assignment would still be a data race.
  const auto it = keys_.find(id);
  if (it != keys_.end() && it->second == key) return secret;
  keys_.insert_or_assign(id, key);
  return secret;
}

bool KeyRegistry::known(PrincipalId id) const {
  return keys_.find(id) != keys_.end();
}

bool KeyRegistry::verify(std::string_view message,
                         const Signature& sig) const {
  const auto it = keys_.find(sig.signer);
  if (it == keys_.end()) return false;
  return it->second.verify(message, sig.tag);
}

}  // namespace tolerance::crypto
