#include "tolerance/crypto/usig.hpp"

#include <string>

#include "tolerance/crypto/text_builder.hpp"

namespace tolerance::crypto {

std::string Usig::certificate_payload(PrincipalId replica,
                                      std::uint64_t epoch,
                                      std::uint64_t counter,
                                      const Digest& digest) {
  return (TextBuilder(5 + 3 * 21 + 64) << "usig|" << replica << '|' << epoch
                                      << '|' << counter << '|' << digest)
      .take();
}

UniqueIdentifier Usig::create(const Digest& message_digest) {
  // The counter is strictly monotonic and never reused — the tamperproof
  // property that prevents equivocation.
  ++counter_;
  UniqueIdentifier ui;
  ui.replica = replica_;
  ui.epoch = epoch_;
  ui.counter = counter_;
  ui.certificate =
      key_.tag(certificate_payload(replica_, epoch_, counter_, message_digest));
  return ui;
}

bool Usig::verify(const KeyRegistry& registry, const Digest& message_digest,
                  const UniqueIdentifier& ui) {
  // The registry models the trusted verification path of the USIG service:
  // certificates are HMACs under the issuing replica's USIG secret, which is
  // registered in its own key namespace.
  const Signature sig{ui.replica + kUsigPrincipalOffset, ui.certificate};
  return registry.verify(
      certificate_payload(ui.replica, ui.epoch, ui.counter, message_digest),
      sig);
}

}  // namespace tolerance::crypto
