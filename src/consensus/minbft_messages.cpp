#include "tolerance/consensus/minbft_messages.hpp"

#include <sstream>

#include "tolerance/crypto/text_builder.hpp"

namespace tolerance::consensus {
namespace {

std::string hex(const crypto::Digest& d) { return crypto::to_hex(d); }

/// Room for a decimal uint64 and its separator.
constexpr std::size_t kNum = 21;
constexpr std::size_t kHex = 64;

thread_local DigestMemoStats t_memo_stats;

/// The signed text of a request, with room for `extra` more characters.
crypto::TextBuilder request_text(const Request& r, std::size_t extra) {
  crypto::TextBuilder t(4 + 2 * kNum + r.operation.size() + extra);
  t << "req|" << r.client << '|' << r.request_id << '|' << r.operation;
  return t;
}

}  // namespace

DigestMemoStats digest_memo_stats() { return t_memo_stats; }

void reset_digest_memo_stats() { t_memo_stats = {}; }

namespace detail {

void DigestMemo::note_computed() { ++t_memo_stats.computed; }

void DigestMemo::note_saved() { ++t_memo_stats.saved; }

}  // namespace detail

std::string Request::payload() const { return request_text(*this, 0).take(); }

crypto::Digest Request::digest() const {
  // Binds the signature too, not just the signed payload: this digest keys
  // the verified-request cache and feeds the batch digest, so two requests
  // with the same payload but different signature bytes (e.g. an in-flight
  // corruption of a view-change proof) must never alias — aliasing would let
  // a cached verdict for the genuine request vouch for the corrupted copy,
  // and replicas with different cache contents would then disagree.
  return memo_.get([this] {
    return crypto::Sha256::hash((request_text(*this, 5 + kNum + kHex)
                                 << "|sig|" << signature.signer << '|'
                                 << signature.tag)
                                    .take());
  });
}

crypto::Digest Prepare::batch_digest() const {
  return batch_memo_.get([this] {
    crypto::Sha256 h;
    h.update("batch|");
    for (const Request& r : requests) {
      const crypto::Digest d = r.digest();
      h.update(d.data(), d.size());
    }
    return h.finalize();
  });
}

crypto::Digest Prepare::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash(
        (crypto::TextBuilder(8 + 3 * kNum + kHex)
         << "prepare|" << view << '|' << seq << '|' << requests.size() << '|'
         << batch_digest())
            .take());
  });
}

crypto::Digest Commit::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash(
        (crypto::TextBuilder(7 + 5 * kNum + kHex)
         << "commit|" << view << '|' << seq << '|' << replica << '|'
         << batch_digest << '|' << leader_ui.replica << ':'
         << leader_ui.counter)
            .take());
  });
}

std::string Reply::payload() const {
  return (crypto::TextBuilder(6 + 3 * kNum + result.size())
          << "reply|" << replica << '|' << client << '|' << request_id << '|'
          << result)
      .take();
}

crypto::Digest Checkpoint::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash(
        (crypto::TextBuilder(11 + 2 * kNum + kHex)
         << "checkpoint|" << replica << '|' << last_executed << '|'
         << state_digest)
            .take());
  });
}

std::string ReqViewChange::payload() const {
  std::ostringstream os;
  os << "reqviewchange|" << replica << '|' << from_view << '|' << to_view;
  return os.str();
}

std::string Overloaded::payload() const {
  std::ostringstream os;
  os << "overloaded|" << replica << '|' << client << '|' << request_id << '|'
     << retry_after_ms << '|' << static_cast<unsigned>(mode);
  return os.str();
}

std::string StateResponse::payload() const {
  std::ostringstream os;
  os << "stateresponse|" << replica << '|' << last_executed << '|'
     << prefix_ops << '|' << hex(state_digest) << '|' << anchor_seq << '|'
     << anchor_ops << '|' << hex(anchor_digest);
  return os.str();
}

crypto::Digest ViewChange::body_digest() const {
  return body_memo_.get([this] {
    std::ostringstream os;
    os << "viewchange|" << replica << '|' << to_view << '|' << stable_seq
       << '|' << checkpoint_cert.size() << '|' << prepared.size();
    for (const Checkpoint& c : checkpoint_cert) {
      os << '|' << c.replica << ':' << c.last_executed << ':'
         << hex(c.state_digest) << ':' << c.ui.replica << ':' << c.ui.epoch
         << ':' << c.ui.counter << ':' << hex(c.ui.certificate);
    }
    // Bind every field the view-change reproposal selection keys on — the
    // prepare's view, its leader UI, and (through the batch digest, which
    // folds in signature-binding request digests) the full request contents.
    // A relaying Byzantine leader who corrupts any of them in flight breaks
    // the proof sender's USIG certificate instead of steering honest
    // replicas' assemble_reproposals toward a null batch.
    for (const PreparedProof& p : prepared) {
      os << '|' << p.prepare.view << ':' << p.prepare.seq << ':'
         << hex(p.prepare.batch_digest()) << ':' << p.prepare.ui.replica
         << ':' << p.prepare.ui.epoch << ':' << p.prepare.ui.counter << ':'
         << hex(p.prepare.ui.certificate);
    }
    return crypto::Sha256::hash(os.str());
  });
}

crypto::Digest NewView::body_digest() const {
  return body_memo_.get([this] {
    std::ostringstream os;
    os << "newview|" << leader << '|' << view << '|' << proofs.size() << '|'
       << reproposed.size();
    for (const Prepare& p : reproposed) {
      os << '|' << p.seq << ':' << hex(p.batch_digest());
    }
    return crypto::Sha256::hash(os.str());
  });
}

}  // namespace tolerance::consensus
