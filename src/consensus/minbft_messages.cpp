#include "tolerance/consensus/minbft_messages.hpp"

#include <atomic>
#include <sstream>

namespace tolerance::consensus {
namespace {

std::string hex(const crypto::Digest& d) { return crypto::to_hex(d); }

std::atomic<std::uint64_t> g_memo_computed{0};
std::atomic<std::uint64_t> g_memo_saved{0};

}  // namespace

DigestMemoStats digest_memo_stats() {
  return {g_memo_computed.load(std::memory_order_relaxed),
          g_memo_saved.load(std::memory_order_relaxed)};
}

void reset_digest_memo_stats() {
  g_memo_computed.store(0, std::memory_order_relaxed);
  g_memo_saved.store(0, std::memory_order_relaxed);
}

namespace detail {

void DigestMemo::note_computed() {
  g_memo_computed.fetch_add(1, std::memory_order_relaxed);
}

void DigestMemo::note_saved() {
  g_memo_saved.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

std::string Request::payload() const {
  return "req|" + std::to_string(client) + '|' + std::to_string(request_id) +
         '|' + operation;
}

crypto::Digest Request::digest() const {
  // Binds the signature too, not just the signed payload: this digest keys
  // the verified-request cache and feeds the batch digest, so two requests
  // with the same payload but different signature bytes (e.g. an in-flight
  // corruption of a view-change proof) must never alias — aliasing would let
  // a cached verdict for the genuine request vouch for the corrupted copy,
  // and replicas with different cache contents would then disagree.
  return memo_.get([this] {
    crypto::Sha256 h;
    h.update(payload());
    h.update("|sig|" + std::to_string(signature.signer) + '|' +
             hex(signature.tag));
    return h.finalize();
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
    return crypto::Sha256::hash("prepare|" + std::to_string(view) + '|' +
                                std::to_string(seq) + '|' +
                                std::to_string(requests.size()) + '|' +
                                hex(batch_digest()));
  });
}

crypto::Digest Commit::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash(
        "commit|" + std::to_string(view) + '|' + std::to_string(seq) + '|' +
        std::to_string(replica) + '|' + hex(batch_digest) + '|' +
        std::to_string(leader_ui.replica) + ':' +
        std::to_string(leader_ui.counter));
  });
}

std::string Reply::payload() const {
  return "reply|" + std::to_string(replica) + '|' + std::to_string(client) +
         '|' + std::to_string(request_id) + '|' + result;
}

crypto::Digest Checkpoint::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash("checkpoint|" + std::to_string(replica) +
                                '|' + std::to_string(last_executed) + '|' +
                                hex(state_digest));
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
