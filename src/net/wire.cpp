#include "tolerance/net/wire.hpp"

namespace tolerance::net {
namespace {

using namespace tolerance::consensus;
using wire::Reader;
using wire::Writer;

// Tag byte per MinBftMsg alternative (fixed wire contract: append-only).
enum Tag : std::uint8_t {
  kRequest = 0,
  kPrepare = 1,
  kCommit = 2,
  kReply = 3,
  kCheckpoint = 4,
  kReqViewChange = 5,
  kViewChange = 6,
  kNewView = 7,
  kStateRequest = 8,
  kStateResponse = 9,
  kFetchPrepare = 10,
  kRelayedPrepare = 11,
  kOverloaded = 12,
};

// --- field-group encoders ---------------------------------------------------

void put_signature(Writer& w, const crypto::Signature& s) {
  w.varint(s.signer);
  w.digest(s.tag);
}

void put_ui(Writer& w, const crypto::UniqueIdentifier& ui) {
  w.varint(ui.replica);
  w.varint(ui.epoch);
  w.varint(ui.counter);
  w.digest(ui.certificate);
}

void put_request(Writer& w, const Request& r) {
  w.varint(r.client);
  w.varint(r.request_id);
  w.str(r.operation);
  put_signature(w, r.signature);
}

void put_prepare(Writer& w, const Prepare& p) {
  w.varint(p.view);
  w.varint(p.seq);
  w.varint(p.requests.size());
  for (const Request& r : p.requests) put_request(w, r);
  put_ui(w, p.ui);
}

void put_checkpoint(Writer& w, const Checkpoint& c) {
  w.varint(c.replica);
  w.varint(c.last_executed);
  w.digest(c.state_digest);
  put_ui(w, c.ui);
}

void put_view_change(Writer& w, const ViewChange& vc) {
  w.varint(vc.replica);
  w.varint(vc.to_view);
  w.varint(vc.stable_seq);
  w.varint(vc.checkpoint_cert.size());
  for (const Checkpoint& c : vc.checkpoint_cert) put_checkpoint(w, c);
  w.varint(vc.prepared.size());
  for (const PreparedProof& p : vc.prepared) put_prepare(w, p.prepare);
  put_ui(w, vc.ui);
}

// --- field-group decoders ---------------------------------------------------
//
// Each returns nullopt on the first malformed field; callers propagate.
// Vector counts are sanity-capped by the bytes actually remaining (every
// element costs at least one byte), so a forged huge count cannot trigger a
// pathological allocation before the truncation is noticed.

bool count_plausible(const Reader& r, std::uint64_t count) {
  return count <= r.remaining();
}

std::optional<crypto::Signature> get_signature(Reader& r) {
  const auto signer = r.varint();
  const auto tag = r.digest();
  if (!signer || !tag) return std::nullopt;
  crypto::Signature s;
  s.signer = static_cast<crypto::PrincipalId>(*signer);
  s.tag = *tag;
  return s;
}

std::optional<crypto::UniqueIdentifier> get_ui(Reader& r) {
  const auto replica = r.varint();
  const auto epoch = r.varint();
  const auto counter = r.varint();
  const auto cert = r.digest();
  if (!replica || !epoch || !counter || !cert) return std::nullopt;
  crypto::UniqueIdentifier ui;
  ui.replica = static_cast<crypto::PrincipalId>(*replica);
  ui.epoch = *epoch;
  ui.counter = *counter;
  ui.certificate = *cert;
  return ui;
}

std::optional<Request> get_request(Reader& r) {
  const auto client = r.varint();
  const auto request_id = r.varint();
  auto operation = r.str();
  if (!client || !request_id || !operation) return std::nullopt;
  const auto sig = get_signature(r);
  if (!sig) return std::nullopt;
  Request req;
  req.client = static_cast<ClientId>(*client);
  req.request_id = *request_id;
  req.operation = std::move(*operation);
  req.signature = *sig;
  return req;
}

std::optional<Prepare> get_prepare(Reader& r) {
  const auto view = r.varint();
  const auto seq = r.varint();
  const auto count = r.varint();
  if (!view || !seq || !count || !count_plausible(r, *count)) {
    return std::nullopt;
  }
  Prepare p;
  p.view = *view;
  p.seq = *seq;
  p.requests.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto req = get_request(r);
    if (!req) return std::nullopt;
    p.requests.push_back(std::move(*req));
  }
  const auto ui = get_ui(r);
  if (!ui) return std::nullopt;
  p.ui = *ui;
  return p;
}

std::optional<Checkpoint> get_checkpoint(Reader& r) {
  const auto replica = r.varint();
  const auto last_executed = r.varint();
  const auto state = r.digest();
  if (!replica || !last_executed || !state) return std::nullopt;
  const auto ui = get_ui(r);
  if (!ui) return std::nullopt;
  Checkpoint c;
  c.replica = static_cast<ReplicaId>(*replica);
  c.last_executed = *last_executed;
  c.state_digest = *state;
  c.ui = *ui;
  return c;
}

std::optional<ViewChange> get_view_change(Reader& r) {
  const auto replica = r.varint();
  const auto to_view = r.varint();
  const auto stable_seq = r.varint();
  if (!replica || !to_view || !stable_seq) return std::nullopt;
  ViewChange vc;
  vc.replica = static_cast<ReplicaId>(*replica);
  vc.to_view = *to_view;
  vc.stable_seq = *stable_seq;
  const auto cert_count = r.varint();
  if (!cert_count || !count_plausible(r, *cert_count)) return std::nullopt;
  for (std::uint64_t i = 0; i < *cert_count; ++i) {
    auto c = get_checkpoint(r);
    if (!c) return std::nullopt;
    vc.checkpoint_cert.push_back(std::move(*c));
  }
  const auto prep_count = r.varint();
  if (!prep_count || !count_plausible(r, *prep_count)) return std::nullopt;
  for (std::uint64_t i = 0; i < *prep_count; ++i) {
    auto p = get_prepare(r);
    if (!p) return std::nullopt;
    vc.prepared.push_back(PreparedProof{std::move(*p)});
  }
  const auto ui = get_ui(r);
  if (!ui) return std::nullopt;
  vc.ui = *ui;
  return vc;
}

}  // namespace

wire::Bytes MinBftCodec::encode(const MinBftMsg& msg) {
  Writer w;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Request>) {
          w.u8(kRequest);
          put_request(w, m);
        } else if constexpr (std::is_same_v<T, Prepare>) {
          w.u8(kPrepare);
          put_prepare(w, m);
        } else if constexpr (std::is_same_v<T, Commit>) {
          w.u8(kCommit);
          w.varint(m.view);
          w.varint(m.seq);
          w.varint(m.replica);
          w.digest(m.batch_digest);
          put_ui(w, m.leader_ui);
          put_ui(w, m.ui);
        } else if constexpr (std::is_same_v<T, Reply>) {
          w.u8(kReply);
          w.varint(m.replica);
          w.varint(m.client);
          w.varint(m.request_id);
          w.str(m.result);
          put_signature(w, m.signature);
        } else if constexpr (std::is_same_v<T, Checkpoint>) {
          w.u8(kCheckpoint);
          put_checkpoint(w, m);
        } else if constexpr (std::is_same_v<T, ReqViewChange>) {
          w.u8(kReqViewChange);
          w.varint(m.replica);
          w.varint(m.from_view);
          w.varint(m.to_view);
          put_signature(w, m.signature);
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          w.u8(kViewChange);
          put_view_change(w, m);
        } else if constexpr (std::is_same_v<T, NewView>) {
          w.u8(kNewView);
          w.varint(m.leader);
          w.varint(m.view);
          w.varint(m.proofs.size());
          for (const ViewChange& vc : m.proofs) put_view_change(w, vc);
          w.varint(m.reproposed.size());
          for (const Prepare& p : m.reproposed) put_prepare(w, p);
          put_ui(w, m.ui);
        } else if constexpr (std::is_same_v<T, StateRequest>) {
          w.u8(kStateRequest);
          w.varint(m.replica);
          w.varint(m.ops_executed);
        } else if constexpr (std::is_same_v<T, FetchPrepare>) {
          w.u8(kFetchPrepare);
          w.varint(m.seq);
          w.varint(m.requester);
        } else if constexpr (std::is_same_v<T, RelayedPrepare>) {
          w.u8(kRelayedPrepare);
          put_prepare(w, m.prepare);
        } else if constexpr (std::is_same_v<T, Overloaded>) {
          w.u8(kOverloaded);
          w.varint(m.replica);
          w.varint(m.client);
          w.varint(m.request_id);
          w.varint(m.retry_after_ms);
          w.u8(m.mode);
          put_signature(w, m.signature);
        } else {
          static_assert(std::is_same_v<T, StateResponse>,
                        "unhandled message type");
          w.u8(kStateResponse);
          w.varint(m.replica);
          w.varint(m.last_executed);
          w.varint(m.prefix_ops);
          w.varint(m.log.size());
          for (const std::string& op : m.log) w.str(op);
          w.digest(m.state_digest);
          w.varint(m.anchor_seq);
          w.varint(m.anchor_ops);
          w.digest(m.anchor_digest);
          w.varint(m.anchor_cert.size());
          for (const Checkpoint& c : m.anchor_cert) put_checkpoint(w, c);
          put_signature(w, m.signature);
        }
      },
      msg);
  return w.take();
}

std::optional<MinBftMsg> MinBftCodec::decode(const std::uint8_t* data,
                                             std::size_t len) {
  Reader r(data, len);
  const auto tag = r.u8();
  if (!tag) return std::nullopt;
  std::optional<MinBftMsg> out;
  switch (*tag) {
    case kRequest: {
      auto m = get_request(r);
      if (m) out = std::move(*m);
      break;
    }
    case kPrepare: {
      auto m = get_prepare(r);
      if (m) out = std::move(*m);
      break;
    }
    case kCommit: {
      const auto view = r.varint();
      const auto seq = r.varint();
      const auto replica = r.varint();
      const auto batch = r.digest();
      if (!view || !seq || !replica || !batch) break;
      const auto leader_ui = get_ui(r);
      const auto ui = get_ui(r);
      if (!leader_ui || !ui) break;
      Commit c;
      c.view = *view;
      c.seq = *seq;
      c.replica = static_cast<ReplicaId>(*replica);
      c.batch_digest = *batch;
      c.leader_ui = *leader_ui;
      c.ui = *ui;
      out = std::move(c);
      break;
    }
    case kReply: {
      const auto replica = r.varint();
      const auto client = r.varint();
      const auto request_id = r.varint();
      auto result = r.str();
      if (!replica || !client || !request_id || !result) break;
      const auto sig = get_signature(r);
      if (!sig) break;
      Reply rep;
      rep.replica = static_cast<ReplicaId>(*replica);
      rep.client = static_cast<ClientId>(*client);
      rep.request_id = *request_id;
      rep.result = std::move(*result);
      rep.signature = *sig;
      out = std::move(rep);
      break;
    }
    case kCheckpoint: {
      auto m = get_checkpoint(r);
      if (m) out = std::move(*m);
      break;
    }
    case kReqViewChange: {
      const auto replica = r.varint();
      const auto from_view = r.varint();
      const auto to_view = r.varint();
      if (!replica || !from_view || !to_view) break;
      const auto sig = get_signature(r);
      if (!sig) break;
      ReqViewChange rvc;
      rvc.replica = static_cast<ReplicaId>(*replica);
      rvc.from_view = *from_view;
      rvc.to_view = *to_view;
      rvc.signature = *sig;
      out = std::move(rvc);
      break;
    }
    case kViewChange: {
      auto m = get_view_change(r);
      if (m) out = std::move(*m);
      break;
    }
    case kNewView: {
      const auto leader = r.varint();
      const auto view = r.varint();
      if (!leader || !view) break;
      NewView nv;
      nv.leader = static_cast<ReplicaId>(*leader);
      nv.view = *view;
      const auto proof_count = r.varint();
      if (!proof_count || !count_plausible(r, *proof_count)) break;
      bool ok = true;
      for (std::uint64_t i = 0; i < *proof_count; ++i) {
        auto vc = get_view_change(r);
        if (!vc) {
          ok = false;
          break;
        }
        nv.proofs.push_back(std::move(*vc));
      }
      if (!ok) break;
      const auto prep_count = r.varint();
      if (!prep_count || !count_plausible(r, *prep_count)) break;
      for (std::uint64_t i = 0; i < *prep_count; ++i) {
        auto p = get_prepare(r);
        if (!p) {
          ok = false;
          break;
        }
        nv.reproposed.push_back(std::move(*p));
      }
      if (!ok) break;
      const auto ui = get_ui(r);
      if (!ui) break;
      nv.ui = *ui;
      out = std::move(nv);
      break;
    }
    case kStateRequest: {
      const auto replica = r.varint();
      const auto ops_executed = r.varint();
      if (!replica || !ops_executed) break;
      out = StateRequest{static_cast<ReplicaId>(*replica), *ops_executed};
      break;
    }
    case kFetchPrepare: {
      const auto seq = r.varint();
      const auto requester = r.varint();
      if (!seq || !requester) break;
      out = FetchPrepare{*seq, static_cast<ReplicaId>(*requester)};
      break;
    }
    case kRelayedPrepare: {
      auto p = get_prepare(r);
      if (p) out = RelayedPrepare{std::move(*p)};
      break;
    }
    case kStateResponse: {
      const auto replica = r.varint();
      const auto last_executed = r.varint();
      const auto prefix_ops = r.varint();
      const auto count = r.varint();
      if (!replica || !last_executed || !prefix_ops || !count ||
          !count_plausible(r, *count)) {
        break;
      }
      StateResponse resp;
      resp.replica = static_cast<ReplicaId>(*replica);
      resp.last_executed = *last_executed;
      resp.prefix_ops = *prefix_ops;
      bool ok = true;
      for (std::uint64_t i = 0; i < *count; ++i) {
        auto op = r.str();
        if (!op) {
          ok = false;
          break;
        }
        resp.log.push_back(std::move(*op));
      }
      if (!ok) break;
      const auto state = r.digest();
      if (!state) break;
      const auto anchor_seq = r.varint();
      const auto anchor_ops = r.varint();
      const auto anchor_digest = r.digest();
      const auto cert_count = r.varint();
      if (!anchor_seq || !anchor_ops || !anchor_digest || !cert_count ||
          !count_plausible(r, *cert_count)) {
        break;
      }
      resp.anchor_seq = *anchor_seq;
      resp.anchor_ops = *anchor_ops;
      resp.anchor_digest = *anchor_digest;
      for (std::uint64_t i = 0; i < *cert_count; ++i) {
        auto c = get_checkpoint(r);
        if (!c) {
          ok = false;
          break;
        }
        resp.anchor_cert.push_back(std::move(*c));
      }
      if (!ok) break;
      const auto sig = get_signature(r);
      if (!sig) break;
      resp.state_digest = *state;
      resp.signature = *sig;
      out = std::move(resp);
      break;
    }
    case kOverloaded: {
      const auto replica = r.varint();
      const auto client = r.varint();
      const auto request_id = r.varint();
      const auto retry_after = r.varint();
      const auto mode = r.u8();
      // Strict byte domain: the only modes that reject requests are soft (1)
      // and hard (2); a normal-mode (0) or out-of-range byte is a forgery.
      if (!replica || !client || !request_id || !retry_after || !mode ||
          *mode < 1 || *mode > 2) {
        break;
      }
      const auto sig = get_signature(r);
      if (!sig) break;
      Overloaded ov;
      ov.replica = static_cast<ReplicaId>(*replica);
      ov.client = static_cast<ClientId>(*client);
      ov.request_id = *request_id;
      ov.retry_after_ms = *retry_after;
      ov.mode = *mode;
      ov.signature = *sig;
      out = std::move(ov);
      break;
    }
    default:
      return std::nullopt;
  }
  // Trailing bytes mean the frame was not produced by this codec.
  if (out && !r.done()) return std::nullopt;
  return out;
}

}  // namespace tolerance::net
