#include "tolerance/net/wire.hpp"

#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace tolerance::net {
namespace {

using namespace tolerance::consensus;

/// The wire layout, listed once: the fields of every MinBftMsg alternative
/// and sub-record, in wire order.  `io` is a FieldWriter when encoding and a
/// FieldReader when decoding, so the two directions cannot drift apart.
/// Changing a list changes the wire (the WireCodec pins catch it).
template <class Io, class M>
void fields(Io& io, M& m) {
  using T = std::remove_const_t<M>;
  if constexpr (std::is_same_v<T, crypto::Signature>) {
    io(m.signer, m.tag);
  } else if constexpr (std::is_same_v<T, crypto::UniqueIdentifier>) {
    io(m.replica, m.epoch, m.counter, m.certificate);
  } else if constexpr (std::is_same_v<T, Request>) {
    io(m.client, m.request_id, m.operation, m.signature);
  } else if constexpr (std::is_same_v<T, Prepare>) {
    io(m.view, m.seq, m.requests, m.ui);
  } else if constexpr (std::is_same_v<T, Commit>) {
    io(m.view, m.seq, m.replica, m.batch_digest, m.leader_ui, m.ui);
  } else if constexpr (std::is_same_v<T, Reply>) {
    io(m.replica, m.client, m.request_id, m.result, m.signature);
  } else if constexpr (std::is_same_v<T, Checkpoint>) {
    io(m.replica, m.last_executed, m.state_digest, m.ui);
  } else if constexpr (std::is_same_v<T, ReqViewChange>) {
    io(m.replica, m.from_view, m.to_view, m.signature);
  } else if constexpr (std::is_same_v<T, PreparedProof> ||
                       std::is_same_v<T, RelayedPrepare>) {
    io(m.prepare);
  } else if constexpr (std::is_same_v<T, ViewChange>) {
    io(m.replica, m.to_view, m.stable_seq, m.checkpoint_cert, m.prepared,
       m.ui);
  } else if constexpr (std::is_same_v<T, NewView>) {
    io(m.leader, m.view, m.proofs, m.reproposed, m.ui);
  } else if constexpr (std::is_same_v<T, StateRequest>) {
    io(m.replica, m.ops_executed);
  } else if constexpr (std::is_same_v<T, StateResponse>) {
    io(m.replica, m.last_executed, m.prefix_ops, m.log, m.state_digest,
       m.anchor_seq, m.anchor_ops, m.anchor_digest, m.anchor_cert,
       m.signature);
  } else if constexpr (std::is_same_v<T, FetchPrepare>) {
    io(m.seq, m.requester);
  } else {
    static_assert(std::is_same_v<T, Overloaded>, "no wire layout for type");
    io(m.replica, m.client, m.request_id, m.retry_after_ms, m.mode,
       m.signature);
  }
}

template <class T>
inline constexpr bool kIsVector = false;
template <class E>
inline constexpr bool kIsVector<std::vector<E>> = true;

// Field kinds: a one-byte integer is a raw byte, any wider unsigned integer
// a varint, strings and vectors carry a varint length, digests are raw,
// and anything else is a record with its own field list.
/// Writes to `Out`: a wire::Writer, or a wire::SizeCounter to size a
/// message.
template <class Out>
class FieldWriter {
 public:
  explicit FieldWriter(Out& w) : w_(w) {}

  template <class... T>
  void operator()(const T&... v) {
    (write(v), ...);
  }

 private:
  template <class T>
  void write(const T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      w_.u8(v);
    } else if constexpr (std::is_unsigned_v<T>) {
      w_.varint(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_same_v<T, crypto::Digest>) {
      w_.digest(v);
    } else if constexpr (kIsVector<T>) {
      w_.varint(v.size());
      for (const auto& e : v) write(e);
    } else {
      fields(*this, v);
    }
  }

  Out& w_;
};

/// Every decode check lives here.  The first malformed field clears ok()
/// and every later read is a no-op, so a message decodes whole or not at
/// all.  Vector counts are capped by the bytes remaining (each element
/// costs at least one byte), so a forged huge count cannot trigger a
/// pathological allocation; a varint too wide for its field is rejected,
/// never truncated.
class FieldReader {
 public:
  explicit FieldReader(wire::Reader& r) : r_(r) {}

  bool ok() const { return ok_; }

  template <class... T>
  void operator()(T&... v) {
    (read(v), ...);
  }

 private:
  template <class T>
  void read(T& v) {
    if (!ok_) return;
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      accept(r_.u8(), v);
    } else if constexpr (std::is_unsigned_v<T>) {
      const auto x = r_.varint();
      ok_ = x && *x <= std::numeric_limits<T>::max();
      if (ok_) v = static_cast<T>(*x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      accept(r_.str(), v);
    } else if constexpr (std::is_same_v<T, crypto::Digest>) {
      accept(r_.digest(), v);
    } else if constexpr (kIsVector<T>) {
      const auto count = r_.varint();
      ok_ = count && *count <= r_.remaining();
      for (std::uint64_t i = 0; ok_ && i < *count; ++i) {
        read(v.emplace_back());
      }
    } else {
      fields(*this, v);
    }
  }

  template <class T>
  void accept(std::optional<T>&& x, T& v) {
    ok_ = x.has_value();
    if (ok_) v = std::move(*x);
  }

  wire::Reader& r_;
  bool ok_ = true;
};

/// Default-constructs the alternative whose index is `tag`; false if none.
bool emplace_alternative(MinBftMsg& msg, std::uint8_t tag) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return ((tag == I && (msg.emplace<I>(), true)) || ...);
  }(std::make_index_sequence<std::variant_size_v<MinBftMsg>>{});
}

}  // namespace

wire::Bytes MinBftCodec::encode(const MinBftMsg& msg) {
  wire::SizeCounter size;
  FieldWriter<wire::SizeCounter> count(size);
  std::visit([&](const auto& m) { fields(count, m); }, msg);
  wire::Writer w;
  w.reserve(1 + size.size());
  w.u8(static_cast<std::uint8_t>(msg.index()));
  FieldWriter<wire::Writer> out(w);
  std::visit([&](const auto& m) { fields(out, m); }, msg);
  return w.take();
}

std::optional<MinBftMsg> MinBftCodec::decode(const std::uint8_t* data,
                                             std::size_t len) {
  wire::Reader r(data, len);
  const auto tag = r.u8();
  MinBftMsg msg;
  if (!tag || !emplace_alternative(msg, *tag)) return std::nullopt;
  FieldReader in(r);
  std::visit([&](auto& m) { fields(in, m); }, msg);
  // Trailing bytes mean the frame was not produced by this codec.
  if (!in.ok() || !r.done()) return std::nullopt;
  // Strict byte domain: the only modes that reject requests are soft (1)
  // and hard (2); a normal-mode (0) or out-of-range byte is a forgery.
  if (const auto* ov = std::get_if<Overloaded>(&msg);
      ov && (ov->mode < 1 || ov->mode > 2)) {
    return std::nullopt;
  }
  return msg;
}

}  // namespace tolerance::net
