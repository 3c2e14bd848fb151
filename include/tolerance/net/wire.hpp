// Compact binary wire format.
//
// The async runtime ships bytes between per-node event loops, not shared
// C++ objects: every message is serialized once at the sender and decoded
// into a private copy at each receiver, which is both what a real network
// stack does and what makes the runtime lane free of cross-thread object
// sharing (digest memos and signature caches stay loop-local).
//
// A message is one tag byte — its MinBftMsg alternative index — followed by
// its fields in the order wire.cpp lists them once for both directions,
// written with the wire_io.hpp primitives.  Decoding is bounds-checked and
// total: any malformed, truncated or out-of-range buffer yields nullopt,
// never undefined behaviour — a prerequisite for feeding the codec from a
// lossy transport.
#pragma once

#include <cstdint>
#include <optional>

#include "tolerance/consensus/minbft_messages.hpp"
#include "tolerance/net/wire_io.hpp"

namespace tolerance::net {

/// Codec for the MinBFT message vocabulary, used by the async runtime lane
/// (AsyncRuntime<consensus::MinBftMsg, MinBftCodec>).
struct MinBftCodec {
  static wire::Bytes encode(const consensus::MinBftMsg& msg);
  /// nullopt on any malformed, truncated, or trailing-garbage buffer.
  static std::optional<consensus::MinBftMsg> decode(const std::uint8_t* data,
                                                    std::size_t len);
  static std::optional<consensus::MinBftMsg> decode(const wire::Bytes& b) {
    return decode(b.data(), b.size());
  }
};

}  // namespace tolerance::net
