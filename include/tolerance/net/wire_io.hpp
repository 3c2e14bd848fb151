// Byte-level primitives of the wire format: the one LEB128 writer and the
// one bounds-checked reader.  Both the MinBFT message codec (wire.hpp) and
// AsyncRuntime's bundle framing (async_runtime.hpp) are written on them;
// this header carries no message vocabulary, so the generic runtime can use
// it without depending on any protocol.
//
// Encoding: unsigned LEB128 varints for integers, length-prefixed byte
// strings, raw 32-byte digests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tolerance/crypto/sha256.hpp"

namespace tolerance::net::wire {

using Bytes = std::vector<std::uint8_t>;

/// The encoding rules, written once over a byte sink: `Sink` supplies the
/// raw appends u8() and bytes(), and everything above a raw byte (varints,
/// length-prefixed strings, digests) is defined here, so a message sized by
/// SizeCounter is exactly as long as Writer writes it.
template <class Sink>
class Encoder {
 public:
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      sink().u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    sink().u8(static_cast<std::uint8_t>(v));
  }
  void str(std::string_view s) {
    varint(s.size());
    sink().bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void digest(const crypto::Digest& d) { sink().bytes(d.data(), d.size()); }

 private:
  Sink& sink() { return static_cast<Sink&>(*this); }
};

/// Append-only byte-buffer writer (unsigned LEB128 varints).
class Writer : public Encoder<Writer> {
 public:
  void reserve(std::size_t n) { out_.reserve(n); }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void bytes(const std::uint8_t* data, std::size_t len) {
    out_.insert(out_.end(), data, data + len);
  }

  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Counts the bytes a Writer would append, storing none: an encoder runs
/// its field walk through one first to allocate the output once.
class SizeCounter : public Encoder<SizeCounter> {
 public:
  void u8(std::uint8_t) { ++size_; }
  void bytes(const std::uint8_t*, std::size_t len) { size_ += len; }

  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Bounds-checked reader over a byte span.  Every accessor returns nullopt
/// past the end (or on varint overflow) instead of reading out of bounds.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}

  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

  std::optional<std::uint8_t> u8() {
    if (pos_ >= len_) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint64_t> varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const auto byte = u8();
      if (!byte) return std::nullopt;
      // The tenth byte holds bit 63 only; more would be silently dropped.
      if (shift == 63 && *byte > 1) return std::nullopt;
      v |= static_cast<std::uint64_t>(*byte & 0x7f) << shift;
      if ((*byte & 0x80) == 0) return v;
    }
    return std::nullopt;  // > 10 continuation bytes: malformed
  }
  /// The next `len` bytes, in place (no copy).
  std::optional<std::span<const std::uint8_t>> bytes(std::uint64_t len) {
    if (len > remaining()) return std::nullopt;
    const std::span<const std::uint8_t> out(data_ + pos_,
                                            static_cast<std::size_t>(len));
    pos_ += out.size();
    return out;
  }
  std::optional<std::string> str() {
    const auto len = varint();
    const auto b = len ? bytes(*len) : std::nullopt;
    if (!b) return std::nullopt;
    return std::string(reinterpret_cast<const char*>(b->data()), b->size());
  }
  std::optional<crypto::Digest> digest() {
    crypto::Digest d{};
    const auto b = bytes(d.size());
    if (!b) return std::nullopt;
    std::copy(b->begin(), b->end(), d.begin());
    return d;
  }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace tolerance::net::wire
