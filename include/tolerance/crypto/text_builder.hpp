// In-place builder for the protocol's signed strings and digest preimages
// ("req|<client>|<id>|<op>", "usig|<replica>|<epoch>|<counter>|<hex>", ...).
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "tolerance/crypto/sha256.hpp"

namespace tolerance::crypto {

/// Builds a signed string or digest preimage in one reserved buffer:
/// decimal numbers and digest hex are written in place, never through a
/// temporary string.  Every field is an unsigned integer, text, a single
/// separator char or a digest; any other integral type is rejected at
/// compile time, since converting it would write a raw byte (a signed
/// number) or no agreed form (a bool).
class TextBuilder {
 public:
  explicit TextBuilder(std::size_t capacity) { out_.reserve(capacity); }

  TextBuilder& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  /// A separator: exactly a char, never an integer that converts to one.
  TextBuilder& operator<<(std::same_as<char> auto c) {
    out_.push_back(c);
    return *this;
  }
  /// Decimal digits, as std::to_string writes them.
  template <std::unsigned_integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  TextBuilder& operator<<(T v) {
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
    out_.append(digits, end);
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, char> &&
             (std::signed_integral<T> || std::same_as<T, bool>))
  TextBuilder& operator<<(T) = delete;
  /// Lowercase hex.
  TextBuilder& operator<<(const Digest& d) {
    static constexpr char kHex[] = "0123456789abcdef";
    const std::size_t at = out_.size();
    out_.resize(at + 2 * d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      out_[at + 2 * i] = kHex[d[i] >> 4];
      out_[at + 2 * i + 1] = kHex[d[i] & 0xf];
    }
    return *this;
  }

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace tolerance::crypto
