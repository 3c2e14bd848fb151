#include "tolerance/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "sha256_compress.hpp"
#include "tolerance/crypto/text_builder.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tolerance::crypto {
namespace detail {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH (vector names list lanes from the top one down).  Each sha256rnds2
// runs two rounds on the low two lanes of W+K; msg1/msg2 extend the message
// schedule four words at a time: W[t..t+3] = msg2(msg1(W[t-16..],
// W[t-12..]) + W[t-7..t-4], W[t-4..t-1]).
__attribute__((target("sha,sse4.1"))) void compress_sha_extensions(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i kBigEndian =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4] = {};
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i& m = w[j & 3];
      if (j < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)),
            kBigEndian);
      } else {
        const __m128i& m1 = w[(j - 1) & 3];  // W[4j-4 .. 4j-1]
        const __m128i& m2 = w[(j - 2) & 3];  // W[4j-8 .. 4j-5]
        const __m128i& m3 = w[(j - 3) & 3];  // W[4j-12 .. 4j-9]
        m = _mm_sha256msg1_epu32(m, m3);
        m = _mm_add_epi32(m, _mm_alignr_epi8(m1, m2, 4));
        m = _mm_sha256msg2_epu32(m, m1);
      }
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * j)));
      // Rounds 4j, 4j+1 leave the new ABEF in `cdgh` and the new CDGH (the
      // old ABEF) in `abef`; rounds 4j+2, 4j+3 swap them back.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool cpu_has_sha_extensions() { return false; }

#endif

}  // namespace detail

namespace {

/// Chosen on first use rather than during static initialization, so a digest
/// taken from another translation unit's static initializer is safe.
detail::CompressFn active_compress() {
  static const detail::CompressFn compress = []() -> detail::CompressFn {
#if defined(__x86_64__)
    if (detail::cpu_has_sha_extensions()) {
      return detail::compress_sha_extensions;
    }
#endif
    return detail::compress_portable;
  }();
  return compress;
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::process_block(const std::uint8_t* block) {
  active_compress()(state_.data(), block, 1);
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  // Whole blocks are compressed straight from the input.
  const std::size_t blocks = len / buffer_.size();
  if (blocks > 0) {
    active_compress()(state_.data(), data, blocks);
    data += blocks * buffer_.size();
    len -= blocks * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

void Sha256::update(std::string_view s) {
  update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

namespace {

thread_local std::uint64_t t_invocations = 0;

}  // namespace

std::uint64_t Sha256::invocations() { return t_invocations; }

void Sha256::reset_invocations() { t_invocations = 0; }

Digest Sha256::finalize() {
  ++t_invocations;
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to byte 56 of the last block (spilling into one
  // more block when fewer than 9 bytes are left), then the bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

Digest Sha256::hash(const std::vector<std::uint8_t>& bytes) {
  Sha256 h;
  h.update(bytes.data(), bytes.size());
  return h.finalize();
}

std::string to_hex(const Digest& d) {
  return (TextBuilder(2 * d.size()) << d).take();
}

bool digest_equal(const Digest& a, const Digest& b) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace tolerance::crypto
