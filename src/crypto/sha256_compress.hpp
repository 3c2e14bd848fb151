// SHA-256 block compression functions behind crypto::Sha256 (private to the
// library; the differential test and the micro bench include it).
//
// Sha256 picks one of them per process: the x86 SHA-extensions path when the
// CPU reports SHA, SSSE3 and SSE4.1, otherwise the portable one.  Both
// produce bit-identical states; the portable path is the reference the
// hardware path is tested against.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tolerance::crypto::detail {

/// Folds `blocks` consecutive 64-byte blocks into the eight-word `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

/// FIPS 180-4 compression in plain C++: the only path on other CPUs.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks);

#if defined(__x86_64__)
/// Compression on the SHA extensions (sha256rnds2/msg1/msg2).  Call it only
/// when cpu_has_sha_extensions() is true.
void compress_sha_extensions(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks);
#endif

/// CPUID probe: leaf 7 EBX bit 29 (SHA) plus SSSE3 and SSE4.1.  Always false
/// off x86-64.
bool cpu_has_sha_extensions();

}  // namespace tolerance::crypto::detail
