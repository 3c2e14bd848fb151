#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/sha256_compress.hpp"
#include "tolerance/crypto/hmac.hpp"
#include "tolerance/crypto/keys.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/crypto/usig.hpp"

namespace tolerance::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, KnownVectors) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  // One million 'a' characters (FIPS 180-4 vector), streamed in chunks that
  // straddle block boundaries and hashed in one call.
  constexpr const char* kMillionA =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()), kMillionA);
  EXPECT_EQ(to_hex(Sha256::hash(std::string(1000000, 'a'))), kMillionA);
}

TEST(Sha256, PaddingBoundaryLengths) {
  // 55 bytes is the longest message whose padding fits one block, 56 the
  // shortest that spills into a second; 63/64 and 119/120 straddle the next
  // block edges.  Expected digests come from an independent implementation.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [length, hex] : cases) {
    EXPECT_EQ(to_hex(Sha256::hash(std::string(length, 'a'))), hex)
        << length << " bytes";
  }
}

// ---------------------------------------------------------------------------
// Compression paths: the portable function is the reference; the SHA
// extensions path must match it bit for bit.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxDifferentialLength = 1100;

// SHA-256 of `message` driven by one compression function: FIPS 180-4
// padding built in a buffer, then every block compressed in a single call.
Digest digest_with(detail::CompressFn compress,
                   const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> padded(message);
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = message.size() * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Digest out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng,
                                       std::size_t length) {
  std::vector<std::uint8_t> bytes(length);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Sha256Differential, PortableReferenceMatchesKnownVectors) {
  const auto bytes = [](std::string_view s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
  };
  EXPECT_EQ(to_hex(digest_with(detail::compress_portable, bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(digest_with(detail::compress_portable, bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Differential, RandomUpdateSplitsMatchThePortableReference) {
  // The public API runs whichever compression this CPU selected, behind the
  // block buffering of update() and the padding of finalize().
  std::mt19937_64 rng(0x5a256);
  for (std::size_t length = 0; length <= kMaxDifferentialLength; ++length) {
    const auto message = random_bytes(rng, length);
    Sha256 h;
    std::size_t pos = 0;
    while (pos < length) {
      // Pieces of 0..199 bytes: empty updates, partial blocks, and runs of
      // whole blocks compressed straight from the input.
      const std::size_t take =
          std::min<std::size_t>(length - pos, rng() % 200);
      h.update(message.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(to_hex(h.finalize()),
              to_hex(digest_with(detail::compress_portable, message)))
        << length << " bytes";
  }
}

TEST(Sha256Differential, ShaExtensionsMatchPortableCompression) {
#if defined(__x86_64__)
  if (!detail::cpu_has_sha_extensions()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions (CPUID leaf 7 EBX bit 29), "
                    "SSSE3 or SSE4.1";
  }
  std::mt19937_64 rng(0x5a257);
  for (std::size_t length = 0; length <= kMaxDifferentialLength; ++length) {
    const auto message = random_bytes(rng, length);
    ASSERT_EQ(to_hex(digest_with(detail::compress_sha_extensions, message)),
              to_hex(digest_with(detail::compress_portable, message)))
        << length << " bytes";
  }
  // Arbitrary chaining states, and runs of blocks in one call against the
  // same blocks one call at a time.
  for (std::size_t blocks = 1; blocks <= 20; ++blocks) {
    const auto data = random_bytes(rng, 64 * blocks);
    std::uint32_t hw[8];
    for (auto& word : hw) word = static_cast<std::uint32_t>(rng());
    std::uint32_t sw[8];
    std::copy(std::begin(hw), std::end(hw), std::begin(sw));
    detail::compress_sha_extensions(hw, data.data(), blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      detail::compress_portable(sw, data.data() + 64 * b, 1);
    }
    ASSERT_TRUE(std::equal(std::begin(hw), std::end(hw), std::begin(sw)))
        << blocks << " blocks";
  }
#else
  GTEST_SKIP() << "the SHA extensions are an x86-64 CPU feature";
#endif
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(to_hex(h.finalize()), to_hex(Sha256::hash("hello world")));
}

TEST(Sha256, DigestEqualConstantTimeSemantics) {
  const Digest a = Sha256::hash("x");
  const Digest b = Sha256::hash("x");
  const Digest c = Sha256::hash("y");
  EXPECT_TRUE(digest_equal(a, b));
  EXPECT_FALSE(digest_equal(a, c));
}

// RFC 4231 test vectors, through the one-shot form and a keyed state.
TEST(Hmac, Rfc4231Vectors) {
  struct Vector {
    std::string key;
    std::string message;
    const char* tag;
  };
  const std::vector<Vector> vectors = {
      {std::string(20, '\x0b'), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::string(131, '\xaa'),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(to_hex(hmac_sha256(v.key, v.message)), v.tag) << v.message;
    const HmacKey key(v.key);
    EXPECT_EQ(to_hex(key.tag(v.message)), v.tag) << v.message;
    EXPECT_TRUE(key.verify(v.message, key.tag(v.message))) << v.message;
  }
  // One keyed state reused across messages of every length from empty to
  // past three blocks matches the one-shot form each time.
  const HmacKey key("link:1:0>1");
  for (std::size_t len = 0; len <= 200; ++len) {
    const std::string message(len, static_cast<char>('a' + len % 26));
    ASSERT_EQ(to_hex(key.tag(message)),
              to_hex(hmac_sha256("link:1:0>1", message)))
        << "length " << len;
  }
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const std::string key(131, '\xaa');
  EXPECT_EQ(to_hex(hmac_sha256(key,
                               "Test Using Larger Than Block-Size Key - Hash "
                               "Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  const Digest tag = hmac_sha256("key", "msg");
  EXPECT_TRUE(hmac_verify("key", "msg", tag));
  EXPECT_FALSE(hmac_verify("key", "other", tag));
  EXPECT_FALSE(hmac_verify("wrong", "msg", tag));
}

TEST(KeyRegistry, SignatureRoundTrip) {
  KeyRegistry registry;
  const std::string secret = registry.register_principal(7, 42);
  const Signer signer(7, secret);
  const Signature sig = signer.sign("service request");
  EXPECT_TRUE(registry.verify("service request", sig));
  EXPECT_FALSE(registry.verify("tampered request", sig));
}

TEST(KeyRegistry, UnknownSignerRejected) {
  KeyRegistry registry;
  registry.register_principal(1, 42);
  const Signer impostor(2, "made-up-secret");
  const Signature sig = impostor.sign("msg");
  EXPECT_FALSE(registry.verify("msg", sig));
}

TEST(KeyRegistry, ForgeryWithoutKeyFails) {
  // Prop. 1(a): the attacker cannot forge signatures.  A signature produced
  // under a different key must not verify for the claimed principal.
  KeyRegistry registry;
  registry.register_principal(1, 42);
  Signature forged;
  forged.signer = 1;
  forged.tag = hmac_sha256("attacker-guess", "msg");
  EXPECT_FALSE(registry.verify("msg", forged));
}

TEST(KeyRegistry, SharedKeysAcrossThreads) {
  // The wall-clock lane's shape: every event loop verifies through one
  // shared registry while a restarting node re-registers its unchanged
  // key.  That re-registration must write nothing (TSan checks it).
  KeyRegistry registry;
  constexpr int kSigners = 4;
  std::vector<std::string> secrets;
  for (int i = 0; i < kSigners; ++i) {
    secrets.push_back(
        registry.register_principal(static_cast<PrincipalId>(i), 40 + i));
  }
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSigners; ++i) {
    threads.emplace_back([&, i]() {
      const Signer signer(static_cast<PrincipalId>(i), secrets[i]);
      for (int n = 0; n < 500; ++n) {
        const std::string message = "op-" + std::to_string(n);
        const Signature sig = signer.sign(message);
        const int peer = (i + n) % kSigners;
        Signature forged = sig;
        forged.signer = static_cast<PrincipalId>(peer);
        if (!registry.verify(message, sig) ||
            (peer != i && registry.verify(message, forged))) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread reregister([&]() {
    while (!done.load()) {
      for (int i = 0; i < kSigners; ++i) {
        if (registry.register_principal(static_cast<PrincipalId>(i),
                                        40 + i) != secrets[i]) {
          failures.fetch_add(1);
        }
      }
    }
  });
  for (auto& t : threads) t.join();
  done.store(true);
  reregister.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(KeyRegistry, KeyRotation) {
  KeyRegistry registry;
  const std::string old_secret = registry.register_principal(3, 1);
  const Signer old_signer(3, old_secret);
  const Signature old_sig = old_signer.sign("m");
  registry.register_principal(3, 2);  // rotate
  EXPECT_FALSE(registry.verify("m", old_sig));
}

TEST(Sha256, EmptyMessageKnownVector) {
  // The one-shot empty digest is covered by KnownVectors; the incremental
  // interface with zero update() calls and with an explicit zero-length
  // update must both produce the same empty-message digest.
  Sha256 h1;
  EXPECT_EQ(to_hex(h1.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  Sha256 h2;
  h2.update("");
  EXPECT_EQ(to_hex(h2.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Hmac, EmptyKeyAndMessageKnownVectors) {
  // HMAC-SHA256("", "") — standard cross-implementation vector.
  EXPECT_EQ(
      to_hex(hmac_sha256("", "")),
      "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
  // Empty message under a non-empty key.
  EXPECT_EQ(
      to_hex(hmac_sha256("key", "")),
      "5d5d139563c95b5967b9bd9a8c9b233a9dedb45072794cd232dc1b74832607d0");
  EXPECT_TRUE(hmac_verify("", "", hmac_sha256("", "")));
  EXPECT_FALSE(hmac_verify("key", "", hmac_sha256("", "")));
}

TEST(Usig, CountersAreStrictlyMonotonic) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier u1 = usig.create(d);
  const UniqueIdentifier u2 = usig.create(d);
  EXPECT_EQ(u1.counter + 1, u2.counter);
  EXPECT_EQ(usig.last_counter(), u2.counter);
}

TEST(Usig, VerifyBindsCounterAndMessage) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  UniqueIdentifier ui = usig.create(d);
  EXPECT_TRUE(Usig::verify(*registry, d, ui));
  // Different message with the same UI must fail (no equivocation).
  EXPECT_FALSE(Usig::verify(*registry, Sha256::hash("other-op"), ui));
  // Tampering with the counter must fail.
  UniqueIdentifier tampered = ui;
  tampered.counter += 1;
  EXPECT_FALSE(Usig::verify(*registry, d, tampered));
}

TEST(Usig, CannotAssignSameCounterToTwoMessages) {
  // The equivocation-prevention property: after certifying message A at
  // counter k, there is no API to certify message B at counter k; the next
  // certificate necessarily uses counter k+1.
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const UniqueIdentifier ua = usig.create(Sha256::hash("A"));
  const UniqueIdentifier ub = usig.create(Sha256::hash("B"));
  EXPECT_NE(ua.counter, ub.counter);
  // And a hand-crafted certificate for B at A's counter fails verification.
  UniqueIdentifier forged = ua;
  EXPECT_FALSE(Usig::verify(*registry, Sha256::hash("B"), forged));
}

TEST(UsigVerifyCache, CachesVerdictsAndCountsHits) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier ui = usig.create(d);

  UsigVerifyCache cache;
  EXPECT_FALSE(cache.lookup(ui, d).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(ui, d, Usig::verify(*registry, d, ui));
  const auto hit = cache.lookup(ui, d);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(UsigVerifyCache, DifferentContentOrCertificateNeverHits) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier ui = usig.create(d);
  UsigVerifyCache cache;
  cache.insert(ui, d, true);
  // Same counter, different message digest: a replay with new content must
  // go through full verification (and fail there), never ride the cache.
  EXPECT_FALSE(cache.lookup(ui, Sha256::hash("other")).has_value());
  // Same counter and digest but a doctored certificate: also a miss.
  UniqueIdentifier forged = ui;
  forged.certificate[0] ^= 0xff;
  EXPECT_FALSE(cache.lookup(forged, d).has_value());
}

TEST(UsigVerifyCache, LaterVerificationReplacesStaleEntry) {
  // If a forged (digest, certificate) pairing for a counter is verified (and
  // cached as a failure) before the legitimate message arrives, the later
  // successful verification must replace the stale entry — otherwise every
  // retransmit of the real message re-pays the full HMAC check.
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  const UniqueIdentifier ui = usig.create(d);
  UniqueIdentifier forged = ui;
  forged.certificate[0] ^= 0xff;

  UsigVerifyCache cache;
  cache.insert(forged, d, Usig::verify(*registry, d, forged));  // false
  cache.insert(ui, d, Usig::verify(*registry, d, ui));          // true
  const auto hit = cache.lookup(ui, d);
  ASSERT_TRUE(hit.has_value()) << "legitimate verdict was never cached";
  EXPECT_TRUE(*hit);
  // The forged pairing no longer matches the stored entry: a replay of it
  // misses and goes back through full (failing) verification.
  EXPECT_FALSE(cache.lookup(forged, d).has_value());
  // ...but that failing re-verification must not evict the canonical true
  // verdict either (else alternating forged replays would defeat the cache
  // in the other direction: last-writer-wins instead of first-writer-wins).
  cache.insert(forged, d, false);
  const auto still = cache.lookup(ui, d);
  ASSERT_TRUE(still.has_value()) << "forged replay evicted the true verdict";
  EXPECT_TRUE(*still);
}

TEST(UsigVerifyCache, EvictsOldestBeyondCapacity) {
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(5 + kUsigPrincipalOffset, 9);
  Usig usig(5, secret);
  const Digest d = Sha256::hash("op");
  UsigVerifyCache cache(4);
  std::vector<UniqueIdentifier> uis;
  for (int i = 0; i < 6; ++i) {
    uis.push_back(usig.create(d));
    cache.insert(uis.back(), d, true);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.lookup(uis[0], d).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(uis[5], d).has_value());   // retained
}

TEST(Sha256, InvocationCounterTracksDigestComputations) {
  const std::uint64_t before = Sha256::invocations();
  (void)Sha256::hash("abc");
  (void)Sha256::hash("def");
  EXPECT_EQ(Sha256::invocations(), before + 2);
  // The count is this thread's: hashing elsewhere leaves it alone.
  std::uint64_t other = 0;
  std::thread([&other]() {
    const std::uint64_t start = Sha256::invocations();
    for (int i = 0; i < 5; ++i) (void)Sha256::hash("ghi");
    other = Sha256::invocations() - start;
  }).join();
  EXPECT_EQ(other, 5u);
  EXPECT_EQ(Sha256::invocations(), before + 2);
}

TEST(Usig, CounterMonotoneUnderRepeatedSigning) {
  // Even on a compromised replica the USIG keeps assigning strictly
  // contiguous counters; sign many messages and check every certificate.
  auto registry = std::make_shared<KeyRegistry>();
  const std::string secret =
      registry->register_principal(7 + kUsigPrincipalOffset, 123);
  Usig usig(7, secret);
  std::uint64_t prev = usig.last_counter();
  for (int i = 0; i < 1000; ++i) {
    const Digest d = Sha256::hash("op-" + std::to_string(i % 17));
    const UniqueIdentifier ui = usig.create(d);
    EXPECT_EQ(ui.counter, prev + 1) << "counter skipped or repeated at " << i;
    EXPECT_EQ(ui.replica, 7u);
    EXPECT_TRUE(Usig::verify(*registry, d, ui)) << "certificate " << i;
    prev = ui.counter;
  }
  EXPECT_EQ(usig.last_counter(), prev);
}

}  // namespace
}  // namespace tolerance::crypto
