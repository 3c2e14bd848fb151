// The wall-clock transport lane: wire codec totality, AsyncRuntime event
// loops (these suites run under TSan in CI), the runtime MinBFT harness,
// and sim-lane determinism of the NetworkProfile catalog under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "tolerance/consensus/minbft_runtime.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/oracles/minbft_workload.hpp"
#include "tolerance/net/async_runtime.hpp"
#include "tolerance/net/profiles.hpp"
#include "tolerance/net/wire.hpp"
#include "tolerance/util/rng.hpp"
#include "tolerance/util/thread_pool.hpp"

namespace tolerance {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

crypto::Digest test_digest(std::uint8_t fill) {
  crypto::Digest d{};
  d.fill(fill);
  return d;
}

crypto::Signature test_signature(std::uint32_t signer, std::uint8_t fill) {
  crypto::Signature s;
  s.signer = signer;
  s.tag = test_digest(fill);
  return s;
}

crypto::UniqueIdentifier test_ui(std::uint32_t replica, std::uint64_t counter) {
  crypto::UniqueIdentifier ui;
  ui.replica = replica;
  ui.epoch = 2;
  ui.counter = counter;
  ui.certificate = test_digest(static_cast<std::uint8_t>(counter));
  return ui;
}

consensus::Request test_request(std::uint32_t client, std::uint64_t id) {
  consensus::Request r;
  r.client = client;
  r.request_id = id;
  r.operation = "op-" + std::to_string(id);
  r.signature = test_signature(client, 0x11);
  return r;
}

consensus::Prepare test_prepare() {
  consensus::Prepare p;
  p.view = 3;
  p.seq = 17;
  p.requests = {test_request(10001, 5), test_request(10002, 9)};
  p.ui = test_ui(0, 17);
  return p;
}

consensus::Checkpoint test_checkpoint(std::uint32_t replica) {
  consensus::Checkpoint c;
  c.replica = replica;
  c.last_executed = 40;
  c.state_digest = test_digest(0x77);
  c.ui = test_ui(replica, 41);
  return c;
}

consensus::ViewChange test_view_change(std::uint32_t replica) {
  consensus::ViewChange vc;
  vc.replica = replica;
  vc.to_view = 4;
  vc.stable_seq = 40;
  vc.checkpoint_cert = {test_checkpoint(0), test_checkpoint(1)};
  vc.prepared = {consensus::PreparedProof{test_prepare()}};
  vc.ui = test_ui(replica, 50);
  return vc;
}

std::vector<consensus::MinBftMsg> all_message_kinds() {
  std::vector<consensus::MinBftMsg> msgs;
  msgs.emplace_back(test_request(10007, 3));
  msgs.emplace_back(test_prepare());
  consensus::Commit c;
  c.view = 3;
  c.seq = 17;
  c.replica = 2;
  c.batch_digest = test_digest(0x42);
  c.leader_ui = test_ui(0, 17);
  c.ui = test_ui(2, 9);
  msgs.emplace_back(c);
  consensus::Reply rep;
  rep.replica = 1;
  rep.client = 10001;
  rep.request_id = 5;
  rep.result = "ok:5";
  rep.signature = test_signature(1, 0x23);
  msgs.emplace_back(rep);
  msgs.emplace_back(test_checkpoint(2));
  consensus::ReqViewChange rvc;
  rvc.replica = 1;
  rvc.from_view = 3;
  rvc.to_view = 4;
  rvc.signature = test_signature(1, 0x31);
  msgs.emplace_back(rvc);
  msgs.emplace_back(test_view_change(1));
  consensus::NewView nv;
  nv.leader = 1;
  nv.view = 4;
  nv.proofs = {test_view_change(1), test_view_change(2)};
  nv.reproposed = {test_prepare()};
  nv.ui = test_ui(1, 51);
  msgs.emplace_back(nv);
  consensus::StateRequest sr;
  sr.replica = 5;
  sr.ops_executed = 37;  // suffix-capped transfer: nonzero must round-trip
  msgs.emplace_back(sr);
  consensus::StateResponse resp;
  resp.replica = 2;
  resp.last_executed = 40;
  resp.prefix_ops = 37;  // the committed prefix NOT shipped
  resp.log = {"a", "b", "c"};
  resp.state_digest = test_digest(0x55);
  resp.anchor_seq = 39;
  resp.anchor_ops = 38;
  resp.anchor_digest = test_digest(0x56);
  resp.anchor_cert = {test_checkpoint(1), test_checkpoint(3)};
  resp.signature = test_signature(2, 0x66);
  msgs.emplace_back(resp);
  consensus::FetchPrepare fp;
  fp.seq = 17;
  fp.requester = 4;
  msgs.emplace_back(fp);
  msgs.emplace_back(consensus::RelayedPrepare{test_prepare()});
  consensus::Overloaded ov;
  ov.replica = 2;
  ov.client = 10001;
  ov.request_id = 5;
  ov.retry_after_ms = 250;
  ov.mode = 2;  // hard
  ov.signature = test_signature(2, 0x49);
  msgs.emplace_back(ov);
  return msgs;
}

// Messages carry no operator==; a round trip is verified by re-encoding —
// equal bytes mean every field survived (the codec reads all it writes).
TEST(WireCodec, RoundTripsEveryMessageKind) {
  const auto msgs = all_message_kinds();
  EXPECT_EQ(msgs.size(),
            std::variant_size_v<consensus::MinBftMsg>);  // coverage
  for (const auto& msg : msgs) {
    const auto bytes = net::MinBftCodec::encode(msg);
    // encode sizes the message first and allocates once, exactly.
    EXPECT_EQ(bytes.capacity(), bytes.size()) << "variant index "
                                              << msg.index();
    const auto decoded = net::MinBftCodec::decode(bytes);
    ASSERT_TRUE(decoded.has_value()) << "variant index " << msg.index();
    EXPECT_EQ(decoded->index(), msg.index());
    EXPECT_EQ(net::MinBftCodec::encode(*decoded), bytes);
  }
}

// The wire contract itself: length and SHA-256 of every fixture's encoding.
// The round trip above cannot see a layout change made on both sides of the
// codec; these pins can.
TEST(WireCodec, EncodingsArePinned) {
  struct Pin {
    std::size_t size;
    const char* sha256;
  };
  // In variant index order, as all_message_kinds() lists them.
  const Pin pins[] = {
      {43, "7f93b8f135417d69b883f9804d75c326880b1625283e6fe0ddba1f056f8d988f"},
      {123, "54b17073ee37d29df0768fa7a6fda28e86004cb397032dce729116e28f4de824"},
      {106, "dd68803d93f70dc928490ba09708916e5a6f12da7ae07b0ed9eb061b241f27ab"},
      {43, "5063608657ac0575b44895998f9a7748b63c3af7c54ede579ab1c83d51e61a4f"},
      {70, "2cfe72f979dc3dc96e0f30173fa154205d178c71e8a140a43b9f458a215357f1"},
      {37, "9d53fbec7cc2ab4a070fb8ca2e4774ae0beacea2a4bdb2ca1e6a7adaed33a483"},
      {301, "9c710487d66738f62cfc09f7b22155d0a9126306a8999eea075d0a0172b802d0"},
      {762, "4be2e06130bdc213323ecb7f68af18ca06d5109de78b61001e22166d12d95e35"},
      {3, "9a85a152a40c4d8d9ba2240795182900d68ac44739fe7ce30bddd4de6d8742d7"},
      {249, "80c69792b64f27a2997351aee1225f2563b6831a8dd6aa537ed3d6689d1ea200"},
      {3, "e1da5700e024a90bb1397ac130c30ade465931de32dab313ace3d97417471b0d"},
      {123, "9f3968cf8cc435483e15d2b77260dce35575fc32a8511dde051a0449db0fa88a"},
      {41, "fa1aed07dea58c75d4c5eefb8bca6b39f53c7d90d63d4e906b3f4621b26e9d24"},
  };
  const auto msgs = all_message_kinds();
  ASSERT_EQ(msgs.size(), std::size(pins));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto bytes = net::MinBftCodec::encode(msgs[i]);
    EXPECT_EQ(bytes.size(), pins[i].size) << "variant index " << i;
    EXPECT_EQ(crypto::to_hex(crypto::Sha256::hash(bytes)), pins[i].sha256)
        << "variant index " << i;
  }
}

// Decoding must be total: every truncation of a valid buffer, trailing
// garbage, and an unknown tag yield nullopt, never UB or a throw.
TEST(WireCodec, MalformedBuffersReturnNullopt) {
  for (const auto& msg : all_message_kinds()) {
    const auto bytes = net::MinBftCodec::encode(msg);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(net::MinBftCodec::decode(bytes.data(), len).has_value())
          << "truncation to " << len << " of " << bytes.size() << " decoded";
    }
    auto trailing = bytes;
    trailing.push_back(0x00);
    EXPECT_FALSE(net::MinBftCodec::decode(trailing).has_value());
  }
  const net::wire::Bytes bad_tag{0xff, 0x00, 0x00};
  EXPECT_FALSE(net::MinBftCodec::decode(bad_tag).has_value());
  EXPECT_FALSE(net::MinBftCodec::decode(nullptr, 0).has_value());
}

// Seeded bit-flip sweep over every message kind: a corrupted buffer either
// fails to decode or decodes to a value the codec itself stands behind
// (re-encodes and re-decodes cleanly) — never UB, never a throw.  In the
// deployed path HMAC rejects flipped bundles before the codec ever runs;
// this guards the codec itself so that property is defence in depth, not a
// load-bearing single layer.
TEST(WireCodec, SeededBitFlipsNeverBreakDecode) {
  Rng rng(0xb17f11b5u);
  for (const auto& msg : all_message_kinds()) {
    const auto bytes = net::MinBftCodec::encode(msg);
    for (int round = 0; round < 200; ++round) {
      auto flipped = bytes;
      const int flips = rng.uniform_int(1, 3);
      for (int i = 0; i < flips; ++i) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(static_cast<int>(flipped.size())));
        flipped[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      const auto decoded = net::MinBftCodec::decode(flipped);
      if (!decoded.has_value()) continue;
      const auto reencoded = net::MinBftCodec::encode(*decoded);
      const auto redecoded = net::MinBftCodec::decode(reencoded);
      ASSERT_TRUE(redecoded.has_value())
          << "accepted a corruption of variant " << msg.index()
          << " that does not re-decode";
      EXPECT_EQ(net::MinBftCodec::encode(*redecoded), reencoded);
    }
  }
}

// The Overloaded mode byte is a strict enum on the wire: soft (1) and hard
// (2) round-trip, and any other value is rejected — a compromised replica
// must not be able to smuggle a fake "mode" (e.g. NORMAL, which is never
// sent, or garbage) past the codec and into client backoff decisions.
TEST(WireCodec, OverloadedModeByteRoundTripsAndRejectsBadByte) {
  consensus::Overloaded ov;
  ov.replica = 2;
  ov.client = 10001;
  ov.request_id = 5;
  ov.retry_after_ms = 250;
  ov.signature = test_signature(2, 0x49);
  ov.mode = 1;
  const auto soft = net::MinBftCodec::encode(consensus::MinBftMsg{ov});
  ov.mode = 2;
  const auto hard = net::MinBftCodec::encode(consensus::MinBftMsg{ov});
  for (const std::uint8_t mode : {std::uint8_t{1}, std::uint8_t{2}}) {
    const auto decoded = net::MinBftCodec::decode(mode == 1 ? soft : hard);
    ASSERT_TRUE(decoded.has_value());
    const auto* o = std::get_if<consensus::Overloaded>(&*decoded);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->mode, mode);
    EXPECT_EQ(o->retry_after_ms, 250u);
  }
  ASSERT_EQ(soft.size(), hard.size());
  std::size_t mode_at = soft.size();
  for (std::size_t i = 0; i < soft.size(); ++i) {
    if (soft[i] != hard[i]) {
      ASSERT_EQ(mode_at, soft.size()) << "mode must occupy exactly one byte";
      mode_at = i;
    }
  }
  ASSERT_LT(mode_at, soft.size());
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{3},
                                 std::uint8_t{0xff}}) {
    auto forged = hard;
    forged[mode_at] = bad;
    EXPECT_FALSE(net::MinBftCodec::decode(forged).has_value())
        << "mode byte " << static_cast<int>(bad) << " decoded";
  }
}

// A forged length prefix must not trigger a huge allocation: counts are
// checked against the bytes actually remaining.
TEST(WireCodec, ForgedCountIsRejectedWithoutAllocating) {
  net::wire::Writer w;
  w.u8(1);  // Prepare tag
  w.varint(3);  // view
  w.varint(17);  // seq
  w.varint(0xffffffffff);  // request count: absurd
  const auto bytes = w.take();
  EXPECT_FALSE(net::MinBftCodec::decode(bytes).has_value());
}

// A field does not silently truncate a wider varint: a Commit whose 32-bit
// replica id is 2^32 is rejected instead of decoding as replica 0, and a
// ten-byte varint above 2^64 - 1 is rejected instead of losing its top bits.
TEST(WireCodec, NarrowFieldOverflowIsRejected) {
  consensus::Commit c;
  c.view = 3;
  c.seq = 17;
  c.replica = 2;
  c.batch_digest = test_digest(0x42);
  c.leader_ui = test_ui(0, 17);
  c.ui = test_ui(2, 9);
  const auto bytes = net::MinBftCodec::encode(consensus::MinBftMsg{c});
  ASSERT_TRUE(net::MinBftCodec::decode(bytes).has_value());
  // tag, view (1 byte), seq (1 byte), then the replica varint (1 byte).
  ASSERT_EQ(bytes[3], 2);
  net::wire::Writer overflow;
  overflow.varint(std::uint64_t{1} << 32);
  const auto wide = overflow.take();
  auto narrow = bytes;
  narrow.erase(narrow.begin() + 3);
  narrow.insert(narrow.begin() + 3, wide.begin(), wide.end());
  EXPECT_FALSE(net::MinBftCodec::decode(narrow).has_value());

  net::wire::Writer max;
  max.varint(~std::uint64_t{0});  // nine 0xff bytes, then 0x01
  const auto view_max = max.take();
  ASSERT_EQ(view_max.size(), 10u);
  ASSERT_EQ(view_max.back(), 1);
  auto at_max = bytes;
  at_max.erase(at_max.begin() + 1);  // the view varint (1 byte)
  at_max.insert(at_max.begin() + 1, view_max.begin(), view_max.end());
  const auto decoded = net::MinBftCodec::decode(at_max);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<consensus::Commit>(*decoded).view, ~std::uint64_t{0});
  at_max[10] = 0x03;  // tenth byte: bits 63 and 64
  EXPECT_FALSE(net::MinBftCodec::decode(at_max).has_value());
}

// ---------------------------------------------------------------------------
// AsyncRuntime
// ---------------------------------------------------------------------------

struct StringCodec {
  static net::wire::Bytes encode(const std::string& s) {
    net::wire::Writer w;
    w.str(s);
    return w.take();
  }
  static std::optional<std::string> decode(const std::uint8_t* data,
                                           std::size_t len) {
    net::wire::Reader r(data, len);
    auto s = r.str();
    if (!s || !r.done()) return std::nullopt;
    return s;
  }
};

using StringRuntime = net::AsyncRuntime<std::string, StringCodec>;

net::LinkConfig instant_link() {
  net::LinkConfig cfg;
  cfg.base_delay = 0.0;
  cfg.jitter = 0.0;
  cfg.loss = 0.0;
  return cfg;
}

StringRuntime::Options instant_options() {
  StringRuntime::Options o;
  o.replica_link = instant_link();
  o.client_link = instant_link();
  return o;
}

/// Spin-wait (bounded) until `cond` holds — the runtime delivers on pool
/// threads, so tests wait rather than step a clock.
template <class Cond>
bool eventually(Cond&& cond, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

TEST(AsyncRuntime, DeliversAcrossEventLoops) {
  util::ThreadPool pool(4);
  StringRuntime rt(pool, instant_options());
  std::atomic<int> pongs{0};
  rt.register_host(1, [&](net::NodeId from, const std::string& m) {
    if (m == "ping") rt.send(1, from, "pong");
  });
  rt.register_host(2, [&](net::NodeId, const std::string& m) {
    if (m == "pong") pongs.fetch_add(1);
  });
  for (int i = 0; i < 100; ++i) rt.send(2, 1, "ping");
  EXPECT_TRUE(eventually([&]() { return pongs.load() == 100; }));
  rt.stop();
  EXPECT_EQ(rt.decode_errors(), 0u);
  EXPECT_EQ(rt.handler_errors(), 0u);
}

TEST(AsyncRuntime, PerChannelFifoSurvivesJitter) {
  util::ThreadPool pool(4);
  StringRuntime::Options o = instant_options();
  o.replica_link.base_delay = 1e-3;
  o.replica_link.jitter = 5e-3;   // jitter >> base delay: reorder pressure
  o.replica_link.reorder = 0.3;
  o.replica_link.reorder_delay = 5e-3;
  StringRuntime rt(pool, o);
  std::vector<int> received;  // only touched by host 2's serial loop
  std::atomic<int> count{0};
  rt.register_host(2, [&](net::NodeId, const std::string& m) {
    received.push_back(std::stoi(m));
    count.fetch_add(1);
  });
  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) rt.send(1, 2, std::to_string(i));
  ASSERT_TRUE(eventually([&]() { return count.load() == kMessages; }));
  rt.stop();
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], i);
}

TEST(AsyncRuntime, TimersFireOnOwnersLoopAndCancel) {
  util::ThreadPool pool(4);
  StringRuntime rt(pool, instant_options());
  std::atomic<int> fired{0};
  rt.register_host(1, [](net::NodeId, const std::string&) {});
  const auto cancelled = rt.schedule(1, 0.02, [&]() { fired.fetch_add(100); });
  rt.cancel(cancelled);
  // A cancelled timer leaves the queue at once, not at its deadline.
  EXPECT_EQ(rt.live_timer_count(), 0u);
  rt.cancel(999999);  // never issued: must be a no-op, not poison
  rt.schedule(1, 0.01, [&]() { fired.fetch_add(1); });
  EXPECT_TRUE(eventually([&]() { return fired.load() == 1; }));
  std::this_thread::sleep_for(50ms);  // give the cancelled timer its slot
  rt.stop();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(rt.live_timer_count(), 0u);
}

TEST(AsyncRuntime, UnregisterDropsTheOwnersTimers) {
  // A restart re-registers the same id: a timer the departed object
  // scheduled must not run on the new object's loop.  The deadlines are
  // far enough out that neither timer is due before the detach.
  util::ThreadPool pool(2);
  StringRuntime rt(pool, instant_options());
  std::atomic<int> stale{0};
  std::atomic<int> kept{0};
  rt.register_host(1, [](net::NodeId, const std::string&) {});
  rt.register_host(2, [](net::NodeId, const std::string&) {});
  rt.schedule(1, 0.2, [&]() { stale.fetch_add(1); });
  rt.schedule(2, 0.25, [&]() { kept.fetch_add(1); });
  rt.detach_host(1);
  EXPECT_EQ(rt.live_timer_count(), 1u);
  rt.register_host(1, [](net::NodeId, const std::string&) {});
  // Host 2's timer is due after host 1's, so once it has run the stale
  // one would have been posted too; the sleep lets such a post run.
  EXPECT_TRUE(eventually([&]() { return kept.load() == 1; }));
  std::this_thread::sleep_for(20ms);
  rt.stop();
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(rt.live_timer_count(), 0u);
}

TEST(AsyncRuntime, BoundedInboxDropsOldest) {
  util::ThreadPool pool(2);
  StringRuntime::Options o = instant_options();
  o.inbound_capacity = 8;
  StringRuntime rt(pool, o);
  std::atomic<bool> gate{false};
  std::vector<std::string> received;
  std::atomic<int> count{0};
  rt.register_host(2, [&](net::NodeId, const std::string& m) {
    while (!gate.load()) std::this_thread::sleep_for(1ms);
    received.push_back(m);
    count.fetch_add(1);
  });
  // An early frame parks the loop on the gate; the rest pile into the
  // bounded inbox and the oldest spill over.
  for (int i = 0; i < 100; ++i) rt.send(1, 2, std::to_string(i));
  EXPECT_TRUE(eventually([&]() { return rt.overflow_dropped(2) > 0; }));
  gate.store(true);
  // Every frame is accounted exactly once: delivered or evicted.
  EXPECT_TRUE(eventually([&]() {
    return count.load() + static_cast<int>(rt.overflow_dropped()) == 100;
  }));
  rt.stop();
  // Drop-oldest: the newest send always survives.
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.back(), "99");
  EXPECT_EQ(rt.overflow_dropped(), rt.overflow_dropped(2));
  EXPECT_GT(rt.overflow_dropped(), 0u);
}

TEST(AsyncRuntime, PartitionBlocksAndRepartitionClearsStalePairs) {
  util::ThreadPool pool(4);
  StringRuntime rt(pool, instant_options());
  std::atomic<int> at3{0}, at2{0};
  rt.register_host(1, [](net::NodeId, const std::string&) {});
  rt.register_host(2, [&](net::NodeId, const std::string&) { at2.fetch_add(1); });
  rt.register_host(3, [&](net::NodeId, const std::string&) { at3.fetch_add(1); });
  rt.partition({{1, 2}, {3}});
  rt.send(1, 3, "blocked");
  rt.send(1, 2, "allowed");
  EXPECT_TRUE(eventually([&]() { return at2.load() == 1; }));
  EXPECT_EQ(at3.load(), 0);
  rt.partition({{1}, {2}});  // 3 absent: stale 1|3 block must clear
  rt.send(1, 3, "now allowed");
  rt.send(1, 2, "now blocked");
  EXPECT_TRUE(eventually([&]() { return at3.load() == 1; }));
  EXPECT_EQ(at2.load(), 1);
  rt.heal_partition();
  rt.send(1, 2, "open again");
  EXPECT_TRUE(eventually([&]() { return at2.load() == 2; }));
  rt.stop();
}

TEST(AsyncRuntime, HandlerExceptionIsContainedAndCounted) {
  util::ThreadPool pool(2);
  StringRuntime rt(pool, instant_options());
  std::atomic<int> ok{0};
  rt.register_host(1, [&](net::NodeId, const std::string& m) {
    if (m == "boom") throw std::runtime_error("boom");
    ok.fetch_add(1);
  });
  rt.send(2, 1, "boom");
  rt.send(2, 1, "fine");
  EXPECT_TRUE(eventually([&]() { return ok.load() == 1; }));
  rt.stop();
  EXPECT_EQ(rt.handler_errors(), 1u);
}

TEST(AsyncRuntime, StopQuiescesUnderCrossTraffic) {
  util::ThreadPool pool(4);
  StringRuntime rt(pool, instant_options());
  // Each delivery triggers another send: a traffic loop that only drains
  // because stop() fences transmission.
  std::atomic<std::uint64_t> hops{0};
  for (net::NodeId id = 1; id <= 4; ++id) {
    rt.register_host(id, [&, id](net::NodeId, const std::string& m) {
      hops.fetch_add(1);
      rt.send(id, (id % 4) + 1, m);
    });
  }
  rt.send(4, 1, "token");
  EXPECT_TRUE(eventually([&]() { return hops.load() > 1000; }));
  rt.stop();  // must terminate: fences sends, drains loops
  SUCCEED();
}

// ---------------------------------------------------------------------------
// AuthBatching: per-destination authenticator coalescing on the wire
// ---------------------------------------------------------------------------

TEST(AuthBatching, FlushWindowCoalescesABurstBehindFewAuthenticators) {
  util::ThreadPool pool(4);
  StringRuntime::Options o = instant_options();
  o.flush_window = 0.05;  // generous: the burst below fits well inside
  StringRuntime rt(pool, o);
  std::vector<std::string> received;  // host 2's serial loop only
  std::atomic<int> got{0};
  rt.register_host(2, [&](net::NodeId, const std::string& m) {
    received.push_back(m);
    got.fetch_add(1);
  });
  const int kMessages = 100;
  for (int i = 0; i < kMessages; ++i) rt.send(1, 2, std::to_string(i));
  ASSERT_TRUE(eventually([&]() { return got.load() == kMessages; }));
  rt.stop();
  // Every frame arrived, in order, under ONE tag per bundle: far fewer
  // HMACs than messages (a quiet-channel head may ship alone, the rest
  // ride the flush timer).
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], std::to_string(i));
  EXPECT_EQ(rt.bundled_frames(), static_cast<std::uint64_t>(kMessages));
  EXPECT_LT(rt.macs_computed(), static_cast<std::uint64_t>(kMessages) / 2);
  EXPECT_GE(rt.macs_computed(), 1u);
  EXPECT_EQ(rt.auth_failures(), 0u);
  EXPECT_EQ(rt.decode_errors(), 0u);
}

TEST(AuthBatching, ZeroWindowShipsOneAuthenticatorPerMessage) {
  // flush_window = 0 is the unbatched baseline: bundle == frame, and the
  // delivered stream is identical to the coalesced one above.
  util::ThreadPool pool(4);
  StringRuntime rt(pool, instant_options());
  std::vector<std::string> received;
  std::atomic<int> got{0};
  rt.register_host(2, [&](net::NodeId, const std::string& m) {
    received.push_back(m);
    got.fetch_add(1);
  });
  const int kMessages = 100;
  for (int i = 0; i < kMessages; ++i) rt.send(1, 2, std::to_string(i));
  ASSERT_TRUE(eventually([&]() { return got.load() == kMessages; }));
  rt.stop();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], std::to_string(i));
  EXPECT_EQ(rt.macs_computed(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(rt.bundled_frames(), static_cast<std::uint64_t>(kMessages));
}

TEST(AuthBatching, ForgedOrMalformedBundlesAreRejectedWithoutDelivery) {
  util::ThreadPool pool(4);
  StringRuntime rt(pool, instant_options());
  std::atomic<int> got{0};
  rt.register_host(2, [&](net::NodeId, const std::string&) {
    got.fetch_add(1);
  });
  // Structurally valid single-frame bundle whose 32-byte tag is wrong: the
  // authenticator check must drop the whole bundle before any frame decode.
  const auto payload = StringCodec::encode("evil");
  net::wire::Writer w;
  w.varint(1);  // frame count
  w.varint(payload.size());
  w.bytes(payload.data(), payload.size());
  w.digest(crypto::Digest{});
  const auto forged = w.take();
  rt.inject_frame(1, 2, forged);
  // Garbage that is not even a bundle: a decode error, not an auth failure.
  rt.inject_frame(1, 2, net::wire::Bytes{0xff, 0xff, 0xff});
  // A legitimate message must still get through on the same channel.
  rt.send(1, 2, "legit");
  ASSERT_TRUE(eventually([&]() { return got.load() == 1; }));
  rt.stop();
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(rt.auth_failures(), 1u);
  EXPECT_GE(rt.decode_errors(), 1u);
}

// ---------------------------------------------------------------------------
// Runtime MinBFT cluster
// ---------------------------------------------------------------------------

consensus::MinBftConfig runtime_config(int f) {
  consensus::MinBftConfig cfg;
  cfg.f = f;
  cfg.checkpoint_period = 50;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  cfg.batch_timeout = 0.005;
  return cfg;
}

TEST(MinBftRuntime, ClosedLoopClientsCommitOnRealThreads) {
  consensus::MinBftRuntimeCluster cluster(3, runtime_config(1), 7,
                                          net::NetworkProfile::lan(), 4);
  const auto stats = cluster.run_closed_loop(8, 0.5);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.handler_errors, 0u);
  EXPECT_GT(stats.p50_latency, 0.0);
  // Each completed request was executed by a reply quorum, so some replica's
  // log covers every completion (logs are prefixes of one committed history).
  std::size_t longest = 0;
  for (int id = 0; id < cluster.replica_count(); ++id) {
    longest = std::max(
        longest,
        cluster.replica(static_cast<consensus::ReplicaId>(id)).service().log().size());
  }
  EXPECT_GE(longest, stats.completed);
}

TEST(MinBftRuntime, SurvivesWanShapingWithReordering) {
  net::NetworkProfile wan = net::NetworkProfile::wan();
  // Compress WAN latency so a sub-second test still commits plenty.
  wan.replica_link.base_delay = 2e-3;
  wan.client_link.base_delay = 2e-3;
  consensus::MinBftRuntimeCluster cluster(3, runtime_config(1), 11, wan, 4);
  const auto stats = cluster.run_closed_loop(8, 0.5);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.handler_errors, 0u);
}

// ---------------------------------------------------------------------------
// NetworkProfile catalog + sim-lane determinism
// ---------------------------------------------------------------------------

TEST(NetworkProfile, CatalogNamesAreStableAndLookupWorks) {
  const auto& catalog = net::NetworkProfile::catalog();
  ASSERT_EQ(catalog.size(), 4u);
  EXPECT_EQ(catalog[0].name, "LAN");
  EXPECT_EQ(catalog[1].name, "WAN");
  EXPECT_EQ(catalog[2].name, "LOSSY_MULTIHOP");
  EXPECT_EQ(catalog[3].name, "PARTITION_FLAP");
  for (const auto& p : catalog) {
    const auto found = net::NetworkProfile::by_name(p.name);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->name, p.name);
  }
  EXPECT_FALSE(net::NetworkProfile::by_name("DIALUP").has_value());
  EXPECT_GT(catalog[3].flap_interval, 0.0);  // PARTITION_FLAP really flaps
}

/// One deterministic sim-lane run under a profile: five replicas and one
/// client exchange timed bursts over the profile's two link classes (plus a
/// partition flap when the profile flaps), and the artifact is the full
/// delivery trace — every (sender, receiver, arrival time, payload) plus the
/// loss/reorder counters, formatted to full double precision so any
/// divergence, however small, flips the comparison.
std::vector<std::string> sim_profile_trace(const net::NetworkProfile& profile) {
  net::SimNetwork<std::string> sim(101, profile.replica_link);
  const std::vector<net::NodeId> replicas = {1, 2, 3, 4, 5};
  constexpr net::NodeId kClient = 99;
  std::vector<std::string> trace;
  const auto record = [&](net::NodeId to) {
    return [&, to](net::NodeId from, const std::string& m) {
      char at[32];
      std::snprintf(at, sizeof(at), "%.17g", sim.now());
      trace.push_back(std::to_string(from) + ">" + std::to_string(to) + "@" +
                      at + ":" + m);
    };
  };
  for (const auto id : replicas) {
    sim.register_host(id, record(id));
    sim.set_link(id, kClient, profile.client_link);
    sim.set_link(kClient, id, profile.client_link);
  }
  sim.register_host(kClient, record(kClient));
  for (int round = 0; round < 20; ++round) {
    sim.schedule(0.01 * round, [&, round]() {
      const std::string tag = "r" + std::to_string(round);
      for (const auto a : replicas) {
        for (const auto b : replicas) {
          if (a != b) sim.send(a, b, tag);
        }
      }
      sim.send(kClient, replicas[static_cast<std::size_t>(round) %
                                 replicas.size()],
               "req" + std::to_string(round));
      sim.send(replicas.front(), kClient, "rep" + std::to_string(round));
    });
  }
  if (profile.flap_interval > 0.0) {
    sim.schedule(0.05, [&]() { sim.partition({{1, 2, 3}, {4, 5}}); });
    sim.schedule(0.12, [&]() { sim.heal_partition(); });
  }
  sim.run();
  trace.push_back("dropped=" + std::to_string(sim.dropped_messages()));
  trace.push_back("reordered=" + std::to_string(sim.reordered_messages()));
  return trace;
}

// The deterministic lane must stay deterministic no matter how many threads
// run OTHER work concurrently: profile sweeps executed on a contended pool
// are bit-identical to serial execution at any worker count.
TEST(NetworkProfile, SimSweepsAreBitIdenticalAtAnyThreadCount) {
  std::vector<std::vector<std::string>> serial;
  for (const auto& profile : net::NetworkProfile::catalog()) {
    serial.push_back(sim_profile_trace(profile));
    EXPECT_GT(serial.back().size(), 100u) << profile.name;
  }
  for (const int threads : {1, 8}) {
    util::ThreadPool pool(threads);
    const auto& catalog = net::NetworkProfile::catalog();
    std::vector<std::vector<std::string>> parallel(catalog.size());
    std::atomic<int> done{0};
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      pool.submit([&, i]() {
        parallel[i] = sim_profile_trace(catalog[i]);
        done.fetch_add(1);
      });
    }
    pool.wait_idle();
    ASSERT_EQ(done.load(), static_cast<int>(catalog.size()));
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << catalog[i].name << " diverged at " << threads << " threads";
    }
  }
}

// End-to-end flavour of the same guarantee: a full MinBFT workload over the
// LAN profile's replica link commits the identical log whether the sweep
// runs serially or on a contended pool.  (The lossier catalog entries are
// covered by the trace sweep above — the paper's protocol gives no liveness
// bound under sustained loss, so a bounded unit test cannot wait on them.)
TEST(NetworkProfile, LanWorkloadLogIsThreadCountInvariant) {
  consensus::MinBftConfig cfg;
  cfg.f = 1;
  cfg.checkpoint_period = 10;
  cfg.log_watermark = 100;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  const auto run_once = [&]() {
    return oracles::run_tagged_workload_link(
        cfg, 3, 4, 6, 21, net::NetworkProfile::lan().replica_link);
  };
  const auto serial = run_once();
  ASSERT_EQ(serial.error, "");
  ASSERT_FALSE(serial.log.empty());
  util::ThreadPool pool(8);
  std::vector<oracles::TaggedWorkloadResult> results(4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    pool.submit([&, i]() { results[i] = run_once(); });
  }
  pool.wait_idle();
  for (const auto& r : results) {
    EXPECT_EQ(r.error, "");
    EXPECT_EQ(r.log, serial.log);
  }
}

}  // namespace
}  // namespace tolerance
