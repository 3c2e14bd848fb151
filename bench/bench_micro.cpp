// Hot-path microbenchmarks (google-benchmark): belief updates, crypto
// primitives, simplex solves, IP backups, simulator steps, consensus rounds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "crypto/sha256_compress.hpp"
#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/crypto/hmac.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/crypto/usig.hpp"
#include "tolerance/emulation/testbed.hpp"
#include "tolerance/pomdp/belief.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"

namespace {

using namespace tolerance;

pomdp::NodeParams params() {
  pomdp::NodeParams p;
  p.p_attack = 0.1;
  p.p_crash_healthy = 1e-5;
  p.p_crash_compromised = 1e-3;
  p.p_update = 2e-2;
  return p;
}

void BM_BeliefUpdate(benchmark::State& state) {
  const pomdp::NodeModel model(params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  const pomdp::BeliefUpdater updater(model, obs);
  double b = 0.1;
  int o = 0;
  for (auto _ : state) {
    b = updater.update(b, pomdp::NodeAction::Wait, o);
    o = (o + 3) % 11;
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_BeliefUpdate);

// SHA-256 compression of 1 KiB (16 blocks) on each path: `portable` is the
// plain C++ reference, `hardware` the x86 SHA extensions that crypto::Sha256
// selects when the CPU has them (skipped when it does not).
crypto::detail::CompressFn sha_extensions_or_null() {
#if defined(__x86_64__)
  if (crypto::detail::cpu_has_sha_extensions()) {
    return crypto::detail::compress_sha_extensions;
  }
#endif
  return nullptr;
}

void BM_Sha256_1KiB(benchmark::State& state,
                    crypto::detail::CompressFn compress) {
  if (compress == nullptr) {
    state.SkipWithError("CPU lacks the SHA extensions, SSSE3 or SSE4.1");
    return;
  }
  const std::vector<std::uint8_t> data(1024, 'x');
  std::uint32_t chain[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (auto _ : state) {
    compress(chain, data.data(), data.size() / 64);
    benchmark::DoNotOptimize(chain);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK_CAPTURE(BM_Sha256_1KiB, portable, crypto::detail::compress_portable);
BENCHMARK_CAPTURE(BM_Sha256_1KiB, hardware, sha_extensions_or_null());

void BM_HmacSign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256("key", "a service request"));
  }
}
BENCHMARK(BM_HmacSign);

// The wall-clock lane's per-frame MAC: HMAC-SHA256 over one encoded MinBFT
// bundle, 80-200 bytes.  The `crypto.hmac_us_per_kib` counter is the figure
// perfbench's traced service runs report under the same name (steady-clock
// time per KiB MACed, through the one-shot form), so the two line up.
// `keyed` is what AsyncRuntime pays per bundle: a link key with its pads
// already compressed.
template <bool kKeyed>
void BM_HmacBundle(benchmark::State& state) {
  const std::string secret = "link-key";
  const crypto::HmacKey key(secret);
  const std::string frame(static_cast<std::size_t>(state.range(0)), '\x5a');
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    if constexpr (kKeyed) {
      benchmark::DoNotOptimize(key.tag(frame));
    } else {
      benchmark::DoNotOptimize(crypto::hmac_sha256(secret, frame));
    }
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const double kib = static_cast<double>(state.iterations()) *
                     static_cast<double>(frame.size()) / 1024.0;
  state.counters["crypto.hmac_us_per_kib"] = us / kib;
}
BENCHMARK(BM_HmacBundle<false>)
    ->Name("BM_HmacBundle/one_shot")
    ->Arg(80)->Arg(128)->Arg(200);
BENCHMARK(BM_HmacBundle<true>)
    ->Name("BM_HmacBundle/keyed")
    ->Arg(80)->Arg(128)->Arg(200);

void BM_UsigCreateVerify(benchmark::State& state) {
  auto registry = std::make_shared<crypto::KeyRegistry>();
  const std::string secret =
      registry->register_principal(1 + crypto::kUsigPrincipalOffset, 7);
  crypto::Usig usig(1, secret);
  const auto digest = crypto::Sha256::hash("op");
  for (auto _ : state) {
    const auto ui = usig.create(digest);
    benchmark::DoNotOptimize(crypto::Usig::verify(*registry, digest, ui));
  }
}
BENCHMARK(BM_UsigCreateVerify);

void BM_ReplicationLp(benchmark::State& state) {
  const auto cmdp = pomdp::SystemCmdp::parametric(
      static_cast<int>(state.range(0)), 3, 0.9, 0.95, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::solve_replication_lp(cmdp));
  }
}
BENCHMARK(BM_ReplicationLp)->Arg(16)->Arg(64);

void BM_IncrementalPruningCycle(benchmark::State& state) {
  const pomdp::NodeModel model(params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::IncrementalPruning::solve_cycle(
        model, obs, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_IncrementalPruningCycle)->Arg(5)->Arg(25);

void BM_TestbedStep(benchmark::State& state) {
  emulation::TestbedConfig config;
  config.initial_nodes = 9;
  emulation::Testbed testbed(config, 3);
  for (auto _ : state) {
    testbed.step();
    benchmark::DoNotOptimize(testbed.failed_count());
  }
}
BENCHMARK(BM_TestbedStep);

// The digest-memo satellite: a PREPARE body digest is computed once and
// served from the memo afterwards.  `sha256_runs` counts actual SHA-256
// finalizations per iteration — ~0 for the memoized path, batch+2 for the
// fresh path (the work every sign/verify/conflict check used to redo).
consensus::Prepare sample_prepare(int batch) {
  consensus::Prepare p;
  p.view = 3;
  p.seq = 41;
  for (int i = 0; i < batch; ++i) {
    consensus::Request r;
    r.client = 10000;
    r.request_id = static_cast<std::uint64_t>(i);
    r.operation = "write:key" + std::to_string(i);
    p.requests.push_back(std::move(r));
  }
  return p;
}

void BM_PrepareDigestMemoized(benchmark::State& state) {
  const auto p = sample_prepare(static_cast<int>(state.range(0)));
  (void)p.body_digest();  // warm the memo
  const std::uint64_t before = crypto::Sha256::invocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.body_digest());
  }
  state.counters["sha256_runs"] = benchmark::Counter(
      static_cast<double>(crypto::Sha256::invocations() - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PrepareDigestMemoized)->Arg(1)->Arg(16);

void BM_PrepareDigestFresh(benchmark::State& state) {
  auto p = sample_prepare(static_cast<int>(state.range(0)));
  const std::uint64_t before = crypto::Sha256::invocations();
  for (auto _ : state) {
    p.invalidate_digests();  // what every call paid before memoization
    benchmark::DoNotOptimize(p.body_digest());
  }
  state.counters["sha256_runs"] = benchmark::Counter(
      static_cast<double>(crypto::Sha256::invocations() - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PrepareDigestFresh)->Arg(1)->Arg(16);

void BM_MinBftRequestRound(benchmark::State& state) {
  consensus::MinBftConfig cfg;
  cfg.f = 1;
  net::LinkConfig link;
  link.loss = 0.0;
  link.jitter = 0.0;
  consensus::MinBftCluster cluster(3, cfg, 5, link);
  auto& client = cluster.add_client();
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster.submit_and_run(client, "op" + std::to_string(i++)));
  }
}
BENCHMARK(BM_MinBftRequestRound);

}  // namespace

BENCHMARK_MAIN();
