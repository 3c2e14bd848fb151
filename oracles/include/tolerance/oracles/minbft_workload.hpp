// Closed-loop tagged workload and log-equivalence definition for the
// consensus differential gates: batched vs unbatched and MAC-flush-window vs
// baseline clusters must commit equivalent logs.  The consensus and runtime
// tests and the Fig. 10 bench all consume this one implementation, so they
// agree on what "identical operation logs" means.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tolerance/consensus/minbft_cluster.hpp"

namespace tolerance::oracles {

struct TaggedWorkloadResult {
  std::vector<std::string> log;  ///< replica 0's committed log (empty on error)
  double avg_batch = 0.0;        ///< mean sealed-batch size across replicas
  std::string error;             ///< non-empty if the run failed
};

/// Submit `ops_each` uniquely-tagged ("c<client>:<k>") operations from
/// `clients` closed-loop clients over `link`, and return the committed log
/// once every replica converged.  Fails (error set, log empty) if the
/// workload does not complete within `max_events` network events or the
/// replica logs disagree.  The whole run is simulated-time deterministic for
/// a given (cfg, link, seed) — including lossy or reordering links, whose
/// randomness flows entirely from the seed.
inline TaggedWorkloadResult run_tagged_workload_link(
    const consensus::MinBftConfig& cfg, int n, int clients, int ops_each,
    std::uint64_t seed, const net::LinkConfig& link,
    std::size_t max_events = 20000000) {
  consensus::MinBftCluster cluster(n, cfg, seed, link);
  TaggedWorkloadResult result;
  int done = 0;
  std::vector<consensus::MinBftClient*> cs;
  for (int c = 0; c < clients; ++c) cs.push_back(&cluster.add_client());
  std::function<void(int, int)> pump = [&](int c, int k) {
    if (k >= ops_each) {
      ++done;
      return;
    }
    cs[static_cast<std::size_t>(c)]->submit(
        "c" + std::to_string(c) + ":" + std::to_string(k),
        [&, c, k](std::uint64_t, const std::string&, double) {
          pump(c, k + 1);
        });
  };
  for (int c = 0; c < clients; ++c) pump(c, 0);
  std::size_t events = 0;
  while (done < clients && events < max_events && cluster.network().step()) {
    ++events;
  }
  if (done < clients) {
    result.error = "workload did not complete within the event budget";
    return result;
  }
  // Let stragglers converge.  A CPU-backlogged replica drains its deferred
  // deliveries at its simulated crypto rate (deliveries re-defer behind the
  // advancing busy window), so convergence is checked in bounded rounds
  // instead of one fixed grace period; the workload is finite, so a correct
  // run always converges — the cap only bounds a genuinely diverged one.
  const auto ids = cluster.replica_ids();
  const auto converged = [&]() {
    const auto& log0 = cluster.replica(ids.front()).service().log();
    for (const auto id : ids) {
      if (cluster.replica(id).service().log() != log0) return false;
    }
    return true;
  };
  for (int rounds = 0; !converged() && rounds < 50; ++rounds) {
    cluster.run_for(2.0);
  }
  if (!converged()) {
    result.error = "replica logs diverged within one run";
    return result;
  }
  std::uint64_t batches = 0, requests = 0;
  for (const auto id : ids) {
    batches += cluster.replica(id).batches_proposed();
    requests += cluster.replica(id).requests_proposed();
  }
  result.avg_batch = batches > 0 ? static_cast<double>(requests) /
                                       static_cast<double>(batches)
                                 : 0.0;
  result.log = cluster.replica(ids.front()).service().log();
  return result;
}

/// The batching-gate workload: same driver over the deterministic
/// (lossless, jitterless) 1 ms link both gates were pinned against.
inline TaggedWorkloadResult run_tagged_workload(
    const consensus::MinBftConfig& cfg, int n, int clients, int ops_each,
    std::uint64_t seed, std::size_t max_events = 20000000) {
  net::LinkConfig link;
  link.base_delay = 1e-3;
  link.jitter = 0.0;
  link.loss = 0.0;
  return run_tagged_workload_link(cfg, n, clients, ops_each, seed, link,
                                  max_events);
}

/// The equivalence both gates assert between batched and unbatched runs:
/// the same multiset of operations, and per client the same order.  (The
/// interleaving across clients legitimately shifts with the CPU schedule.)
inline bool logs_equivalent(const std::vector<std::string>& a,
                            const std::vector<std::string>& b, int clients,
                            std::string* error) {
  if (a.size() != b.size()) {
    *error = "log sizes differ";
    return false;
  }
  std::vector<std::string> sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  if (sa != sb) {
    *error = "operation multisets differ";
    return false;
  }
  for (int c = 0; c < clients; ++c) {
    const std::string prefix = "c" + std::to_string(c) + ":";
    std::vector<std::string> pa, pb;
    for (const auto& op : a) {
      if (op.rfind(prefix, 0) == 0) pa.push_back(op);
    }
    for (const auto& op : b) {
      if (op.rfind(prefix, 0) == 0) pb.push_back(op);
    }
    if (pa != pb) {
      *error = "per-client order differs for client " + std::to_string(c);
      return false;
    }
  }
  return true;
}

}  // namespace tolerance::oracles
