// Fig. 10: average throughput of the MinBFT implementation versus the number
// of replicas N — plus the batching × cluster-size sweep that takes the
// consensus layer past the paper's n = 10 wall.
//
// CPU costs model RSA-1024 on the paper's (2009-era Opteron) hardware:
// sign ~5 ms, verify ~0.2 ms, ~1 ms marshalling+MAC per outgoing message,
// ~0.1 ms per-client session MAC on replies.  The shape that matters:
// unbatched throughput decreases with N (O(N^2) messages, one USIG sign and
// verify per message); binding a whole request batch to one USIG counter
// amortizes the per-batch work and flattens the curve.
//
// Two extra lanes share this binary: --runtime (wall-clock AsyncRuntime
// sweep, BENCH_runtime.json) and --overload (admission-control valve vs
// flood scenarios, BENCH_overload.json, gated on admitted-request
// availability and bounded queue depth).
//
// Emits BENCH_consensus.json and exits non-zero unless
//  * batched and unbatched clusters commit identical operation logs at every
//    swept cluster size (same per-client order, same multiset), and
//  * the n = 7 batched/unbatched speedup clears --min-speedup (default 5), and
//  * the n = 7 batched throughput clears --min-n7 (default 0; CI pins the
//    recorded baseline so regressions fail the bench job).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/consensus/minbft_runtime.hpp"
#include "tolerance/oracles/minbft_workload.hpp"
#include "tolerance/emulation/scenario_runner.hpp"
#include "tolerance/emulation/scenarios.hpp"
#include "tolerance/net/profiles.hpp"
#include "tolerance/util/stopwatch.hpp"

namespace {

using namespace tolerance;

consensus::MinBftConfig paper_config(int n) {
  consensus::MinBftConfig cfg;
  cfg.f = (n - 1) / 2;
  cfg.checkpoint_period = 100;     // cp, Table 8
  cfg.log_watermark = 1000;        // L, Table 8
  cfg.view_change_timeout = 280.0; // Tvc, Table 8
  cfg.request_retry_timeout = 30.0; // Texec, Table 8
  cfg.crypto_cost_sign = 5e-3;
  cfg.crypto_cost_verify = 2e-4;
  cfg.cpu_cost_per_send = 1e-3;
  cfg.crypto_cost_reply = 1e-4;  // per-client session MAC
  return cfg;
}

net::LinkConfig paper_link() {
  net::LinkConfig link;
  link.base_delay = 1e-3;
  link.jitter = 2e-4;
  link.loss = 5e-4;  // NETEM 0.05% (§VII-A)
  return link;
}

struct ThroughputSample {
  double req_per_s = 0.0;
  double avg_batch = 0.0;
  std::uint64_t usig_cache_hits = 0;
};

ThroughputSample measure_throughput(const consensus::MinBftConfig& cfg,
                                    int n, int clients, double duration_s,
                                    net::LinkConfig link) {
  consensus::MinBftCluster cluster(n, cfg, 77, link);

  long completed = 0;
  std::vector<consensus::MinBftClient*> cs;
  for (int c = 0; c < clients; ++c) cs.push_back(&cluster.add_client());
  // Closed loop: each client immediately re-submits on completion.
  std::function<void(consensus::MinBftClient*)> pump =
      [&](consensus::MinBftClient* client) {
        client->submit("write", [&, client](std::uint64_t, const std::string&,
                                            double) {
          ++completed;
          if (cluster.network().now() < duration_s) pump(client);
        });
      };
  for (auto* client : cs) pump(client);
  cluster.network().run_until(duration_s);

  ThroughputSample sample;
  sample.req_per_s = static_cast<double>(completed) / duration_s;
  std::uint64_t batches = 0, requests = 0;
  for (const auto id : cluster.replica_ids()) {
    batches += cluster.replica(id).batches_proposed();
    requests += cluster.replica(id).requests_proposed();
    sample.usig_cache_hits += cluster.replica(id).usig_cache_hits();
  }
  sample.avg_batch =
      batches > 0 ? static_cast<double>(requests) / static_cast<double>(batches)
                  : 0.0;
  return sample;
}

struct SweepRow {
  int n = 0;
  ThroughputSample unbatched;
  ThroughputSample batched;
  bool logs_match = false;
};

// --- wall-clock (--runtime) mode -------------------------------------------

/// Single source for the --runtime defaults (echoed into the JSON config so
/// a bench artifact is self-describing; README points here instead of
/// repeating the numbers).
constexpr int kDefaultRuntimeClients = 2000;
double default_runtime_duration() { return bench::scaled(2.0, 10.0); }
/// Fast-path flush window: MinBFT's consensus messages fan out in bursts
/// (one PREPARE triggers n-1 COMMITs within microseconds), so half a
/// millisecond coalesces a protocol step per destination when the pair is
/// hot, while staying well under the client-visible latency budget.
constexpr double kRuntimeFlushWindow = 0.0005;

/// Protocol timeouts in wall seconds for the async-runtime lane.  The sim
/// lane's modelled crypto costs are irrelevant here: every signature is a
/// real HMAC-SHA256 computed on the replica's own event loop.
consensus::MinBftConfig runtime_config(int n) {
  consensus::MinBftConfig cfg;
  cfg.f = (n - 1) / 2;
  cfg.checkpoint_period = 100;
  cfg.log_watermark = 1000;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  cfg.batch_timeout = 0.005;
  return cfg;
}

/// The fast path: authenticator batching behind the 0.5 ms flush window.
consensus::MinBftConfig runtime_fast_config(int n) {
  consensus::MinBftConfig cfg = runtime_config(n);
  cfg.mac_flush_window = kRuntimeFlushWindow;
  return cfg;
}

/// Parse a closed-loop op ("w:<client>:<serial>") emitted by
/// MinBftRuntimeCluster's load driver.
bool parse_runtime_op(const std::string& op, std::uint64_t* client,
                      std::uint64_t* serial) {
  if (op.rfind("w:", 0) != 0) return false;
  const auto second = op.find(':', 2);
  if (second == std::string::npos) return false;
  char* end = nullptr;
  *client = std::strtoull(op.c_str() + 2, &end, 10);
  if (end != op.c_str() + second) return false;
  *serial = std::strtoull(op.c_str() + second + 1, &end, 10);
  return *end == '\0';
}

/// Wall-clock runs are nondeterministic, so instead of comparing logs across
/// runs we check the invariants any correct run must satisfy: the committed
/// service logs of all replicas are prefixes of each other, and within each
/// log every client's serials are strictly increasing (closed-loop clients
/// submit serially; dedup forbids double-apply).
std::string validate_committed_logs(consensus::MinBftRuntimeCluster& cluster) {
  std::vector<std::vector<std::string>> logs;
  for (int i = 0; i < cluster.replica_count(); ++i) {
    logs.push_back(
        cluster.replica(static_cast<consensus::ReplicaId>(i)).service().log());
  }
  for (std::size_t a = 0; a < logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.size(); ++b) {
      const auto& shorter = logs[a].size() <= logs[b].size() ? logs[a]
                                                             : logs[b];
      const auto& longer = logs[a].size() <= logs[b].size() ? logs[b]
                                                            : logs[a];
      if (!std::equal(shorter.begin(), shorter.end(), longer.begin())) {
        return "committed logs of replicas " + std::to_string(a) + " and " +
               std::to_string(b) + " are not prefixes of each other";
      }
    }
  }
  for (std::size_t i = 0; i < logs.size(); ++i) {
    std::map<std::uint64_t, std::uint64_t> last_serial;
    for (const std::string& op : logs[i]) {
      std::uint64_t client = 0, serial = 0;
      if (!parse_runtime_op(op, &client, &serial)) {
        return "replica " + std::to_string(i) + " log holds malformed op '" +
               op + "'";
      }
      const auto it = last_serial.find(client);
      if (it != last_serial.end() && serial <= it->second) {
        return "replica " + std::to_string(i) + " log violates client " +
               std::to_string(client) + " serial order (" +
               std::to_string(serial) + " after " +
               std::to_string(it->second) + ")";
      }
      last_serial[client] = serial;
    }
  }
  return {};
}

struct RuntimeRow {
  std::string profile;
  int n = 0;
  consensus::RuntimeLoadStats baseline;
  consensus::RuntimeLoadStats fast;
  std::string log_error;  ///< first committed-log invariant violation
};

/// One data point: a fresh thread pool + AsyncRuntime + cluster, driven
/// closed-loop for `duration` wall seconds.
consensus::RuntimeLoadStats measure_runtime(const net::NetworkProfile& profile,
                                            const consensus::MinBftConfig& cfg,
                                            int n, int clients, double duration,
                                            std::string* log_error) {
  consensus::MinBftRuntimeCluster cluster(
      n, cfg, /*seed=*/77u + static_cast<unsigned>(n), profile);
  const auto stats = cluster.run_closed_loop(clients, duration);
  if (log_error != nullptr && log_error->empty()) {
    *log_error = validate_committed_logs(cluster);
  }
  return stats;
}

/// The deterministic half of the fast-path gates: in the sim lane (where the
/// flush window only changes the modelled MAC cost) the committed operation
/// logs must be indistinguishable from the baseline protocol's.
bool check_sim_equivalence(const std::vector<int>& sweep_n) {
  const int gate_clients = 6;
  const int gate_ops = bench::scaled(10, 25);
  bool ok = true;
  for (const int n : sweep_n) {
    const auto base_cfg = paper_config(n);
    auto flush_cfg = base_cfg;
    flush_cfg.mac_flush_window = kRuntimeFlushWindow;
    const auto run_base =
        oracles::run_tagged_workload(base_cfg, n, gate_clients, gate_ops, 42);
    const auto run_flush = oracles::run_tagged_workload(flush_cfg, n,
                                                        gate_clients,
                                                        gate_ops, 42);
    std::string err =
        !run_base.error.empty() ? run_base.error : run_flush.error;
    if (err.empty() &&
        !oracles::logs_equivalent(run_base.log, run_flush.log, gate_clients,
                                  &err)) {
      err = "mac-batched log diverged: " + err;
    }
    if (!err.empty()) {
      ok = false;
      std::cout << "sim-lane fast-path equivalence FAILED at n=" << n << ": "
                << err << '\n';
    }
  }
  return ok;
}

int run_runtime_mode(const std::string& out_path,
                     const std::vector<std::string>& profile_names,
                     int clients, double duration, double min_fast_gain) {
  using tolerance::ConsoleTable;
  const std::vector<int> sweep_n{3, 7, 13, 21, 31};
  std::cout << "\n--- wall-clock runtime sweep (" << clients
            << " closed-loop clients, " << duration
            << " s wall per cell; baseline vs fast path ["
            << kRuntimeFlushWindow * 1e3
            << " ms MAC flush]; real HMAC-SHA256 on per-replica event loops) "
            << "---\n\n";

  // Deterministic gates first: they catch a semantic break even when the
  // wall-clock numbers look healthy.
  const bool sim_ok = check_sim_equivalence(sweep_n);

  std::vector<RuntimeRow> rows;
  bool cells_ok = true;
  bool logs_ok = true;
  ConsoleTable table({"profile", "N", "base req/s", "fast req/s", "gain",
                      "MAC amort", "fast p50 (ms)", "errors", "logs"});
  for (const std::string& name : profile_names) {
    const auto profile = net::NetworkProfile::by_name(name);
    if (!profile) {
      std::cout << "unknown profile: " << name << '\n';
      return 1;
    }
    for (const int n : sweep_n) {
      RuntimeRow row;
      row.profile = profile->name;
      row.n = n;
      row.baseline = measure_runtime(*profile, runtime_config(n), n, clients,
                                     duration, &row.log_error);
      row.fast = measure_runtime(*profile, runtime_fast_config(n), n, clients,
                                 duration, &row.log_error);
      // Machine-independent cell gates: progress was made and the transport
      // never saw a malformed frame, a throwing handler, or a bad bundle tag.
      const std::uint64_t errors =
          row.baseline.decode_errors + row.baseline.handler_errors +
          row.baseline.auth_failures + row.fast.decode_errors +
          row.fast.handler_errors + row.fast.auth_failures;
      if (row.baseline.completed == 0 || row.fast.completed == 0 ||
          errors != 0) {
        cells_ok = false;
      }
      if (!row.log_error.empty()) {
        logs_ok = false;
        std::cout << "committed-log invariant FAILED (" << row.profile
                  << ", n=" << n << "): " << row.log_error << '\n';
      }
      const double gain = row.fast.throughput /
                          std::max(row.baseline.throughput, 1e-9);
      const double amort =
          row.fast.macs_computed > 0
              ? static_cast<double>(row.fast.bundled_frames) /
                    static_cast<double>(row.fast.macs_computed)
              : 0.0;
      table.add_row({row.profile, std::to_string(row.n),
                     ConsoleTable::num(row.baseline.throughput, 1),
                     ConsoleTable::num(row.fast.throughput, 1),
                     ConsoleTable::num(gain, 2),
                     ConsoleTable::num(amort, 1),
                     ConsoleTable::num(row.fast.p50_latency * 1e3, 2),
                     std::to_string(errors),
                     row.log_error.empty() ? "valid" : "INVALID"});
      rows.push_back(std::move(row));
    }
  }
  table.print(std::cout);

  // The wall-clock throughput gate: LAN n=7, a regression guard, not an
  // improvement claim.  The flush window is worth 0-5 % there, so the fast
  // path can only track the baseline (within scheduler noise); the floor
  // catches the failure modes that DO cost real throughput (retransmit
  // storms, relay amplification).  A single 1 s closed-loop window has a
  // fat tail (scheduler noise on a shared box easily moves one cell ±20%),
  // so the gated cell is re-paired twice more and the gate reads the MEDIAN
  // of three paired gains.
  const auto median_gain = [&](double first_gain) {
    std::vector<double> gains{first_gain};
    const auto profile = net::NetworkProfile::by_name("LAN");
    for (int rep = 0; profile && rep < 2; ++rep) {
      const auto base = measure_runtime(*profile, runtime_config(7), 7,
                                        clients, duration, nullptr);
      const auto fast = measure_runtime(*profile, runtime_fast_config(7), 7,
                                        clients, duration, nullptr);
      gains.push_back(fast.throughput / std::max(base.throughput, 1e-9));
    }
    std::sort(gains.begin(), gains.end());
    return gains[gains.size() / 2];
  };
  double lan7_gain = 0.0;
  bool have_lan7 = false;
  for (const RuntimeRow& row : rows) {
    if (row.profile == "LAN" && row.n == 7) {
      lan7_gain = median_gain(row.fast.throughput /
                              std::max(row.baseline.throughput, 1e-9));
      have_lan7 = true;
    }
  }
  const bool gain_ok = !have_lan7 || lan7_gain >= min_fast_gain;

  std::cout << "\ngates:\n"
            << "  every cell completed, zero decode/handler/auth errors: "
            << (cells_ok ? "OK" : "FAILED") << '\n'
            << "  committed-log prefix agreement + client serial order: "
            << (logs_ok ? "OK" : "FAILED") << '\n'
            << "  sim-lane flush-window logs == baseline logs: "
            << (sim_ok ? "OK" : "FAILED") << '\n';
  if (have_lan7) {
    std::cout << "  LAN n=7 fast/baseline regression guard: "
              << ConsoleTable::num(lan7_gain, 2) << " (floor " << min_fast_gain
              << ") " << (gain_ok ? "OK" : "REGRESSION") << '\n';
  }

  const bool ok = cells_ok && logs_ok && sim_ok && gain_ok;
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"consensus_runtime\",\n"
      << "  \"config\": {\"clients\": " << clients
      << ", \"duration_s\": " << duration
      << ", \"batch_size\": " << runtime_config(3).batch_size
      << ", \"pipeline_depth\": " << runtime_config(3).pipeline_depth
      << ", \"flush_window_s\": " << kRuntimeFlushWindow
      << ", \"min_fast_gain\": " << min_fast_gain
      << "},\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RuntimeRow& row = rows[i];
    const auto cell = [&out](const char* prefix,
                             const consensus::RuntimeLoadStats& s) {
      out << ", \"" << prefix << "_req_s\": " << s.throughput << ", \""
          << prefix << "_completed\": " << s.completed << ", \"" << prefix
          << "_p50_latency_s\": " << s.p50_latency << ", \"" << prefix
          << "_p99_latency_s\": " << s.p99_latency << ", \"" << prefix
          << "_dropped\": " << s.dropped << ", \"" << prefix
          << "_overflow_dropped\": " << s.overflow_dropped << ", \"" << prefix
          << "_decode_errors\": " << s.decode_errors << ", \"" << prefix
          << "_handler_errors\": " << s.handler_errors << ", \"" << prefix
          << "_auth_failures\": " << s.auth_failures;
    };
    out << "    {\"profile\": \"" << row.profile << "\", \"n\": " << row.n;
    cell("baseline", row.baseline);
    cell("fast", row.fast);
    out << ", \"fast_gain\": "
        << row.fast.throughput / std::max(row.baseline.throughput, 1e-9)
        << ", \"macs_computed\": " << row.fast.macs_computed
        << ", \"bundled_frames\": " << row.fast.bundled_frames
        << ", \"logs_valid\": " << (row.log_error.empty() ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"gates\": {\"cells_ok\": " << (cells_ok ? "true" : "false")
      << ", \"logs_ok\": " << (logs_ok ? "true" : "false")
      << ", \"sim_equivalence_ok\": " << (sim_ok ? "true" : "false")
      << ", \"lan7_gain\": " << lan7_gain
      << ", \"gain_ok\": " << (gain_ok ? "true" : "false")
      << ", \"ok\": " << (ok ? "true" : "false") << "}\n"
      << "}\n";
  std::cout << "wrote " << out_path << '\n';
  return ok ? 0 : 1;
}

// --- overload (--overload) mode --------------------------------------------

struct OverloadRow {
  std::string label;
  bool valve = false;
  emulation::ScenarioResult result;
  double seconds = 0.0;
};

/// One overload cell: a flood scenario episode with the admission valve on
/// or off.  Scenarios come from the shared catalog so the bench, the ctest
/// battery, and the golden calibration all exercise identical workloads.
OverloadRow run_overload_cell(emulation::Scenario s, const std::string& label,
                              bool valve) {
  OverloadRow row;
  row.label = label;
  row.valve = valve;
  s.admission_control = valve;
  Stopwatch clock;
  row.result = emulation::make_scenario_runner(s, 42).run(7);
  row.seconds = clock.elapsed_seconds();
  return row;
}

/// The admission-control sweep: spike multipliers (10x within capacity,
/// 100x far past it), a retry storm, and a slow-loris flood, each with the
/// valve on and off.  CI gates:
///  * valve on  -> admitted-request availability >= 0.95 and the sampled
///    per-replica queue depth (backlog + transport inbox) <= --max-queue;
///  * valve on at 10x -> the valve is TRANSPARENT when capacity suffices
///    (it must not shed a load the cluster can serve);
///  * valve off at 100x -> the baseline still demonstrably violates both
///    bounds; if it stops melting, the scenario no longer proves anything
///    and the calibration must be redone.
int run_overload_mode(const std::string& out_path, int max_queue) {
  using tolerance::ConsoleTable;
  std::cout << "\n--- overload sweep (flood scenarios from the shared "
               "catalog; valve on vs off; seed 42, episode 7) ---\n\n";

  emulation::Scenario spike100 = emulation::find_scenario("load-spike-100x");
  emulation::Scenario spike10 = spike100;
  spike10.name = "load-spike-10x";
  // Same 20 flood clients, a tenth of the per-cycle request volume: ~50
  // requests per cycle against a ~200-per-cycle serving capacity.
  for (auto& e : spike10.events) e.magnitude = spike100.events[0].magnitude / 10.0;

  std::vector<OverloadRow> rows;
  for (const bool valve : {true, false}) {
    rows.push_back(run_overload_cell(spike10, "load-spike-10x", valve));
    rows.push_back(run_overload_cell(spike100, "load-spike-100x", valve));
    rows.push_back(run_overload_cell(
        emulation::find_scenario("retry-storm"), "retry-storm", valve));
    rows.push_back(run_overload_cell(
        emulation::find_scenario("slow-loris-flood"), "slow-loris-flood",
        valve));
  }

  ConsoleTable table({"scenario", "valve", "adm(A)", "svc(A)", "qmax",
                      "submitted", "completed", "rejected", "backoffs",
                      "views", "seconds"});
  bool on_ok = true, transparent_ok = true, baseline_violates = false;
  for (const OverloadRow& row : rows) {
    const auto& r = row.result;
    table.add_row({row.label, row.valve ? "on" : "off",
                   ConsoleTable::num(r.admitted_availability, 3),
                   ConsoleTable::num(r.service_availability, 3),
                   std::to_string(r.max_queue_depth),
                   std::to_string(r.flood_submitted),
                   std::to_string(r.flood_completed),
                   std::to_string(r.flood_rejections),
                   std::to_string(r.flood_backoffs),
                   std::to_string(r.final_view),
                   ConsoleTable::num(row.seconds, 2)});
    if (row.valve) {
      if (r.admitted_availability < 0.95 || r.max_queue_depth > max_queue) {
        on_ok = false;
      }
      if (row.label == "load-spike-10x" &&
          (r.flood_rejections > r.flood_submitted / 10 ||
           r.flood_completed < r.flood_submitted * 9 / 10)) {
        transparent_ok = false;
      }
    } else if (row.label == "load-spike-100x") {
      baseline_violates =
          r.admitted_availability < 0.6 && r.max_queue_depth > 100000;
    }
  }
  table.print(std::cout);

  const bool ok = on_ok && transparent_ok && baseline_violates;
  std::cout << "\ngates:\n"
            << "  valve on: adm >= 0.95 and qmax <= " << max_queue << ": "
            << (on_ok ? "OK" : "FAILED") << '\n'
            << "  valve transparent at 10x (no shedding within capacity): "
            << (transparent_ok ? "OK" : "FAILED") << '\n'
            << "  valve off at 100x still melts (adm < 0.6, qmax > 100000): "
            << (baseline_violates ? "OK" : "FAILED — recalibrate the flood")
            << '\n';

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"consensus_overload\",\n  \"config\": "
      << "{\"seed\": 42, \"episode\": 7, \"max_queue\": " << max_queue
      << "},\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i].result;
    out << "    {\"scenario\": \"" << rows[i].label << "\", \"valve\": "
        << (rows[i].valve ? "true" : "false")
        << ", \"admitted_availability\": " << r.admitted_availability
        << ", \"service_availability\": " << r.service_availability
        << ", \"max_queue_depth\": " << r.max_queue_depth
        << ", \"flood_submitted\": " << r.flood_submitted
        << ", \"flood_completed\": " << r.flood_completed
        << ", \"flood_rejections\": " << r.flood_rejections
        << ", \"flood_backoffs\": " << r.flood_backoffs
        << ", \"final_view\": " << r.final_view
        << ", \"seconds\": " << rows[i].seconds << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gates\": {\"valve_on_ok\": " << (on_ok ? "true" : "false")
      << ", \"transparent_at_10x\": " << (transparent_ok ? "true" : "false")
      << ", \"baseline_violates\": " << (baseline_violates ? "true" : "false")
      << ", \"ok\": " << (ok ? "true" : "false") << "}\n}\n";
  std::cout << "wrote " << out_path << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tolerance;
  bench::header("Fig. 10 — MinBFT throughput vs cluster size, batched vs not",
                "Fig. 10 + the batching scale-up sweep");
  std::string out_path = "BENCH_consensus.json";
  double min_speedup = 5.0;
  double min_n7 = 0.0;
  bool runtime_mode = false;
  bool overload_mode = false;
  std::string overload_out = "BENCH_overload.json";
  int overload_max_queue = 2048;
  std::string runtime_out = "BENCH_runtime.json";
  int runtime_clients = kDefaultRuntimeClients;
  double runtime_duration = default_runtime_duration();
  double min_fast_gain = 0.75;
  std::vector<std::string> runtime_profiles{"LAN", "WAN"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_path = argv[i + 1];
    if (arg == "--min-speedup" && i + 1 < argc)
      min_speedup = std::atof(argv[i + 1]);
    if (arg == "--min-n7" && i + 1 < argc) min_n7 = std::atof(argv[i + 1]);
    if (arg == "--runtime") runtime_mode = true;
    if (arg == "--overload") overload_mode = true;
    if (arg == "--overload-out" && i + 1 < argc) overload_out = argv[i + 1];
    if (arg == "--max-queue" && i + 1 < argc)
      overload_max_queue = std::atoi(argv[i + 1]);
    if (arg == "--runtime-out" && i + 1 < argc) runtime_out = argv[i + 1];
    if (arg == "--runtime-clients" && i + 1 < argc)
      runtime_clients = std::atoi(argv[i + 1]);
    if (arg == "--runtime-duration" && i + 1 < argc)
      runtime_duration = std::atof(argv[i + 1]);
    if (arg == "--min-fast-gain" && i + 1 < argc)
      min_fast_gain = std::atof(argv[i + 1]);
    if (arg == "--profiles" && i + 1 < argc) {
      runtime_profiles.clear();
      std::stringstream ss(argv[i + 1]);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) runtime_profiles.push_back(name);
      }
    }
  }

  // Wall-clock lane: real threads, real crypto, wire-serialized messages.
  // Entirely separate from the deterministic sweep below (and from its
  // BENCH_consensus.json gates, which stay sim-lane only).
  if (runtime_mode) {
    return run_runtime_mode(runtime_out, runtime_profiles, runtime_clients,
                            runtime_duration, min_fast_gain);
  }

  // Overload lane: the admission-control valve under flood scenarios,
  // sim-lane deterministic, with its own artifact and gates.
  if (overload_mode) {
    return run_overload_mode(overload_out, overload_max_queue);
  }

  // --- The paper's figure: unbatched protocol, 1 vs 20 clients -------------
  const double duration = bench::scaled(5.0, 60.0);
  ConsoleTable table({"N", "1 client (req/s)", "20 clients (req/s)"});
  for (int n = 3; n <= 10; ++n) {
    const auto cfg = paper_config(n).unbatched();
    const double one =
        measure_throughput(cfg, n, 1, duration, paper_link()).req_per_s;
    const double twenty =
        measure_throughput(cfg, n, 20, duration, paper_link()).req_per_s;
    table.add_row({std::to_string(n), ConsoleTable::num(one, 1),
                   ConsoleTable::num(twenty, 1)});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape (Fig. 10): both curves decrease with N; the "
               "20-client curve sits above the 1-client curve (pipelining "
               "hides latency until the leader's CPU saturates).\n";

  // --- Batching sweep: n up to 31, batched vs unbatched --------------------
  const std::vector<int> sweep_n{3, 7, 13, 21, 31};
  const int sweep_clients = 40;  // enough closed-loop load to fill batches
  const double sweep_duration = bench::scaled(3.0, 15.0);
  const int gate_clients = 8;
  const int gate_ops = bench::scaled(15, 40);

  const consensus::MinBftConfig sweep_cfg = paper_config(3);
  std::cout << "\n--- batching sweep (" << sweep_clients
            << " closed-loop clients, " << sweep_duration << " s simulated; "
            << "batch_size=" << sweep_cfg.batch_size
            << ", pipeline_depth=" << sweep_cfg.pipeline_depth
            << " vs the unbatched protocol; "
            << "log-equivalence gate: " << gate_clients << " clients x "
            << gate_ops << " ops) ---\n\n";

  std::vector<SweepRow> rows;
  bool logs_ok = true;
  ConsoleTable sweep({"N", "unbatched (req/s)", "batched (req/s)", "speedup",
                      "avg batch", "UI cache hits", "logs"});
  for (const int n : sweep_n) {
    SweepRow row;
    row.n = n;
    const auto batched_cfg = paper_config(n);
    const auto unbatched_cfg = batched_cfg.unbatched();
    row.unbatched = measure_throughput(unbatched_cfg, n, sweep_clients,
                                       sweep_duration, paper_link());
    row.batched = measure_throughput(batched_cfg, n, sweep_clients,
                                     sweep_duration, paper_link());
    // The workload driver and equivalence definition are shared with the
    // MinBftBatching unit tests (tolerance/oracles/minbft_workload.hpp).
    const auto run_u = oracles::run_tagged_workload(unbatched_cfg, n,
                                                    gate_clients, gate_ops,
                                                    42);
    const auto run_b = oracles::run_tagged_workload(batched_cfg, n,
                                                    gate_clients, gate_ops,
                                                    42);
    std::string err = !run_u.error.empty() ? run_u.error : run_b.error;
    row.logs_match = err.empty() &&
                     oracles::logs_equivalent(run_u.log, run_b.log,
                                              gate_clients, &err);
    if (!row.logs_match) {
      logs_ok = false;
      std::cout << "log equivalence FAILED at n=" << n << ": " << err << '\n';
    }
    rows.push_back(row);
    const double speedup =
        row.batched.req_per_s / std::max(row.unbatched.req_per_s, 1e-9);
    sweep.add_row({std::to_string(n),
                   ConsoleTable::num(row.unbatched.req_per_s, 1),
                   ConsoleTable::num(row.batched.req_per_s, 1),
                   ConsoleTable::num(speedup, 2),
                   ConsoleTable::num(row.batched.avg_batch, 1),
                   std::to_string(row.batched.usig_cache_hits),
                   row.logs_match ? "match" : "DIVERGED"});
  }
  sweep.print(std::cout);

  double n7_speedup = 0.0, n7_batched = 0.0;
  for (const SweepRow& row : rows) {
    if (row.n == 7) {
      n7_speedup =
          row.batched.req_per_s / std::max(row.unbatched.req_per_s, 1e-9);
      n7_batched = row.batched.req_per_s;
    }
  }
  const bool speedup_ok = n7_speedup >= min_speedup;
  const bool n7_ok = n7_batched >= min_n7;
  const auto memo = consensus::digest_memo_stats();

  std::cout << "\nn=7 batched/unbatched speedup: "
            << ConsoleTable::num(n7_speedup, 2) << " (floor " << min_speedup
            << ") " << (speedup_ok ? "OK" : "REGRESSION") << '\n'
            << "n=7 batched throughput: " << ConsoleTable::num(n7_batched, 1)
            << " req/s (floor " << min_n7 << ") "
            << (n7_ok ? "OK" : "REGRESSION") << '\n'
            << "operation logs batched vs unbatched: "
            << (logs_ok ? "identical" : "DIVERGED — BUG") << '\n'
            << "message digests: " << memo.computed << " computed, "
            << memo.saved << " served from the memo (saved SHA-256 runs)\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"consensus_batching\",\n"
      << "  \"config\": {\n"
      << "    \"crypto_cost_sign\": " << sweep_cfg.crypto_cost_sign << ",\n"
      << "    \"crypto_cost_verify\": " << sweep_cfg.crypto_cost_verify
      << ",\n"
      << "    \"cpu_cost_per_send\": " << sweep_cfg.cpu_cost_per_send << ",\n"
      << "    \"crypto_cost_reply\": " << sweep_cfg.crypto_cost_reply << ",\n"
      << "    \"batch_size\": " << sweep_cfg.batch_size << ",\n"
      << "    \"pipeline_depth\": " << sweep_cfg.pipeline_depth << ",\n"
      << "    \"clients\": " << sweep_clients << ",\n"
      << "    \"duration_s\": " << sweep_duration << "\n"
      << "  },\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    const double speedup =
        row.batched.req_per_s / std::max(row.unbatched.req_per_s, 1e-9);
    out << "    {\"n\": " << row.n
        << ", \"unbatched_req_s\": " << row.unbatched.req_per_s
        << ", \"batched_req_s\": " << row.batched.req_per_s
        << ", \"speedup\": " << speedup
        << ", \"avg_batch\": " << row.batched.avg_batch
        << ", \"usig_cache_hits\": " << row.batched.usig_cache_hits
        << ", \"logs_match\": " << (row.logs_match ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"n7\": {\"speedup\": " << n7_speedup
      << ", \"batched_req_s\": " << n7_batched
      << ", \"min_speedup\": " << min_speedup << ", \"min_req_s\": " << min_n7
      << "},\n"
      << "  \"digest_memo\": {\"computed\": " << memo.computed
      << ", \"saved\": " << memo.saved << "},\n"
      << "  \"gates\": {\"logs_match\": " << (logs_ok ? "true" : "false")
      << ", \"speedup_ok\": " << (speedup_ok ? "true" : "false")
      << ", \"n7_throughput_ok\": " << (n7_ok ? "true" : "false") << "}\n"
      << "}\n";
  std::cout << "wrote " << out_path << '\n';
  return logs_ok && speedup_ok && n7_ok ? 0 : 1;
}
