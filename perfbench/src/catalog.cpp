// scenario-catalog: every scenario_catalog() entry through
// make_scenario_runner and ScenarioRunner::run, per episode seed.  The only
// workload that runs emulation, the per-node belief controllers, the system
// controller and sim-lane consensus under scripted faults —
// deterministically, so its paper metrics repeat exactly for a seed and
// catch behaviour changes.
//
// An episode's cost depends on its seed: a seed that stalls a membership
// operation burns the whole event budget, and one entry took 0.5 s under
// one seed and 4 s under another.  A run cannot average that away, so the
// episodes come in two sets:
//  * the timed panel — the same episode seeds every run (bench_scenarios'
//    calibration seeds), so a run's timings measure the program, not which
//    seeds happened to stall;
//  * the seeded set — episode seeds drawn from --seed, which carry the paper
//    metrics, the exact per-seed counts and the output checks.
// The episodes run one after another on one thread.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "tolerance/emulation/scenario_runner.hpp"
#include "tolerance/emulation/scenarios.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace emulation = tolerance::emulation;

/// The training seed of bench_scenarios and the test battery: the catalog
/// is calibrated green under it.
constexpr std::uint64_t kTrainingSeed = 42;
/// The timed panel starts at bench_scenarios' first episode seed.
constexpr std::uint64_t kPanelBase = 1000;
constexpr int kSetups = 9;
constexpr auto kCpuSlot = std::chrono::milliseconds(5);
/// CPU seconds one pass over the catalog (one episode seed) takes on a
/// 4-vCPU x86 VM.  A run makes --seconds / this passes of the timed panel
/// and as many seeded ones: twice the --seconds the other workloads take,
/// because the catalog's timings are the most host-sensitive.
constexpr double kPassCpuSeconds = 10.0;

enum Family { kFlood, kCrash, kController, kAttack, kFamilies };
const char* const kFamilyNames[kFamilies] = {"flood", "crash", "controller",
                                             "attack"};

Family family_of(const emulation::Scenario& s) {
  if (emulation::has_flood_events(s)) return kFlood;
  if (emulation::has_controller_events(s)) return kController;
  for (const auto& e : s.events) {
    if (e.kind == emulation::ScenarioEvent::Kind::ForceCrash) return kCrash;
  }
  return kAttack;
}

struct Episode {
  std::size_t entry = 0;
  std::uint64_t seed = 0;
  bool timed = false;   ///< a timed-panel episode
  double ms = 0.0;      ///< wall time on its thread
  double cpu_ms = 0.0;  ///< CPU time of its thread
  emulation::ScenarioResult result;
  std::string error;    ///< what the episode threw; empty if it finished
};

std::vector<emulation::ScenarioRunner> train(std::vector<double>* entry_ms) {
  std::vector<emulation::ScenarioRunner> runners;
  for (const auto& s : emulation::scenario_catalog()) {
    const auto t0 = Clock::now();
    runners.push_back(emulation::make_scenario_runner(s, kTrainingSeed));
    if (entry_ms) entry_ms->push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return runners;
}

struct Window {
  std::vector<Episode> episodes;  ///< finished episodes
  std::vector<Episode> aborted;   ///< episodes that threw
  // Totals over the finished timed-panel episodes.
  long timed_cycles = 0;
  double timed_s = 0.0;  ///< sum of per-episode wall times
  double timed_cpu_s = 0.0;
};

Window run_window(const std::vector<emulation::ScenarioRunner>& runners,
                  const std::vector<std::uint64_t>& panel,
                  const std::vector<std::uint64_t>& seeded) {
  Window w;
  for (std::size_t i = 0; i < runners.size(); ++i) {
    for (std::size_t k = 0; k < std::max(panel.size(), seeded.size()); ++k) {
      if (k < panel.size()) w.episodes.push_back({i, panel[k], true, 0.0, 0.0, {}, {}});
      if (k < seeded.size()) w.episodes.push_back({i, seeded[k], false, 0.0, 0.0, {}, {}});
    }
  }
  // The episodes run on one thread, which this thread moves to the next
  // vCPU every slot (see visit_cpu): even a 5 ms episode samples several.
  std::atomic<int> tid{0};
  std::atomic<bool> done{false};
  {
    std::jthread worker([&]() {
      tid.store(current_tid());
      for (Episode& e : w.episodes) {
        const double cpu0 = thread_cpu_seconds();
        const auto t0 = Clock::now();
        try {
          e.result = runners[e.entry].run(e.seed);
        } catch (const std::exception& ex) {
          e.error = ex.what();
        }
        e.ms = seconds_between(t0, Clock::now()) * 1e3;
        e.cpu_ms = (thread_cpu_seconds() - cpu0) * 1e3;
      }
      done.store(true);
    });
    for (std::uint64_t slot = 0; !done.load(); ++slot) {
      if (const int t = tid.load(); t != 0) visit_cpu(slot, t);
      std::this_thread::sleep_for(kCpuSlot);
    }
  }  // joins the worker
  // An episode that threw did not finish: it counts as failed (see check)
  // and contributes no timing or paper metric.
  std::erase_if(w.episodes, [&](const Episode& e) {
    if (!e.error.empty()) w.aborted.push_back(e);
    return !e.error.empty();
  });
  for (const Episode& e : w.episodes) {
    if (!e.timed) continue;
    w.timed_cycles += runners[e.entry].scenario().horizon;
    w.timed_s += e.ms * 1e-3;
    w.timed_cpu_s += e.cpu_ms * 1e-3;
  }
  return w;
}

/// Membership stays within [2f + 1, max_nodes] in every episode, and a
/// repeated seed reproduces an episode exactly (one seeded episode per
/// family, re-run).  Returns the number of failed episodes.
std::uint64_t check(const std::vector<emulation::ScenarioRunner>& runners,
                    const Window& w, Report& report) {
  std::uint64_t failed = w.aborted.size();
  for (const Episode& e : w.aborted) {
    std::cout << "episode failed: " << runners[e.entry].scenario().name << " seed "
              << e.seed << ": " << e.error << '\n';
  }
  for (const Episode& e : w.episodes) {
    const auto& s = runners[e.entry].scenario();
    const bool ok = e.result.min_membership >= 2 * s.f + 1 &&
                    e.result.max_membership <= s.max_nodes;
    report.check(ok, s.name + " seed " + std::to_string(e.seed) +
                         ": membership left [2f+1, max_nodes]");
    failed += ok ? 0 : 1;
  }
  bool repeated[kFamilies] = {};
  for (const Episode& e : w.episodes) {
    const Family f = family_of(runners[e.entry].scenario());
    if (e.timed || repeated[f]) continue;
    repeated[f] = true;
    const bool same = emulation::identical(runners[e.entry].run(e.seed), e.result);
    report.check(same, runners[e.entry].scenario().name + " seed " +
                           std::to_string(e.seed) + " did not repeat exactly");
    failed += same ? 0 : 1;
  }
  return failed;
}

long passes_per_set(double seconds) {
  return std::max<long>(1, std::lround(seconds / kPassCpuSeconds));
}

std::vector<std::uint64_t> panel_seeds(double seconds) {
  std::vector<std::uint64_t> seeds;
  for (long i = 0; i < passes_per_set(seconds); ++i) {
    seeds.push_back(kPanelBase + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

std::vector<std::uint64_t> seeded_seeds(std::uint64_t seed, double seconds) {
  SeededRng rng(seed);
  std::vector<std::uint64_t> seeds;
  for (long i = 0; i < passes_per_set(seconds); ++i) {
    seeds.push_back(rng.next() % 1'000'000'007ull);
  }
  return seeds;
}

}  // namespace

Report run_scenario_catalog(const RunOptions& o) {
  Report report;
  // A traced run makes two windows (baseline and traced), each of half the
  // work, so it takes no longer than an untraced run.
  const double seconds = o.trace ? o.seconds / 2.0 : o.seconds;
  const std::vector<std::uint64_t> panel = panel_seeds(seconds);
  const std::vector<std::uint64_t> seeded = seeded_seeds(o.seed, seconds);
  if (!o.trace) {
    std::vector<double> setups;
    std::vector<emulation::ScenarioRunner> runners;
    for (int i = 0; i < kSetups; ++i) {
      runners.clear();
      const auto t0 = Clock::now();
      runners = train(nullptr);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    const Window w = run_window(runners, panel, seeded);
    report.failed = check(runners, w, report);
    report.attempted = w.episodes.size() + w.aborted.size();
    // Timings from the panel.  The simulated lane's control cycle has no
    // wall-clock waits, so its latency is compute: each cycle is charged
    // its family's thread CPU time per cycle, which a preemption or a
    // stolen tick does not stretch, and which averages the family's entries
    // instead of resting on one short episode.  Paper metrics from the
    // seeded episodes; one that threw served nothing.
    double family_cpu_ms[kFamilies] = {};
    double family_cycles[kFamilies] = {};
    std::vector<double> availability, nodes;
    double served = 0.0;
    double seeded_attempted = 0.0;
    for (const Episode& e : w.aborted) seeded_attempted += e.timed ? 0.0 : 1.0;
    for (const Episode& e : w.episodes) {
      if (e.timed) {
        const auto& s = runners[e.entry].scenario();
        family_cpu_ms[family_of(s)] += e.cpu_ms;
        family_cycles[family_of(s)] += s.horizon;
        continue;
      }
      seeded_attempted += 1.0;
      availability.push_back(e.result.availability);
      served += e.result.service_availability;
      nodes.push_back(e.result.avg_nodes);
    }
    std::vector<double> cycle_ms;
    for (int f = 0; f < kFamilies; ++f) {
      if (family_cycles[f] == 0) continue;
      cycle_ms.insert(cycle_ms.end(), static_cast<std::size_t>(family_cycles[f]),
                      family_cpu_ms[f] / family_cycles[f]);
    }
    const auto p50 = percentile(cycle_ms, 50.0);
    const auto p99 = percentile(cycle_ms, 99.0);
    report.check(p50 && p99, "too few control cycles for a p99");
    const double cycles = static_cast<double>(w.timed_cycles);
    report.add("setup_s", median(setups), "s");
    report.add("throughput_per_s", cycles / w.timed_s, "1/s");
    report.add("latency_p50_ms", p50.value_or(0.0), "ms");
    report.add("latency_p99_ms", p99.value_or(0.0), "ms");
    report.add("served_share", served / std::max(1.0, seeded_attempted), "share");
    report.add("cpu_us_per_op", w.timed_cpu_s / cycles * 1e6, "us");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("availability", mean(availability), "share");
    report.add("avg_nodes", mean(nodes), "nodes");
    report.diagnostics.push_back({"timed_cycles", cycles, "count"});
    return report;
  }

  // Traced run: an untraced window first (the overhead baseline), then the
  // same episodes with per-episode spans grouped by family.
  double untraced_cpu_per_cycle = 0.0;
  {
    const auto runners = train(nullptr);
    const Window w = run_window(runners, panel, seeded);
    check(runners, w, report);
    untraced_cpu_per_cycle = w.timed_cpu_s / static_cast<double>(w.timed_cycles);
  }
  std::vector<double> train_ms;
  const auto runners = train(&train_ms);
  const Window w = run_window(runners, panel, seeded);
  report.failed = check(runners, w, report);
  report.attempted = w.episodes.size() + w.aborted.size();
  double family_ms[kFamilies] = {};
  double family_cycles[kFamilies] = {};
  double recoveries = 0, evictions = 0, additions = 0, stalls = 0, views = 0,
         rejections = 0, fallback = 0;
  std::vector<double> ttr;
  for (const Episode& e : w.episodes) {
    const auto& s = runners[e.entry].scenario();
    if (e.timed) {
      family_ms[family_of(s)] += e.ms;
      family_cycles[family_of(s)] += s.horizon;
      continue;
    }
    const emulation::ScenarioResult& r = e.result;
    recoveries += r.recoveries;
    evictions += r.evictions;
    additions += r.additions;
    stalls += r.quorum_stalls;
    views += static_cast<double>(r.final_view);
    rejections += static_cast<double>(r.flood_rejections);
    fallback += static_cast<double>(r.controller_fallback_cycles);
    ttr.push_back(r.time_to_recovery);
  }
  if (!o.trace_out.empty()) {
    // One span per episode, keyed by (catalog entry, episode seed), with
    // the episode's paper metrics.
    std::ofstream out(o.trace_out, std::ios::app);
    for (const Episode& e : w.episodes) {
      const auto& s = runners[e.entry].scenario();
      out << "{\"layer\": \"emulation.episode\", \"family\": \""
          << kFamilyNames[family_of(s)] << "\", \"scenario\": \"" << s.name
          << "\", \"timed\": " << (e.timed ? "true" : "false") << ", \"key\": ["
          << e.entry << ", " << e.seed
          << "], \"dur_ns\": " << static_cast<std::int64_t>(e.ms * 1e6)
          << ", \"cpu_ns\": " << static_cast<std::int64_t>(e.cpu_ms * 1e6)
          << ", \"cycles\": " << s.horizon
          << ", \"availability\": " << e.result.availability
          << ", \"service_availability\": " << e.result.service_availability
          << ", \"time_to_recovery\": " << e.result.time_to_recovery
          << ", \"avg_nodes\": " << e.result.avg_nodes
          << ", \"quorum_stalls\": " << e.result.quorum_stalls << "}\n";
    }
  }
  report.add("emulation.train_ms", mean(train_ms), "ms");
  for (int f = 0; f < kFamilies; ++f) {
    report.add(std::string("emulation.cycle_ms.") + kFamilyNames[f],
               family_cycles[f] > 0 ? family_ms[f] / family_cycles[f] : 0.0, "ms");
  }
  report.add("scenario.recoveries", recoveries, "count");
  report.add("scenario.evictions", evictions, "count");
  report.add("scenario.additions", additions, "count");
  report.add("scenario.quorum_stalls", stalls, "count");
  report.add("scenario.view_changes", views, "count");
  report.add("scenario.flood_rejections", rejections, "count");
  report.add("scenario.fallback_cycles", fallback, "count");
  report.add("scenario.time_to_recovery", mean(ttr), "cycles");
  const double cpu_per_cycle = w.timed_cpu_s / static_cast<double>(w.timed_cycles);
  report.add("bench.trace_overhead_share",
             untraced_cpu_per_cycle > 0.0
                 ? (cpu_per_cycle - untraced_cpu_per_cycle) / untraced_cpu_per_cycle
                 : 0.0,
             "share");
  return report;
}

}  // namespace perfbench
