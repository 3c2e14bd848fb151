// level2-resolve: core::AsyncCmdpController on the wall-clock lane
// (deterministic = false) at smax = 128, f = 3.  Each cycle the bench picks
// the next seeded drifted kernel (q_healthy, q_recover, epsilon_A), calls
// begin_cycle, and polls — querying the policy as the decision path would —
// until the new epoch is visible.  The SolveFn rebuilds the kernel with
// SystemCmdp::parametric and re-solves it warm with solve_replication_lp;
// one cycle in every kCrashBlock restarts cold through inject_crash.
//
// This is the only workload where the pomdp kernel build, the sparse
// simplex (all of its pivots on the cold restarts) and the policy flip
// dominate.
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "tolerance/core/async_controller.hpp"
#include "tolerance/pomdp/system_model.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = tolerance::core;
namespace solvers = tolerance::solvers;
using tolerance::pomdp::SystemCmdp;

constexpr int kSmax = 128;
constexpr int kF = 3;
// The operating point make_scenario_runner derives from the Table 8 node
// parameters: q_healthy = (1 - p_attack)(1 - p_crash_healthy), q_recover =
// p_update + 0.2 * alpha*, epsilon_A = 0.9.  Drift stays inside the
// ranges a probe re-solved warm with zero pivots.
constexpr double kQHealthy = 0.9 * (1.0 - 1e-5);
constexpr double kQRecover = 0.02 + 0.2 * 0.76;
constexpr double kEpsilon = 0.9;
constexpr double kDriftQHealthy = 0.03;
constexpr double kDriftQRecover = 0.15;
constexpr double kDriftEpsilon = 0.08;
/// One cold restart per this many cycles, at a seeded offset in each block.
constexpr long kCrashBlock = 32;
/// The idle solver thread moves to the next vCPU every this many cycles
/// (see visit_cpu), so a run samples every core of a shared host.
constexpr long kCyclesPerCpu = 1;
/// Re-solves per second of --seconds (fixed work; about --seconds of wall
/// time on a 4-vCPU x86 VM).
constexpr double kCyclesPerSecond = 200.0;
constexpr int kSetups = 9;
constexpr int kVerifySamples = 24;
constexpr double kFlipTimeout = 5.0;
constexpr double kOptimumTolerance = 1e-7;

struct Kernel {
  double q_healthy = kQHealthy;
  double q_recover = kQRecover;
  double epsilon = kEpsilon;
};

SystemCmdp build(const Kernel& k) {
  return SystemCmdp::parametric(kSmax, kF, k.epsilon, k.q_healthy, k.q_recover);
}

/// What the SolveFn returned for a cycle: written on the solver thread
/// before the controller publishes, read by the bench after it sees the
/// epoch flip.
struct SolveRecord {
  bool filled = false;
  bool valid = false;
  bool warm = false;
  double average_cost = 0.0;
  double availability = 0.0;
  double probe_add_probability = 0.0;
  long iterations = 0;
  std::size_t eta_nnz = 0;
  std::int64_t build_ns = 0;
  std::int64_t solve_ns = 0;
};

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

class Level2Run {
 public:
  Level2Run(std::uint64_t seed, double seconds, bool traced)
      : traced_(traced) {
    SeededRng rng(seed);
    const auto cycles = static_cast<long>(std::max(100.0, kCyclesPerSecond * seconds));
    last_cycle_ = cycles + 1;  // cycle 1 belongs to set-up
    kernels_.resize(static_cast<std::size_t>(last_cycle_) + 1);
    crash_.assign(kernels_.size(), false);
    for (Kernel& k : kernels_) {
      k.q_healthy = kQHealthy + rng.uniform(-kDriftQHealthy, kDriftQHealthy);
      k.q_recover = kQRecover + rng.uniform(-kDriftQRecover, kDriftQRecover);
      k.epsilon = kEpsilon + rng.uniform(-kDriftEpsilon, kDriftEpsilon);
    }
    for (long block = 2; block <= last_cycle_; block += kCrashBlock) {
      const long at = block + static_cast<long>(rng.below(kCrashBlock));
      if (at <= last_cycle_) crash_[static_cast<std::size_t>(at)] = true;
    }
    probe_state_ = static_cast<int>(rng.below(kSmax / 4));
    controller_seed_ = rng.next();
    for (int i = 0; i < kVerifySamples; ++i) {
      verify_.push_back(2 + static_cast<long>(rng.below(
                                static_cast<std::uint64_t>(cycles))));
    }
  }

  /// Kernel, cold solve, controller, and the first (verified) warm re-solve.
  double set_up(Report& report) {
    controller_.reset();
    records_.assign(kernels_.size(), SolveRecord{});
    const auto t0 = Clock::now();
    const solvers::CmdpSolution initial =
        solvers::solve_replication_lp(build(kernels_[0]));
    core::AsyncControllerConfig cfg;
    cfg.resolve_period = 1;
    cfg.deterministic = false;
    cfg.verify_warm_optimum = true;
    controller_ = std::make_unique<core::AsyncCmdpController>(
        initial,
        [this](const tolerance::lp::SimplexBasis* warm) { return solve(warm); },
        cfg, controller_seed_);
    const bool flipped = cycle(1).has_value();
    const double s = seconds_between(t0, Clock::now());
    report.check(flipped && records_[1].valid, "set-up re-solve did not publish");
    return s;
  }

  struct Window {
    std::vector<double> latency_ms;  ///< per cycle, in cycle order
    double elapsed_s = 0.0;
    double cpu_s = 0.0;
    long published = 0;
  };

  Window run(Report& report) {
    Window w;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    for (long c = 2; c <= last_cycle_; ++c) {
      const int solver = solver_tid_.load(std::memory_order_relaxed);
      if (c % kCyclesPerCpu == 0 && solver != 0) {
        visit_cpu(static_cast<std::uint64_t>(c / kCyclesPerCpu), solver);
      }
      if (crash_[static_cast<std::size_t>(c)]) controller_->inject_crash(c - 1, 1);
      const auto latency = cycle(c);
      if (!latency) {
        report.check(false, "cycle " + std::to_string(c) + " published no policy");
        break;
      }
      w.latency_ms.push_back(*latency * 1e3);
      const SolveRecord& r = records_[static_cast<std::size_t>(c)];
      if (r.filled && r.valid) ++w.published;
      // The table the decision path now reads is the one this cycle solved.
      const core::PolicyQuery q = controller_->policy_at(probe_state_);
      report.check(q.add_probability == r.probe_add_probability,
                   "published table differs from the cycle's solution");
      if (report.problems.size() > 8) break;
    }
    w.elapsed_s = seconds_between(t0, Clock::now());
    w.cpu_s = process_cpu_seconds() - cpu0;
    return w;
  }

  /// Output checks after the window.
  void check(Report& report) const {
    const core::AsyncControllerStats stats = controller_->stats();
    report.check(stats.rejected == 0, "the poison guard rejected a re-solve");
    for (long c = 1; c <= last_cycle_; ++c) {
      const SolveRecord& r = records_[static_cast<std::size_t>(c)];
      if (!r.filled) continue;
      report.check(r.valid, "cycle " + std::to_string(c) + " solved an invalid policy");
    }
    // A cold re-solve of sampled kernels matches the published optimum.
    for (long c : verify_) {
      const SolveRecord& r = records_[static_cast<std::size_t>(c)];
      if (!r.filled) continue;
      const auto cold = solvers::solve_replication_lp(
          build(kernels_[static_cast<std::size_t>(c)]));
      report.check(cold.valid_policy() &&
                       std::abs(cold.average_cost - r.average_cost) <=
                           kOptimumTolerance,
                   "cycle " + std::to_string(c) +
                       ": cold re-solve disagrees with the published optimum");
    }
  }

  long cycles() const { return last_cycle_ - 1; }
  const std::vector<SolveRecord>& records() const { return records_; }
  const std::vector<double>& policy_query_ns() const { return query_ns_; }

 private:
  /// One control cycle: begin_cycle, then poll the decision path until the
  /// new epoch is visible.  Returns the flip latency in seconds.
  std::optional<double> cycle(long c) {
    current_.store(c, std::memory_order_release);
    const std::uint64_t expected = controller_->epoch() + 1;
    const auto t0 = Clock::now();
    controller_->begin_cycle(c);
    int s = 0;
    while (controller_->epoch() < expected) {
      if (seconds_between(t0, Clock::now()) > kFlipTimeout) return std::nullopt;
      if (traced_) {
        const auto q0 = Clock::now();
        controller_->policy_at(s);
        query_ns_.push_back(static_cast<double>(ns_between(q0, Clock::now())));
      } else {
        controller_->policy_at(s);
      }
      s = (s + 7) % (kSmax + 1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return seconds_between(t0, Clock::now());
  }

  solvers::CmdpSolution solve(const tolerance::lp::SimplexBasis* warm) {
    const long c = current_.load(std::memory_order_acquire);
    solver_tid_.store(current_tid(), std::memory_order_relaxed);
    const Kernel& k = kernels_[static_cast<std::size_t>(c)];
    SolveRecord& r = records_[static_cast<std::size_t>(c)];
    solvers::CmdpSolution sol;
    if (traced_) {
      const auto t0 = Clock::now();
      const SystemCmdp cmdp = build(k);
      const auto t1 = Clock::now();
      sol = solvers::solve_replication_lp(cmdp, {}, warm);
      const auto t2 = Clock::now();
      if (!r.filled) {
        r.build_ns = ns_between(t0, t1);
        r.solve_ns = ns_between(t1, t2);
      }
    } else {
      sol = solvers::solve_replication_lp(build(k), {}, warm);
    }
    if (!r.filled) {
      // The first solve of a cycle is the one published; a second (the
      // controller's warm==cold verification) only re-derives it.
      r.filled = true;
      r.valid = sol.valid_policy();
      r.warm = warm != nullptr;
      r.average_cost = sol.average_cost;
      r.availability = sol.availability;
      r.probe_add_probability = sol.add_probability_at(probe_state_);
      r.iterations = sol.lp_iterations;
      r.eta_nnz = sol.lp_eta_nnz;
    }
    return sol;
  }

  const bool traced_;
  long last_cycle_ = 0;
  std::vector<Kernel> kernels_;
  std::vector<bool> crash_;
  std::vector<long> verify_;
  int probe_state_ = 0;
  std::uint64_t controller_seed_ = 0;
  std::vector<SolveRecord> records_;
  std::atomic<long> current_{0};
  std::atomic<int> solver_tid_{0};
  std::vector<double> query_ns_;
  // Last: destroyed first, joining the solver thread before the state it
  // reads goes away.
  std::unique_ptr<core::AsyncCmdpController> controller_;
};

}  // namespace

Report run_level2_resolve(const RunOptions& o) {
  Report report;
  if (!o.trace) {
    Level2Run bench(o.seed, o.seconds, false);
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) setups.push_back(bench.set_up(report));
    const Level2Run::Window w = bench.run(report);
    bench.check(report);
    const auto p50 = percentile(w.latency_ms, 50.0);
    const auto p99 = percentile(w.latency_ms, 99.0);
    report.check(p50 && p99, "too few cycles for a p99");
    std::vector<double> availability;
    std::vector<double> nodes;
    for (long c = 2; c < 2 + static_cast<long>(w.latency_ms.size()); ++c) {
      const SolveRecord& r = bench.records()[static_cast<std::size_t>(c)];
      availability.push_back(r.availability);
      nodes.push_back(r.average_cost);
    }
    const double cycles = static_cast<double>(std::max<std::size_t>(w.latency_ms.size(), 1));
    report.attempted = static_cast<std::uint64_t>(bench.cycles());
    report.failed = report.attempted - static_cast<std::uint64_t>(w.published);
    report.add("setup_s", median(setups), "s");
    report.add("throughput_per_s", static_cast<double>(w.published) / w.elapsed_s, "1/s");
    report.add("latency_p50_ms", p50.value_or(0.0), "ms");
    report.add("latency_p99_ms", p99.value_or(0.0), "ms");
    report.add("served_share",
               static_cast<double>(w.published) / static_cast<double>(bench.cycles()),
               "share");
    report.add("cpu_us_per_op", w.cpu_s / cycles * 1e6, "us");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("availability", mean(availability), "share");
    report.add("avg_nodes", mean(nodes), "nodes");
    return report;
  }

  // Traced run: the same fixed work untraced first (the overhead baseline).
  double untraced_cpu_per_op = 0.0;
  {
    Level2Run bench(o.seed, o.seconds, false);
    bench.set_up(report);
    const Level2Run::Window w = bench.run(report);
    bench.check(report);
    untraced_cpu_per_op = w.cpu_s / static_cast<double>(std::max<std::size_t>(w.latency_ms.size(), 1));
  }
  Level2Run bench(o.seed, o.seconds, true);
  bench.set_up(report);
  const Level2Run::Window w = bench.run(report);
  bench.check(report);
  report.attempted = static_cast<std::uint64_t>(bench.cycles());
  report.failed = report.attempted - static_cast<std::uint64_t>(w.published);
  std::vector<double> build_ms, warm_ms, cold_ms, cold_pivots, eta, publish_us;
  for (long c = 2; c < 2 + static_cast<long>(w.latency_ms.size()); ++c) {
    const SolveRecord& r = bench.records()[static_cast<std::size_t>(c)];
    build_ms.push_back(static_cast<double>(r.build_ns) * 1e-6);
    (r.warm ? warm_ms : cold_ms).push_back(static_cast<double>(r.solve_ns) * 1e-6);
    if (!r.warm) cold_pivots.push_back(static_cast<double>(r.iterations));
    eta.push_back(static_cast<double>(r.eta_nnz));
    publish_us.push_back(w.latency_ms[static_cast<std::size_t>(c - 2)] * 1e3 -
                         static_cast<double>(r.build_ns + r.solve_ns) * 1e-3);
  }
  const double cpu_per_op =
      w.cpu_s / static_cast<double>(std::max<std::size_t>(w.latency_ms.size(), 1));
  if (!o.trace_out.empty()) {
    // One line per cycle, keyed by (0, cycle): the begin_cycle-to-flip span
    // and the build and solve spans inside it.
    std::ofstream out(o.trace_out, std::ios::app);
    for (long c = 2; c < 2 + static_cast<long>(w.latency_ms.size()); ++c) {
      const SolveRecord& r = bench.records()[static_cast<std::size_t>(c)];
      out << "{\"layer\": \"core.cycle\", \"key\": [0, " << c
          << "], \"dur_ns\": "
          << static_cast<std::int64_t>(w.latency_ms[static_cast<std::size_t>(c - 2)] * 1e6)
          << ", \"children\": {\"pomdp.kernel_build\": " << r.build_ns
          << ", \"" << (r.warm ? "solvers.lp_warm" : "solvers.lp_cold")
          << "\": " << r.solve_ns << "}, \"pivots\": " << r.iterations << "}\n";
    }
  }
  report.add("pomdp.kernel_build_ms", mean(build_ms), "ms");
  report.add("solvers.lp_warm_ms", mean(warm_ms), "ms");
  report.add("solvers.lp_cold_ms", mean(cold_ms), "ms");
  report.add("lp.pivots_per_cold_solve", mean(cold_pivots), "count");
  report.add("lp.eta_nnz", mean(eta), "count");
  report.add("core.publish_us", mean(publish_us), "us");
  report.add("core.policy_query_ns.p50",
             percentile(bench.policy_query_ns(), 50.0).value_or(0.0), "ns");
  report.add("core.policy_query_ns.p99",
             percentile(bench.policy_query_ns(), 99.0).value_or(0.0), "ns");
  report.add("bench.trace_overhead_share",
             untraced_cpu_per_op > 0.0
                 ? (cpu_per_op - untraced_cpu_per_op) / untraced_cpu_per_op
                 : 0.0,
             "share");
  return report;
}

}  // namespace perfbench
