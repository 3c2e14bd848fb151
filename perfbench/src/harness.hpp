// Helpers shared by every perfbench workload: the percentile rule, the
// closed-loop and open-loop accounting, process CPU and peak-RSS probes,
// the seeded input generator, the host-speed reference loop, and the
// result printer whose last line is the one JSON object a run reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed by every thread of this process so far.
double process_cpu_seconds();
/// CPU seconds consumed by the calling thread so far.
double thread_cpu_seconds();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// Let the calling thread's short sleeps end within ~1 us of their target
/// (Linux timer slack; the default 50 us would quantize the paced
/// generator's 333 us send interval).
void tighten_timer_slack();

/// Move thread `tid` (0: the calling thread) to the `turn`-th CPU this
/// process may run on (modulo their count).  On a shared host one vCPU can run ~1.7x slower
/// than another for seconds at a time; a single-threaded stage that visits
/// every vCPU in turn samples the whole machine instead of whichever core
/// the scheduler happened to leave it on.  A no-op where affinity is
/// unavailable.
void visit_cpu(std::uint64_t turn, int tid = 0);
/// The calling thread's kernel thread id (for visit_cpu).
int current_tid();

/// Inputs come from --seed through this generator only (SplitMix64), so a
/// seed means the same inputs on every platform and standard library.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Samples that must lie beyond a percentile before it may be reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile (p in (0, 100]).  Returns nullopt unless at
/// least kMinTailSamples samples lie beyond the chosen rank — a p99 needs
/// 1,000 samples — so no report rests on a handful of outliers.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Median of a sample (the setup_s rule: set up several times, report the
/// median); 0 for an empty sample.
double median(std::vector<double> v);
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);

/// What a run of requests amounted to: every attempted request is either
/// served (completed within the latency limit) or not; latencies are kept
/// for the completed ones only.
struct ServiceTally {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t served = 0;
  std::vector<double> latency_ms;  ///< one per completed request
  double served_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(served) /
                                static_cast<double>(attempted);
  }
};

/// Closed loop with a fixed quota: `quota` requests were due to be
/// submitted; `latency_s` holds one entry per completed request.  Requests
/// that were never submitted or never finished count as not served.
ServiceTally tally_fixed_work(std::size_t quota,
                              const std::vector<double>& latency_s,
                              double limit_s);

/// One request of an open loop.  Times are seconds from the start of the
/// run; a negative `done` marks a request that never completed.
struct PacedRequest {
  double due = 0.0;     ///< when the schedule said to send it
  double posted = -1.0; ///< when the generator actually handed it over
  double done = -1.0;   ///< when the f+1-th matching reply arrived
};

/// Open loop: each request is charged from its due time, so a generator
/// that stalls makes every request behind the stall late by the wait.
ServiceTally tally_paced(const std::vector<PacedRequest>& requests,
                         double limit_s);

/// How late the generator handed requests over (posted - due), in ms, one
/// entry per request it posted.
std::vector<double> generator_lag_ms(const std::vector<PacedRequest>& requests);

/// Service availability over fixed windows: the share of the whole
/// windows of [start, end) that saw at least one reply.
double served_window_share(const std::vector<double>& done_times, double start,
                           double end, double window);

/// A run's timings as medians over its whole one-second windows, so a
/// stall of a shared host during one second does not set the run's figure.
/// Each completed request is assigned to the window of its `key` time (its
/// completion in a closed loop, its due time in an open loop) for the
/// latency percentiles, and to the window of its completion for throughput
/// and CPU.  `cpu_marks[w]` is the process CPU at second w of the run.
struct WindowMedians {
  std::size_t windows = 0;        ///< whole windows with a valid p99
  double throughput = 0.0;        ///< completions per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cpu_us_per_op = 0.0;
  std::size_t min_window_samples = 0;  ///< smallest latency sample used
};
WindowMedians window_medians(const std::vector<double>& key_s,
                             const std::vector<double>& latency_ms,
                             const std::vector<double>& done_s,
                             const std::vector<double>& cpu_marks);

/// Cumulative CPU ticks of the whole machine from /proc/stat: (steal,
/// total).  {0, 0} where unavailable.  Steal is time the hypervisor ran
/// something else while this VM's vCPUs were runnable — host drift.
std::pair<double, double> machine_steal_ticks();

/// Fixed floating-point work (dense 64 x 64 matrix products, cache
/// resident) timed on the calling thread, median of five, in ms.  A
/// diagnostic for host-speed drift between sets of runs — it slows when a
/// neighbour shares the physical core — that never scales or gates a metric.
double host_reference_ms();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports.  `problems` lists failed output checks; any
/// entry makes the run incorrect.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  /// Diagnostics printed beside the metrics (never part of them).
  std::vector<Metric> diagnostics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  bool correct() const { return problems.empty(); }
};

/// Print the human-readable lines, then the result as the last line of
/// stdout: {"correct", "attempted", "failed", "metrics"}.
void print_report(const Report& report);

}  // namespace perfbench
