#include "harness.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>

namespace perfbench {

namespace {

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

int current_tid() { return static_cast<int>(gettid()); }

void visit_cpu(std::uint64_t turn, int tid) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[turn % allowed.size()], &one);
  sched_setaffinity(tid, sizeof one, &one);
}

std::optional<double> percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0) || p > 100.0) return std::nullopt;
  // Nearest rank: the k-th smallest sample with k = ceil(p/100 * n).
  std::size_t k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  k = std::clamp<std::size_t>(k, 1, n);
  if (n - k < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   samples.end());
  return samples[k - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (hi + *std::max_element(v.begin(),
                                 v.begin() + static_cast<std::ptrdiff_t>(mid))) /
         2.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

ServiceTally tally_fixed_work(std::size_t quota,
                              const std::vector<double>& latency_s,
                              double limit_s) {
  ServiceTally t;
  t.attempted = quota;
  t.completed = std::min(quota, latency_s.size());
  t.latency_ms.reserve(t.completed);
  for (std::size_t i = 0; i < t.completed; ++i) {
    t.latency_ms.push_back(latency_s[i] * 1e3);
    if (latency_s[i] <= limit_s) ++t.served;
  }
  return t;
}

ServiceTally tally_paced(const std::vector<PacedRequest>& requests,
                         double limit_s) {
  ServiceTally t;
  t.attempted = requests.size();
  t.latency_ms.reserve(requests.size());
  for (const PacedRequest& r : requests) {
    if (r.done < 0.0) continue;
    const double latency = r.done - r.due;
    ++t.completed;
    t.latency_ms.push_back(latency * 1e3);
    if (latency <= limit_s) ++t.served;
  }
  return t;
}

std::vector<double> generator_lag_ms(
    const std::vector<PacedRequest>& requests) {
  std::vector<double> lag;
  lag.reserve(requests.size());
  for (const PacedRequest& r : requests) {
    if (r.posted >= 0.0) lag.push_back((r.posted - r.due) * 1e3);
  }
  return lag;
}

double served_window_share(const std::vector<double>& done_times, double start,
                           double end, double window) {
  const auto windows = static_cast<std::size_t>((end - start) / window);
  if (windows == 0) return 0.0;
  std::vector<bool> served(windows, false);
  for (double t : done_times) {
    if (t < start) continue;
    const auto i = static_cast<std::size_t>((t - start) / window);
    if (i < windows) served[i] = true;
  }
  const auto hit = static_cast<double>(std::count(served.begin(), served.end(), true));
  return hit / static_cast<double>(windows);
}

WindowMedians window_medians(const std::vector<double>& key_s,
                             const std::vector<double>& latency_ms,
                             const std::vector<double>& done_s,
                             const std::vector<double>& cpu_marks) {
  WindowMedians m;
  if (cpu_marks.size() < 2) return m;
  const std::size_t n = cpu_marks.size() - 1;
  std::vector<std::vector<double>> latency(n);
  std::vector<std::size_t> done(n, 0);
  for (std::size_t i = 0; i < key_s.size() && i < latency_ms.size(); ++i) {
    if (key_s[i] < 0.0) continue;
    const auto w = static_cast<std::size_t>(key_s[i]);
    if (w < n) latency[w].push_back(latency_ms[i]);
  }
  for (double t : done_s) {
    if (t < 0.0) continue;
    const auto w = static_cast<std::size_t>(t);
    if (w < n) ++done[w];
  }
  std::vector<double> tput, p50, p99, cpu;
  m.min_window_samples = ~std::size_t{0};
  for (std::size_t w = 0; w < n; ++w) {
    const auto hi = percentile(latency[w], 99.0);
    if (!hi || done[w] == 0) continue;
    m.min_window_samples = std::min(m.min_window_samples, latency[w].size());
    tput.push_back(static_cast<double>(done[w]));
    p50.push_back(percentile(latency[w], 50.0).value_or(0.0));
    p99.push_back(*hi);
    cpu.push_back((cpu_marks[w + 1] - cpu_marks[w]) * 1e6 /
                  static_cast<double>(done[w]));
  }
  m.windows = p99.size();
  if (m.windows == 0) {
    m.min_window_samples = 0;
    return m;
  }
  m.throughput = median(tput);
  m.p50_ms = median(p50);
  m.p99_ms = median(p99);
  m.cpu_us_per_op = median(cpu);
  return m;
}

std::pair<double, double> machine_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double host_reference_ms() {
  constexpr int n = 64;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<std::size_t>(i)] = 1.0 + (i % 7) * 0.125;
    b[static_cast<std::size_t>(i)] = 1.0 - (i % 5) * 0.0625;
  }
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int product = 0; product < 60; ++product) {
      std::fill(c.begin(), c.end(), 0.0);
      for (int i = 0; i < n; ++i) {
        for (int k = 0; k < n; ++k) {
          const double aik = a[static_cast<std::size_t>(i * n + k)];
          for (int j = 0; j < n; ++j) {
            c[static_cast<std::size_t>(i * n + j)] +=
                aik * b[static_cast<std::size_t>(k * n + j)];
          }
        }
      }
      a[0] = c[static_cast<std::size_t>(product % (n * n))] * 1e-6;  // chain the products
    }
    times.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(times);
}

void print_report(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  for (const std::string& p : report.problems) {
    std::cout << "CHECK FAILED: " << p << '\n';
  }
  std::string diag = "{";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Metric& d = report.diagnostics[i];
    diag += (i ? ", \"" : "\"") + d.name + "\": {\"value\": " +
            json_number(d.value) + ", \"unit\": \"" + d.unit + "\"}";
  }
  std::cout << "diagnostics " << diag << "}\n";
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace perfbench
