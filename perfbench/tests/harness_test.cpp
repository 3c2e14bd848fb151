// Tests for the benchmark's own accounting helpers.  Self-contained (no
// test framework), so the benchmark package builds with the compiler alone.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_needs_ten_samples_beyond() {
  using perfbench::percentile;
  // 999 samples leave only 9 beyond the p99 rank: refused.
  expect(!percentile(ramp(999), 99.0).has_value(), "p99 of 999 samples refused");
  // 1,000 leave exactly 10 beyond rank 990.
  const auto p99 = percentile(ramp(1000), 99.0);
  expect(p99.has_value() && near(*p99, 990.0), "p99 of 1..1000 is 990");
  expect(!percentile(ramp(19), 50.0).has_value(), "p50 of 19 samples refused");
  const auto p50 = percentile(ramp(20), 50.0);
  expect(p50.has_value() && near(*p50, 10.0), "p50 of 1..20 is 10");
  expect(!percentile({}, 50.0).has_value(), "empty sample refused");
  // Order of the input does not matter.
  std::vector<double> shuffled = ramp(1000);
  std::swap(shuffled[0], shuffled[999]);
  std::swap(shuffled[10], shuffled[500]);
  expect(near(percentile(shuffled, 99.0).value_or(-1), 990.0), "p99 ignores order");
}

void stalled_generator_charges_wait_from_due_time() {
  // Four requests due 1 ms apart; the generator stalls and hands all of
  // them over at 10 ms, and each completes 1 ms after it was handed over.
  std::vector<perfbench::PacedRequest> reqs(4);
  for (int i = 0; i < 4; ++i) {
    reqs[static_cast<std::size_t>(i)].due = 0.001 * i;
    reqs[static_cast<std::size_t>(i)].posted = 0.010;
    reqs[static_cast<std::size_t>(i)].done = 0.011;
  }
  const auto t = perfbench::tally_paced(reqs, 0.0095);
  expect(t.attempted == 4 && t.completed == 4, "all four counted");
  expect(t.latency_ms.size() == 4 && near(t.latency_ms[0], 11.0) &&
             near(t.latency_ms[1], 10.0) && near(t.latency_ms[2], 9.0) &&
             near(t.latency_ms[3], 8.0),
         "latency runs from the due time, not from the hand-over");
  expect(t.served == 2, "only the two within 9.5 ms of their due time are served");
  const auto lag = perfbench::generator_lag_ms(reqs);
  expect(lag.size() == 4 && near(lag[0], 10.0) && near(lag[3], 7.0),
         "generator lag is hand-over minus due time");
}

void unfinished_requests_are_not_served() {
  // Closed loop: ten due, seven finished (one of them past the limit).
  const std::vector<double> done = {0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.2};
  const auto t = perfbench::tally_fixed_work(10, done, 0.05);
  expect(t.attempted == 10, "attempted is the fixed quota");
  expect(t.completed == 7 && t.served == 6, "unfinished and late are not served");
  expect(near(t.served_share(), 0.6), "served share counts against the quota");
  // Open loop: a request that never completed is attempted, not served,
  // and contributes no latency sample.
  std::vector<perfbench::PacedRequest> reqs(3);
  reqs[0] = {0.0, 0.0, 0.002};
  reqs[1] = {0.001, 0.001, -1.0};
  reqs[2] = {0.002, 0.002, 0.004};
  const auto p = perfbench::tally_paced(reqs, 0.05);
  expect(p.attempted == 3 && p.completed == 2 && p.served == 2 &&
             p.latency_ms.size() == 2,
         "open loop: unfinished request counted as not served");
}

void windows_measure_outages() {
  // Replies in windows 0, 1, 4 of five 100 ms windows.
  expect(near(perfbench::served_window_share({0.05, 0.15, 0.45}, 0.0, 0.5, 0.1), 0.6),
         "three of five windows served");
  expect(near(perfbench::served_window_share({0.05, 0.15}, 0.0, 0.2, 0.1), 1.0),
         "no outage reads 1");
}

void window_medians_skip_a_stalled_second() {
  // Three one-second windows of 1,000 requests each; the middle second
  // stalls (every latency 50 ms) while the others run at 5 ms.
  std::vector<double> key, latency, done;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      const double t = w + i / 1000.0;
      key.push_back(t);
      done.push_back(t);
      latency.push_back(w == 1 ? 50.0 : 5.0);
    }
  }
  const auto m = perfbench::window_medians(key, latency, done, {0.0, 0.1, 0.2, 0.3});
  expect(m.windows == 3, "three windows with a valid p99");
  expect(near(m.p50_ms, 5.0) && near(m.p99_ms, 5.0), "the stalled second does not set the figure");
  expect(near(m.throughput, 1000.0), "throughput is completions per second");
  expect(near(m.cpu_us_per_op, 100.0), "0.1 s of CPU over 1,000 requests is 100 us each");
  // 999 requests in a window leave too few beyond its p99: skipped.
  key.pop_back();
  latency.pop_back();
  done.pop_back();
  expect(perfbench::window_medians(key, latency, done, {0.0, 0.1, 0.2, 0.3}).windows == 2,
         "a window without ten samples beyond its p99 is skipped");
}

void seeded_inputs_repeat() {
  perfbench::SeededRng a(7);
  perfbench::SeededRng b(7);
  perfbench::SeededRng c(8);
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    same &= x == b.next();
    differs |= x != c.next();
  }
  expect(same && differs, "same seed, same inputs; another seed, other inputs");
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  stalled_generator_charges_wait_from_due_time();
  unfinished_requests_are_not_served();
  windows_measure_outages();
  window_medians_skip_a_stalled_second();
  seeded_inputs_repeat();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench harness tests passed\n";
  return 0;
}
