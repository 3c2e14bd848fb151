#include "tolerance/core/async_controller.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "tolerance/solvers/threshold_policy.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::core {
namespace {

/// Largest gap between the warm-started and the cold optimum that the
/// warm==cold invariant accepts.
constexpr double kWarmOptimumTolerance = 1e-7;
/// Fallback threshold when the published table carries no Thm. 2
/// decomposition (beta1 == beta2 == -1): add iff s <= this.
constexpr int kFallbackAddThreshold = 1;

}  // namespace

const char* to_string(ControllerMode mode) {
  switch (mode) {
    case ControllerMode::Inline:
      return "inline";
    case ControllerMode::Fresh:
      return "fresh";
    case ControllerMode::Hold:
      return "hold";
    case ControllerMode::Fallback:
      return "fallback";
  }
  return "?";
}

char mode_letter(ControllerMode mode) {
  switch (mode) {
    case ControllerMode::Inline:
      return 'I';
    case ControllerMode::Fresh:
      return 'F';
    case ControllerMode::Hold:
      return 'H';
    case ControllerMode::Fallback:
      return 'B';
  }
  return '?';
}

AsyncCmdpController::AsyncCmdpController(const solvers::CmdpSolution& initial,
                                         SolveFn solve,
                                         AsyncControllerConfig config,
                                         std::uint64_t seed)
    : config_(config), solve_(std::move(solve)), retry_rng_(seed) {
  TOL_ENSURE(initial.valid_policy(),
             "initial policy must pass the poison guard");
  TOL_ENSURE(solve_ != nullptr, "solve callback required");
  TOL_ENSURE(config_.resolve_period >= 1 && config_.solve_latency_cycles >= 0,
             "resolve cadence must be positive");
  TOL_ENSURE(config_.staleness_budget >= 0 &&
                 config_.fallback_deadline >= config_.staleness_budget,
             "ladder boundaries must be ordered");
  basis_ = initial.basis;
  have_basis_ = initial.status == lp::LpStatus::Optimal;
  epoch_counter_ = 1;
  buffer_.publish(make_table(initial, epoch_counter_));
  stats_.policy_epoch = epoch_counter_;
  backoff_ = config_.retry_backoff_cycles;
  next_resolve_cycle_ = config_.resolve_period;
}

AsyncCmdpController::~AsyncCmdpController() = default;

PolicyBuffer::Table AsyncCmdpController::make_table(
    const solvers::CmdpSolution& solution, std::uint64_t epoch) {
  PolicyBuffer::Table table;
  table.epoch = epoch;
  table.add_probability = solution.add_probability;
  table.beta1 = solution.beta1;
  table.beta2 = solution.beta2;
  table.kappa = solution.kappa;
  table.average_cost = solution.average_cost;
  return table;
}

void AsyncCmdpController::launch_locked(long cycle) {
  TOL_ENSURE(!pending_, "single in-flight re-solve by construction");
  const std::uint64_t id = ++request_seq_;
  pending_ = Pending{id, cycle + config_.solve_latency_cycles};
  std::optional<lp::SimplexBasis> warm;
  if (have_basis_) warm = basis_;
  bool verify = false;
  if (config_.verify_warm_optimum && warm && !warm_verified_) {
    verify = true;
    warm_verified_ = true;
  }
  pool_.submit([this, id, warm = std::move(warm), verify]() {
    solvers::CmdpSolution result;
    std::optional<std::string> error;
    try {
      result = solve_(warm ? &*warm : nullptr);
      if (verify && result.valid_policy() &&
          result.warm_start != lp::WarmStart::None) {
        // Warm==cold optimum invariant: a warm-started simplex may take a
        // different path but must land on the same optimal cost.
        const solvers::CmdpSolution cold = solve_(nullptr);
        TOL_ENSURE(cold.valid_policy() &&
                       std::abs(cold.average_cost - result.average_cost) <=
                           kWarmOptimumTolerance,
                   "warm-started re-solve must reach the cold optimum");
      }
    } catch (const std::exception& e) {
      // A throw on the worker would terminate the process; hand the guard
      // a poisoned result instead, so it rejects and retries with backoff.
      result = solvers::CmdpSolution{};
      error = e.what();
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (error) {
      ++stats_.solver_errors;
      stats_.last_solver_error = std::move(*error);
    }
    if (!pending_ || pending_->id != id) return;  // orphaned by a crash
    if (fail_next_ > 0) {
      // Scripted solver failure: the result reaches the controller poisoned
      // and must be caught by the valid_policy() guard downstream.
      --fail_next_;
      result.status = lp::LpStatus::Infeasible;
    }
    if (config_.deterministic) {
      parked_.emplace(id, std::move(result));
      harvest_cv_.notify_all();
    } else {
      handle_result_locked(std::move(result), cycle_);
    }
  });
}

void AsyncCmdpController::handle_result_locked(solvers::CmdpSolution result,
                                               long cycle) {
  pending_.reset();
  if (result.valid_policy()) {
    ++epoch_counter_;
    ++stats_.resolves;
    basis_ = result.basis;
    have_basis_ = true;
    last_publish_cycle_ = cycle;
    backoff_ = config_.retry_backoff_cycles;
    next_resolve_cycle_ = cycle + config_.resolve_period;
    buffer_.publish(make_table(result, epoch_counter_));
    stats_.policy_epoch = epoch_counter_;
  } else {
    // Poison guard: never flip a bad table in; retry with jittered
    // exponential backoff so repeated failures do not busy-solve.
    ++stats_.rejected;
    const int jitter = backoff_ > 0 ? retry_rng_.uniform_int(0, backoff_) : 0;
    next_resolve_cycle_ = cycle + std::max(1, backoff_ + jitter);
    backoff_ = std::min(std::max(1, backoff_ * 2),
                        config_.max_retry_backoff_cycles);
  }
}

void AsyncCmdpController::begin_cycle(long cycle) {
  std::unique_lock<std::mutex> lock(mu_);
  TOL_ENSURE(cycle >= cycle_, "control cycles must be non-decreasing");
  cycle_ = cycle;
  const bool crashed = cycle < crashed_until_;
  const bool stalled = cycle < stalled_until_;
  if (!crashed && !stalled) {
    if (config_.deterministic && pending_ && cycle >= pending_->due_cycle) {
      // Deterministic lane: the solve was launched cycles ago on the worker;
      // its simulated completion time is now, so join it here.  This wait is
      // for a task that is already running (or queued on a one-worker pool
      // with nothing ahead of it) — it models solve latency in simulated
      // cycles, it does not run the LP on this thread.
      const std::uint64_t id = pending_->id;
      harvest_cv_.wait(lock, [&] {
        return parked_.count(id) != 0 || !pending_ || pending_->id != id;
      });
      auto it = parked_.find(id);
      if (it != parked_.end() && pending_ && pending_->id == id) {
        solvers::CmdpSolution result = std::move(it->second);
        parked_.erase(it);
        handle_result_locked(std::move(result), cycle);
      }
    }
    if (!pending_ && cycle >= next_resolve_cycle_) launch_locked(cycle);
  }
  // Re-grade the staleness ladder after any harvest so a flip that landed
  // this cycle counts as fresh immediately.
  const long staleness = cycle - last_publish_cycle_;
  ControllerMode mode = ControllerMode::Fresh;
  if (staleness > static_cast<long>(config_.fallback_deadline)) {
    mode = ControllerMode::Fallback;
    ++stats_.fallback_cycles;
  } else if (staleness > static_cast<long>(config_.staleness_budget)) {
    mode = ControllerMode::Hold;
    ++stats_.hold_cycles;
  }
  stats_.max_staleness =
      std::max(stats_.max_staleness, static_cast<int>(staleness));
  mode_atomic_.store(static_cast<int>(mode), std::memory_order_release);
  staleness_atomic_.store(static_cast<int>(staleness),
                          std::memory_order_release);
}

PolicyQuery AsyncCmdpController::policy_at(int s) const {
  PolicyQuery query;
  query.mode = mode();
  query.staleness = staleness_atomic_.load(std::memory_order_acquire);
  const PolicyBuffer::Table table = buffer_.snapshot();
  query.epoch = table.epoch;
  if (!table.add_probability.empty()) {
    const int hi = static_cast<int>(table.add_probability.size()) - 1;
    const int clamped = std::min(std::max(s, 0), hi);
    query.add_probability =
        table.add_probability[static_cast<std::size_t>(clamped)];
  }
  query.fallback_add =
      solvers::SystemThresholdPolicy(
          solvers::SystemThresholdPolicy::dominant_threshold(
              table.beta1, table.beta2, table.kappa,
              kFallbackAddThreshold))
          .add(s);
  return query;
}

AsyncControllerStats AsyncCmdpController::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

void AsyncCmdpController::inject_crash(long cycle, long duration) {
  std::unique_lock<std::mutex> lock(mu_);
  crashed_until_ = std::max(crashed_until_, cycle + std::max<long>(1, duration));
  // The crash takes the in-flight solve with it: orphan it (the worker drops
  // the result when it sees the pending id is gone) and restart cold — a
  // restarted controller has no in-memory basis to warm from.
  pending_.reset();
  parked_.clear();
  have_basis_ = false;
  backoff_ = config_.retry_backoff_cycles;
  next_resolve_cycle_ = crashed_until_;  // restart re-solves immediately
  harvest_cv_.notify_all();
}

void AsyncCmdpController::inject_stall(long cycle, long duration) {
  std::unique_lock<std::mutex> lock(mu_);
  stalled_until_ = std::max(stalled_until_, cycle + std::max<long>(1, duration));
}

void AsyncCmdpController::inject_solver_failure(int count) {
  std::unique_lock<std::mutex> lock(mu_);
  TOL_ENSURE(count >= 0, "failure count must be non-negative");
  fail_next_ += count;
}

}  // namespace tolerance::core
