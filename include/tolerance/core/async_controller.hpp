// Asynchronous level-2 controller: the CMDP re-solve moved off the decision
// path, wrapped in a controller-health state machine.
//
// The paper's Algorithm 2 assumes the replication LP re-solves inside every
// control cycle.  In a real deployment the solver is a process like any
// other: it can be slow, GC-paused, crashed, or simply wrong (an infeasible
// or NaN-laden re-solve).  AsyncCmdpController runs the re-solve on a
// one-worker util::ThreadPool, warm-started from the previous optimal basis
// (CmdpSolution::basis), and publishes finished tables through a PolicyBuffer
// A/B flip — so the decision path (SystemController::step) never reads a
// half-updated policy and never blocks on the LP.
//
// Controller-health ladder, advanced once per control cycle:
//
//   FRESH     staleness <= staleness_budget: act on the published table.
//   HOLD      staleness_budget < staleness <= fallback_deadline: keep acting
//             on the last epoch, but flag it (telemetry + bench gates watch
//             this).
//   FALLBACK  staleness > fallback_deadline: the re-solver is presumed
//             crashed or hung; degrade to the deterministic Theorem 2
//             threshold structure (solvers::SystemThresholdPolicy — the
//             level-2 analogue of Theorem 1's provably-structured policy).
//   recovery  any fresh epoch flip returns the ladder to FRESH on the next
//             cycle.
//
// Failed re-solves are retried with jittered exponential backoff; a solve
// that comes back poisoned (CmdpSolution::valid_policy() == false) is
// rejected and never flipped into the live table.
//
// Two clock domains:
//  * deterministic == true (simulation lane): a solve requested at cycle t
//    becomes harvestable at cycle t + solve_latency_cycles; begin_cycle
//    joins the background result at exactly that simulated cycle, so
//    episodes are bit-identical at any thread count.
//  * deterministic == false (wall-clock lane): the solver thread publishes
//    the moment it finishes and begin_cycle never waits — this is the mode
//    that proves the decision path cannot be blocked by a hung solver
//    (tests/controller_test.cpp stalls the solve on a condition variable
//    while the cycle loop keeps completing).
//
// Scripted fault hooks (inject_crash / inject_stall / inject_solver_failure)
// are wired to emulation::ScenarioEvent by the scenario runner.
#pragma once

#include <cstdint>
#include <functional>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "tolerance/core/policy_buffer.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/util/rng.hpp"
#include "tolerance/util/thread_pool.hpp"

namespace tolerance::core {

enum class ControllerMode : int {
  Inline = 0,    ///< synchronous solve on the decision path (legacy default)
  Fresh = 1,     ///< acting on a policy within the staleness budget
  Hold = 2,      ///< policy stale; still acting on the last epoch
  Fallback = 3,  ///< solver presumed dead; Thm. 2 threshold failsafe
};

const char* to_string(ControllerMode mode);
/// One-letter tag for trace lines: I / F / H / B.
char mode_letter(ControllerMode mode);

struct AsyncControllerConfig {
  /// Cycles between background re-solve requests in steady state.
  int resolve_period = 5;
  /// Simulated solve latency (deterministic lane): a solve requested at
  /// cycle t publishes at cycle t + solve_latency_cycles.
  int solve_latency_cycles = 1;
  /// FRESH -> HOLD boundary: max cycles since the last epoch flip before the
  /// policy is flagged stale.
  int staleness_budget = 8;
  /// HOLD -> FALLBACK boundary: cycles since the last flip after which the
  /// re-solver is presumed crashed/hung and the threshold failsafe engages.
  int fallback_deadline = 16;
  /// Base (and post-success reset) retry delay after a rejected solve;
  /// doubles per consecutive rejection up to the cap, plus a jitter draw in
  /// [0, current backoff] from a dedicated deterministic stream.
  int retry_backoff_cycles = 2;
  int max_retry_backoff_cycles = 16;
  /// true: cycle-gated harvest (bit-identical episodes); false: publish on
  /// the solver thread, never wait (wall-clock lane).
  bool deterministic = true;
  /// Verify the warm==cold optimum invariant on the first warm-started
  /// background re-solve (runs one extra cold solve on the worker).
  bool verify_warm_optimum = true;
};

/// Decision-path view of one policy query (wait-free; see policy_at).
struct PolicyQuery {
  ControllerMode mode = ControllerMode::Fresh;
  std::uint64_t epoch = 0;
  int staleness = 0;
  double add_probability = 0.0;  ///< pi(1|s) of the published table
  bool fallback_add = false;     ///< deterministic threshold action
};

struct AsyncControllerStats {
  std::uint64_t policy_epoch = 0;  ///< last published epoch
  long resolves = 0;               ///< accepted background re-solves
  long rejected = 0;               ///< poisoned solves rejected by the guard
  long hold_cycles = 0;
  long fallback_cycles = 0;
  int max_staleness = 0;
  /// Background solves that threw; each reaches the guard as a poisoned
  /// result.  `last_solver_error` keeps the latest what().
  long solver_errors = 0;
  std::string last_solver_error;
};

class AsyncCmdpController {
 public:
  /// Background solve callback: given the warm-start basis of the previous
  /// accepted solution (nullptr on a cold start), return a fresh solution.
  /// Runs on the pool worker.  A std::exception it throws (or the warm==cold
  /// check throws) poisons the result: the guard rejects it and retries.
  using SolveFn =
      std::function<solvers::CmdpSolution(const lp::SimplexBasis*)>;

  /// `initial` must satisfy valid_policy(); it is published as epoch 1 and
  /// seeds the warm-start basis chain.
  AsyncCmdpController(const solvers::CmdpSolution& initial, SolveFn solve,
                      AsyncControllerConfig config, std::uint64_t seed);
  ~AsyncCmdpController();

  AsyncCmdpController(const AsyncCmdpController&) = delete;
  AsyncCmdpController& operator=(const AsyncCmdpController&) = delete;

  /// Advance the controller by one control cycle: expire fault windows,
  /// harvest a due background solve (deterministic lane only — waits for
  /// the already-launched worker task, never runs the LP itself on this
  /// thread), launch the next re-solve, and re-grade the FRESH/HOLD/FALLBACK
  /// ladder.  Cycles must be strictly increasing.
  void begin_cycle(long cycle);

  /// Wait-free policy query for the decision path: never takes the
  /// controller mutex, never blocks on the writer (PolicyBuffer::snapshot).
  PolicyQuery policy_at(int s) const;

  ControllerMode mode() const {
    return static_cast<ControllerMode>(
        mode_atomic_.load(std::memory_order_acquire));
  }
  std::uint64_t epoch() const { return buffer_.epoch(); }
  AsyncControllerStats stats() const;

  // Scripted fault injection (wired to emulation::ScenarioEvent).
  /// Controller crash: the in-flight solve is discarded (its late result is
  /// dropped, not published) and no solves run for `duration` cycles
  /// starting at `cycle`; the controller restarts with a cold relaunch.
  void inject_crash(long cycle, long duration);
  /// GC pause: harvests and launches freeze for `duration` cycles starting
  /// at `cycle`; a solve that completes meanwhile parks until the pause
  /// ends.  The decision path keeps running throughout.
  void inject_stall(long cycle, long duration);
  /// Poison the next `count` background solves (they come back infeasible
  /// and must be rejected by the poison guard, triggering jittered retries).
  void inject_solver_failure(int count);

 private:
  struct Pending {
    std::uint64_t id = 0;
    long due_cycle = 0;
  };

  void launch_locked(long cycle);
  /// Accept-or-reject a completed solve.  Requires mu_ held.
  void handle_result_locked(solvers::CmdpSolution result, long cycle);
  static PolicyBuffer::Table make_table(const solvers::CmdpSolution& solution,
                                        std::uint64_t epoch);

  const AsyncControllerConfig config_;
  SolveFn solve_;

  PolicyBuffer buffer_;
  std::atomic<int> mode_atomic_{static_cast<int>(ControllerMode::Fresh)};
  std::atomic<int> staleness_atomic_{0};

  mutable std::mutex mu_;
  std::condition_variable harvest_cv_;
  std::uint64_t request_seq_ = 0;  ///< bumped on crash to orphan in-flight work
  std::optional<Pending> pending_;
  std::map<std::uint64_t, solvers::CmdpSolution> parked_;
  lp::SimplexBasis basis_;
  bool have_basis_ = false;
  bool warm_verified_ = false;
  std::uint64_t epoch_counter_ = 0;
  long cycle_ = 0;
  long last_publish_cycle_ = 0;
  long next_resolve_cycle_ = 0;
  long crashed_until_ = 0;  ///< exclusive: crashed while cycle < this
  long stalled_until_ = 0;
  int fail_next_ = 0;
  int backoff_ = 0;
  Rng retry_rng_;
  AsyncControllerStats stats_;

  // Declared last so it is destroyed first: the pool drains (and joins) any
  // in-flight solve task — which touches the members above — before they
  // are torn down.
  util::ThreadPool pool_{1};
};

}  // namespace tolerance::core
