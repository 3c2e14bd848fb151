// End-to-end closed loop for the second feedback level (§IV-V): each control
// cycle, the per-node belief estimates computed from the IdsModel metric
// streams feed the CMDP replication policy (Algorithm 2), and the resulting
// recover / evict / add decisions mutate BOTH the emulated testbed and a
// live MinBFT cluster — container replacement with USIG epoch bump and state
// transfer for recoveries, consensus-ordered membership operations for
// evictions and joins, view changes when scripted compromises silence the
// leader.  Service availability is measured end-to-end by submitting a probe
// operation through a MinBFT client every cycle.
//
// Episodes are seeded independently, so run_many shards across the PR-2
// parallel engine with bit-identical results at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tolerance/emulation/estimation.hpp"
#include "tolerance/emulation/scenarios.hpp"
#include "tolerance/pomdp/system_model.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"

namespace tolerance::emulation {

/// Per-episode outcome: the §III-C metrics plus the consensus-level view of
/// the same episode and (optionally) the full decision/membership trace.
struct ScenarioResult {
  double availability = 0.0;          ///< T(A): fraction of cycles failed <= f
  double service_availability = 0.0;  ///< probe-based: consensus answered
  double time_to_recovery = 0.0;      ///< T(R) over closed compromises
  double avg_nodes = 0.0;             ///< mean N_t (operational cost)
  int recoveries = 0;
  int evictions = 0;
  int additions = 0;
  int compromises = 0;
  int crashes = 0;
  int quorum_stalls = 0;     ///< membership ops consensus could not order
  int deferred_evictions = 0;  ///< evictions clamped by SystemLimits
  int min_membership = 0;    ///< smallest consensus membership observed
  int max_membership = 0;
  std::uint64_t final_view = 0;  ///< max view over live replicas at the end
  // --- overload telemetry (flood scenarios; defaults elsewhere) -----------
  std::uint64_t flood_submitted = 0;  ///< legitimate flood requests offered
  std::uint64_t flood_completed = 0;  ///< ... of those, completed by horizon
  std::uint64_t flood_rejections = 0;  ///< verified Overloaded replies seen
  std::uint64_t flood_backoffs = 0;    ///< f+1 rejection quorums -> backoff
  /// completed / (submitted - shed-at-horizon) over the legitimate flood
  /// clients (RequestFlood / RetryStorm; slow-loris clients are adversarial
  /// load and excluded).  Shed requests — those an f+1 rejection quorum put
  /// into backoff custody — are the valve working as designed, so they do
  /// not count against the traffic the valve admitted.  1.0 with no floods.
  double admitted_availability = 1.0;
  /// Max over cycles and replicas of the per-replica queue depth (leader
  /// backlog + undelivered transport inbox), sampled at each cycle end.
  int max_queue_depth = 0;
  // --- controller-health telemetry (async level-2 controller; inline runs
  // report mode "inline" with zero epochs) ---------------------------------
  std::uint64_t policy_epoch = 0;  ///< last published policy epoch
  long controller_resolves = 0;    ///< accepted background re-solves
  long controller_rejected = 0;    ///< poisoned re-solves the guard rejected
  long controller_hold_cycles = 0;
  long controller_fallback_cycles = 0;
  /// Inline/no-failsafe baseline only: cycles where a scripted controller
  /// fault froze the level-2 step outright (no evictions, no additions).
  long controller_frozen_cycles = 0;
  int controller_max_staleness = 0;
  std::string controller_mode = "inline";  ///< mode at the horizon
  /// One line per control cycle (integer fields only, so the golden-trace
  /// regression is robust): "t=3 s=4 N=5 H=4 M=5 svc=1 rec=[2] evt=[] add=0
  /// defer=0 stall=0" — flood scenarios append " fs=.. fc=.. fr=.. q=.."
  /// (cumulative submitted/completed/rejections + this cycle's max depth).
  std::vector<std::string> trace;
};

/// Field-exact equality including the trace — the determinism predicate the
/// thread-count tests assert.
bool identical(const ScenarioResult& a, const ScenarioResult& b);

struct ScenarioOptions {
  bool record_trace = true;
  /// Run the consensus layer as MinBftConfig::unbatched() (singleton
  /// batches, unbounded pipeline).  The scenario workload is sequential (one
  /// probe / membership op at a time), so batched and unbatched runs are
  /// bit-identical — which the batching equivalence suite asserts across
  /// the whole catalog.
  bool unbatched_consensus = false;
  /// Override whether the scenario runs the asynchronous level-2 controller:
  /// true forces it on (with the scenario's config, or the defaults when it
  /// has none; requires the runner to hold the system CMDP for re-solving),
  /// false forces the legacy inline solve (the bench uses this as the
  /// no-failsafe baseline for the controller-fault family).  nullopt follows
  /// the scenario.
  std::optional<bool> async_controller;
};

class ScenarioRunner {
 public:
  using Options = ScenarioOptions;

  /// `replication` is the Algorithm 2 strategy; std::nullopt runs a static
  /// replication factor (evictions still happen, nodes are never added).
  /// `cmdp` is the system CMDP behind `replication` — required when the
  /// asynchronous controller is enabled (scenario or options), because the
  /// background re-solver needs the model to re-solve.
  ScenarioRunner(Scenario scenario, FittedDetector detector,
                 std::optional<solvers::CmdpSolution> replication,
                 Options options = {},
                 std::optional<pomdp::SystemCmdp> cmdp = std::nullopt);

  const Scenario& scenario() const { return scenario_; }

  /// One closed-loop episode.
  ScenarioResult run(std::uint64_t seed) const;

  /// One episode per seed, sharded across `threads` workers (<= 0 resolves
  /// via util::resolve_threads).  Episodes are seeded independently, so
  /// entry i equals run(seeds[i]) bit-for-bit at any thread count.
  std::vector<ScenarioResult> run_many(const std::vector<std::uint64_t>& seeds,
                                       int threads = 0) const;

 private:
  Scenario scenario_;
  FittedDetector detector_;
  std::optional<solvers::CmdpSolution> replication_;
  Options options_;
  std::optional<pomdp::SystemCmdp> cmdp_;
};

/// Convenience: fit a pooled detector and solve the replication LP for
/// `scenario` — the training phase shared by the test battery and the bench
/// (deterministic given `seed`).
ScenarioRunner make_scenario_runner(const Scenario& scenario,
                                    std::uint64_t seed,
                                    int detector_samples = 60,
                                    ScenarioRunner::Options options = {});

}  // namespace tolerance::emulation
