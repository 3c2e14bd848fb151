// Scenario description layer for the end-to-end system-controller harness.
//
// A Scenario bundles everything one closed-loop episode needs — the node
// model parameters, the testbed/attacker configuration, the tolerance
// threshold f and hardware pool, and a script of timed adversarial events
// that push the cluster into situations the stochastic attacker of §VIII-A
// alone reaches only with vanishing probability: staggered multi-node
// intrusions, flapping IDS false-positive storms, correlated compromise
// bursts exceeding f, slow-loris background load, crash waves.
//
// scenario_catalog() is the library of named scenarios the integration test
// battery, the churn-sweep bench and the README all refer to; every entry is
// runnable via ScenarioRunner::run_many with bit-identical results at any
// thread count.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tolerance/core/async_controller.hpp"
#include "tolerance/emulation/attacker.hpp"
#include "tolerance/emulation/testbed.hpp"
#include "tolerance/pomdp/node_model.hpp"

namespace tolerance::emulation {

/// One scripted event, applied at the start of control cycle `step`
/// (1-based, before the testbed dynamics run).
struct ScenarioEvent {
  enum class Kind {
    ForceCompromise,  ///< compromise `count` healthy nodes instantly
    ForceCrash,       ///< crash `count` nodes instantly
    AlertStorm,       ///< add `magnitude` false-positive alerts per node for
                      ///< `duration` cycles (IDS noise on healthy nodes)
    LoadSpike,        ///< add `magnitude` background sessions for `duration`
                      ///< cycles (slow-loris style)
    // --- service-boundary overload events (PR 8) --------------------------
    // These flood the MinBFT service itself with client requests, not the
    // IDS/background layer: `count` flood clients each submit `magnitude`
    // requests per control cycle for `duration` cycles.  They differ only
    // in the flood clients' retransmission discipline.
    RequestFlood,    ///< plain spike: default client retry timeout
    RetryStorm,      ///< aggressive 1 s retry timeout — synchronized
                     ///< retransmission storms amplify the offered load
    SlowLorisFlood,  ///< retry timeout beyond the horizon: requests are
                     ///< submitted once and linger, tying up queue slots
    // --- level-2 controller faults (PR 9) ---------------------------------
    // These target the CMDP re-solver itself (core/async_controller.hpp),
    // not the replicas: the decision loop must degrade through the
    // FRESH/HOLD/FALLBACK ladder instead of freezing.
    ControllerCrash,  ///< re-solver crashes for `duration` cycles; the
                      ///< in-flight solve is lost and the restart is cold
    ControllerStall,  ///< GC pause: solves neither complete nor launch for
                      ///< `duration` cycles (the results park until it ends)
    SolverFailure,    ///< the next `count` re-solves return poisoned
                      ///< (infeasible) tables the guard must reject
  };

  int step = 1;
  Kind kind = Kind::ForceCompromise;
  int count = 1;         ///< nodes affected, or flood clients (floods)
  int duration = 1;      ///< cycles the condition lasts (storm / spike / flood)
  double magnitude = 0.0;  ///< extra alerts per cycle, extra sessions, or
                           ///< requests per flood client per cycle
  /// Post-compromise behaviour for ForceCompromise (§VIII-A a/b/c).
  CompromisedBehavior behavior = CompromisedBehavior::Participate;
};

/// A named, self-contained closed-loop experiment.
struct Scenario {
  std::string name;
  std::string description;

  int horizon = 100;      ///< control cycles (60 s each in the paper)
  int initial_nodes = 3;  ///< N1; must be >= 2f + 1
  int f = 1;              ///< tolerance threshold (Prop. 1)
  int max_nodes = 7;      ///< hardware pool (Table 3)
  double recovery_threshold = 0.76;  ///< alpha* (Fig. 13b)
  double epsilon_a = 0.9;            ///< availability target for Alg. 2
  pomdp::NodeParams node_params;     ///< belief-model parameters (Table 8)
  TestbedConfig testbed;             ///< environment parameters
  /// Enable the replicas' admission-control valve (EWMA pressure, token
  /// budgets, typed Overloaded rejections).  The overload catalog entries
  /// set this; the bench's no-admission baselines clear it on a copy.
  bool admission_control = false;
  /// Level-2 controller wiring: present runs the CMDP re-solve
  /// asynchronously (core/async_controller.hpp) behind the staleness ladder
  /// it configures; absent keeps the inline solve (and the byte-identical
  /// golden trace) of the legacy catalog.  The controller-fault family sets
  /// it.  The runner always forces `deterministic`.
  std::optional<core::AsyncControllerConfig> controller;
  std::vector<ScenarioEvent> events;
};

/// True for the service-boundary overload kinds (RequestFlood / RetryStorm /
/// SlowLorisFlood) — the events that make a scenario's timing depend on the
/// consensus batching knobs (so the batched-vs-unbatched equivalence suite
/// skips it) and that extend its trace with overload telemetry.
bool is_flood_event(ScenarioEvent::Kind kind);

/// True when any event in `s` is a flood event.
bool has_flood_events(const Scenario& s);

/// True for the controller-fault kinds (ControllerCrash / ControllerStall /
/// SolverFailure) — events that target the level-2 re-solver rather than
/// the replicas, and that extend a scenario's trace with controller
/// epoch/staleness/mode telemetry.
bool is_controller_event(ScenarioEvent::Kind kind);

/// True when any event in `s` is a controller-fault event.
bool has_controller_events(const Scenario& s);

/// The library of named adversarial scenarios (see README "Scenarios").
const std::vector<Scenario>& scenario_catalog();

/// Lookup by name; aborts on an unknown name (the catalog is closed).
const Scenario& find_scenario(const std::string& name);

/// All catalog names, in catalog order.
std::vector<std::string> scenario_names();

}  // namespace tolerance::emulation
