#include "tolerance/emulation/scenarios.hpp"

#include "tolerance/util/ensure.hpp"

namespace tolerance::emulation {
namespace {

using Kind = ScenarioEvent::Kind;

Scenario base_scenario(std::string name, std::string description) {
  Scenario s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.horizon = 100;
  s.initial_nodes = 3;
  s.f = 1;
  s.max_nodes = 7;
  s.recovery_threshold = 0.76;
  s.epsilon_a = 0.9;
  // Table 8 defaults for the node model; the testbed mirrors them.
  s.node_params.p_attack = 0.1;
  s.node_params.p_crash_healthy = 1e-5;
  s.node_params.p_crash_compromised = 1e-3;
  s.node_params.p_update = 2e-2;
  s.node_params.eta = 2.0;
  s.testbed.p_crash_healthy = s.node_params.p_crash_healthy;
  s.testbed.p_crash_compromised = s.node_params.p_crash_compromised;
  s.testbed.p_update = s.node_params.p_update;
  s.testbed.attacker.start_probability = 0.1;
  return s;
}

std::vector<Scenario> build_catalog() {
  std::vector<Scenario> catalog;

  // 1. The paper's operating point, no scripted events: the stochastic
  // attacker of Table 6 against the closed loop.
  catalog.push_back(base_scenario(
      "baseline-intrusion",
      "Table 8 operating point; stochastic attacker only, no scripted events"));

  // 2. Three intrusions at staggered times, each against a different node,
  // while the background attacker keeps probing.
  {
    Scenario s = base_scenario(
        "staggered-intrusions",
        "three forced compromises at cycles 15/35/55 on top of the attacker");
    s.initial_nodes = 5;
    s.max_nodes = 9;
    for (int step : {15, 35, 55}) {
      ScenarioEvent e;
      e.step = step;
      e.kind = Kind::ForceCompromise;
      e.count = 1;
      e.behavior = CompromisedBehavior::Participate;
      s.events.push_back(e);
    }
    catalog.push_back(s);
  }

  // 3. Flapping IDS false-positive storms: bursts of alert noise on healthy
  // nodes, attacker off.  Exercises belief robustness — the controller
  // should ride the storms out without recovering the whole fleet.
  {
    Scenario s = base_scenario(
        "false-positive-storms",
        "no attacker; repeated IDS alert storms on healthy nodes");
    s.testbed.attacker.start_probability = 0.0;
    s.node_params.p_attack = 0.02;  // the belief prior still expects attacks
    for (int step : {10, 30, 50, 70}) {
      ScenarioEvent e;
      e.step = step;
      e.kind = Kind::AlertStorm;
      e.duration = 5;
      e.magnitude = 600.0;  // comparable to a real intrusion signature
      s.events.push_back(e);
    }
    catalog.push_back(s);
  }

  // 4. A correlated burst compromising f + 1 nodes in one cycle — beyond
  // the Prop. 1 budget.  Availability must dip and then recover as the
  // local level recovers nodes one slot at a time.
  {
    Scenario s = base_scenario(
        "correlated-burst-exceeds-f",
        "2f + 1 nodes compromised in one cycle — beyond both the Prop. 1 "
        "budget and the per-cycle recovery slots");
    s.initial_nodes = 5;
    s.f = 1;
    s.max_nodes = 9;
    ScenarioEvent e;
    e.step = 20;
    e.kind = Kind::ForceCompromise;
    e.count = 3;  // 2f + 1 > k recovery slots
    e.behavior = CompromisedBehavior::Participate;
    s.events.push_back(e);
    catalog.push_back(s);
  }

  // 5. Silent saboteurs: a burst of compromises that stop participating in
  // consensus (behaviour (b) of §VIII-A) — including, with these node
  // indices, the current leader.  The local level's C2-alert detections
  // must recover them before the service probe degrades for long.
  {
    Scenario s = base_scenario(
        "silent-saboteurs",
        "f + 1 silent compromises incl. the leader; recovery restores "
        "consensus participation");
    s.initial_nodes = 5;
    s.f = 1;
    s.max_nodes = 9;
    s.horizon = 80;
    ScenarioEvent e;
    e.step = 20;
    e.kind = Kind::ForceCompromise;
    e.count = 2;
    e.behavior = CompromisedBehavior::Silent;
    s.events.push_back(e);
    catalog.push_back(s);
  }

  // 6. Slow-loris: a long heavy background-load plateau drives the baseline
  // alert volume up and stresses the detector's load calibration.
  {
    Scenario s = base_scenario(
        "slow-loris",
        "sustained 4x background-load plateau; detector noise floor rises");
    s.horizon = 80;
    ScenarioEvent e;
    e.step = 15;
    e.kind = Kind::LoadSpike;
    e.duration = 40;
    e.magnitude = 240.0;  // ~4x the M/M/inf steady state of 80 sessions
    s.events.push_back(e);
    catalog.push_back(s);
  }

  // 7. Crash wave: scripted crashes on top of elevated crash rates; drives
  // the evict/add churn path and the 2f + 1 membership floor.
  {
    Scenario s = base_scenario(
        "crash-wave",
        "scripted crashes + elevated crash rates; evict/add churn");
    s.initial_nodes = 5;
    s.max_nodes = 9;
    s.testbed.p_crash_healthy = 2e-3;
    s.testbed.p_crash_compromised = 2e-2;
    s.node_params.p_crash_healthy = 2e-3;
    s.node_params.p_crash_compromised = 2e-2;
    for (int step : {20, 21, 50}) {
      ScenarioEvent e;
      e.step = step;
      e.kind = Kind::ForceCrash;
      e.count = 1;
      s.events.push_back(e);
    }
    catalog.push_back(s);
  }

  // 8. Aggressive attacker: 4x intrusion-start rate and random-message
  // behaviour bias via repeated forced Byzantine compromises.
  {
    Scenario s = base_scenario(
        "aggressive-attacker",
        "4x intrusion rate plus scripted random-message compromises");
    s.initial_nodes = 5;
    s.max_nodes = 9;
    s.horizon = 80;
    s.testbed.attacker.start_probability = 0.4;
    s.node_params.p_attack = 0.4;
    for (int step : {25, 55}) {
      ScenarioEvent e;
      e.step = step;
      e.kind = Kind::ForceCompromise;
      e.count = 1;
      e.behavior = CompromisedBehavior::RandomMessages;
      s.events.push_back(e);
    }
    catalog.push_back(s);
  }

  // 9. Golden regression fixture: tiny horizon, fully deterministic-ish
  // mix of one storm and one forced compromise; its full decision trace is
  // pinned by tests/golden/scenario_golden_trace.txt.
  {
    Scenario s = base_scenario(
        "golden-small",
        "small fixed-seed fixture whose full trace is pinned in ctest");
    s.horizon = 40;
    s.initial_nodes = 3;
    s.max_nodes = 5;
    ScenarioEvent compromise;
    compromise.step = 10;
    compromise.kind = Kind::ForceCompromise;
    compromise.count = 1;
    compromise.behavior = CompromisedBehavior::Participate;
    s.events.push_back(compromise);
    ScenarioEvent storm;
    storm.step = 25;
    storm.kind = Kind::AlertStorm;
    storm.duration = 4;
    storm.magnitude = 500.0;
    s.events.push_back(storm);
    catalog.push_back(s);
  }

  // --- Service-boundary overload family (PR 8). --------------------------
  // All three keep the attacker quiet (the stress is client load, not
  // intrusions) and run with the admission valve enabled; the overload
  // bench re-runs them with admission_control cleared as the no-backpressure
  // baseline.  Request volumes are calibrated against the flood scenarios'
  // crypto cost model in ScenarioRunner (a replica sustains roughly 200
  // requests per 60 s cycle), so the 100x spike is genuinely past capacity.

  // 10. 100x request spike: 20 flood clients x 25 requests per cycle vs a
  // baseline probe load of ~5 — far beyond what the replicas can serve.
  {
    Scenario s = base_scenario(
        "load-spike-100x",
        "100x client request spike; the admission valve sheds the excess "
        "while the probe stays served");
    s.horizon = 30;
    s.testbed.attacker.start_probability = 0.0;
    s.node_params.p_attack = 0.02;
    s.admission_control = true;
    ScenarioEvent e;
    e.step = 6;
    e.kind = Kind::RequestFlood;
    e.count = 20;
    e.duration = 25;
    e.magnitude = 25.0;
    s.events.push_back(e);
    catalog.push_back(s);
  }

  // 11. Synchronized retry storm: a smaller offered load, but every flood
  // client retransmits on a 1 s timer, so without backpressure the storm
  // feeds on its own queueing delay.  The jittered exponential backoff must
  // desynchronize and calm it.
  {
    Scenario s = base_scenario(
        "retry-storm",
        "synchronized 1 s client retransmissions amplify a spike; jittered "
        "backoff must calm the storm");
    s.horizon = 30;
    s.testbed.attacker.start_probability = 0.0;
    s.node_params.p_attack = 0.02;
    s.admission_control = true;
    ScenarioEvent e;
    e.step = 6;
    e.kind = Kind::RetryStorm;
    e.count = 20;
    e.duration = 20;
    e.magnitude = 10.0;
    s.events.push_back(e);
    catalog.push_back(s);
  }

  // 12. Slow-loris request flood: many clients, each parking a few requests
  // with a retry timeout beyond the horizon.  The lingering requests tie up
  // queue slots instead of completing-and-leaving; the valve must keep the
  // backlog bounded so the probe still meets its per-cycle deadline.
  {
    Scenario s = base_scenario(
        "slow-loris-flood",
        "lingering no-retry request flood ties up queue slots; the valve "
        "bounds the backlog");
    s.horizon = 30;
    s.testbed.attacker.start_probability = 0.0;
    s.node_params.p_attack = 0.02;
    s.admission_control = true;
    ScenarioEvent e;
    e.step = 6;
    e.kind = Kind::SlowLorisFlood;
    e.count = 40;
    e.duration = 20;
    e.magnitude = 10.0;  // 400 lingering requests per cycle, ~2x capacity
    s.events.push_back(e);
    catalog.push_back(s);
  }

  // --- Controller-fault family (PR 9). -----------------------------------
  // All four run the level-2 CMDP re-solver asynchronously (they hold a
  // controller config) and script faults against the *controller* rather
  // than the replicas.  They keep the crash-wave style elevated
  // crash rates so the level-2 loop (evict crashed, add replacements)
  // actually matters: the inline/no-failsafe baseline — which freezes the
  // level-2 step for the fault window — measurably degrades, while the
  // FRESH/HOLD/FALLBACK ladder keeps deciding every cycle.

  auto controller_base = [](std::string name, std::string description) {
    Scenario s = base_scenario(std::move(name), std::move(description));
    s.initial_nodes = 5;
    s.max_nodes = 9;
    s.horizon = 80;
    s.controller.emplace();
    s.testbed.p_crash_healthy = 2e-3;
    s.testbed.p_crash_compromised = 2e-2;
    s.node_params.p_crash_healthy = 2e-3;
    s.node_params.p_crash_compromised = 2e-2;
    return s;
  };

  // 13. Controller crash in the middle of an intrusion: the re-solver dies
  // for 30 cycles just before a forced compromise, long past the fallback
  // deadline — the Thm. 2 threshold failsafe must carry the loop until the
  // cold restart re-flips a fresh epoch.
  {
    Scenario s = controller_base(
        "controller-crash-mid-intrusion",
        "re-solver crashes for 30 cycles across a forced compromise; the "
        "threshold failsafe must engage until the cold restart");
    ScenarioEvent crash;
    crash.step = 18;
    crash.kind = Kind::ControllerCrash;
    crash.duration = 30;
    s.events.push_back(crash);
    ScenarioEvent compromise;
    compromise.step = 22;
    compromise.kind = Kind::ForceCompromise;
    compromise.count = 2;
    compromise.behavior = CompromisedBehavior::Participate;
    s.events.push_back(compromise);
    catalog.push_back(s);
  }

  // 14. GC pause: solves freeze for 24 cycles (they park, nothing publishes,
  // nothing launches).  Staleness climbs through HOLD into FALLBACK; the
  // parked solve flips in the moment the pause lifts.
  {
    Scenario s = controller_base(
        "controller-gc-pause",
        "24-cycle GC pause stalls every re-solve; HOLD then FALLBACK, with "
        "recovery on the first post-pause flip");
    ScenarioEvent stall;
    stall.step = 15;
    stall.kind = Kind::ControllerStall;
    stall.duration = 24;
    s.events.push_back(stall);
    ScenarioEvent compromise;
    compromise.step = 25;
    compromise.kind = Kind::ForceCompromise;
    compromise.count = 1;
    compromise.behavior = CompromisedBehavior::Participate;
    s.events.push_back(compromise);
    catalog.push_back(s);
  }

  // 15. Repeated solver failure: five consecutive re-solves come back
  // poisoned (infeasible).  The guard must reject every one (epoch never
  // flips to garbage) and the jittered backoff must still converge to a
  // good solve before the fallback deadline would be a steady state.
  {
    Scenario s = controller_base(
        "controller-solver-failures",
        "five consecutive poisoned re-solves; the guard rejects them all "
        "and jittered retries recover the epoch flow");
    // Cap the exponential backoff low enough that the sixth (good) solve
    // lands well inside the horizon even on the unluckiest jitter draws.
    s.controller->max_retry_backoff_cycles = 6;
    ScenarioEvent failure;
    failure.step = 5;
    failure.kind = Kind::SolverFailure;
    failure.count = 5;
    failure.duration = 25;  // inline-baseline freeze window equivalent
    s.events.push_back(failure);
    catalog.push_back(s);
  }

  // 16. Slow solve under churn: the LP takes 4 cycles against a 4-cycle
  // staleness budget while crashes churn the membership, so the loop
  // oscillates FRESH <-> HOLD without ever reaching FALLBACK.
  {
    Scenario s = controller_base(
        "controller-slow-solve-churn",
        "4-cycle solve latency vs a 4-cycle staleness budget under crash "
        "churn; HOLD cycles without fallback");
    s.controller->resolve_period = 6;
    s.controller->solve_latency_cycles = 4;
    s.controller->staleness_budget = 4;
    for (int step : {20, 21, 45}) {
      ScenarioEvent e;
      e.step = step;
      e.kind = Kind::ForceCrash;
      e.count = 1;
      s.events.push_back(e);
    }
    catalog.push_back(s);
  }

  return catalog;
}

}  // namespace

bool is_flood_event(ScenarioEvent::Kind kind) {
  return kind == ScenarioEvent::Kind::RequestFlood ||
         kind == ScenarioEvent::Kind::RetryStorm ||
         kind == ScenarioEvent::Kind::SlowLorisFlood;
}

bool has_flood_events(const Scenario& s) {
  for (const ScenarioEvent& e : s.events) {
    if (is_flood_event(e.kind)) return true;
  }
  return false;
}

bool is_controller_event(ScenarioEvent::Kind kind) {
  return kind == ScenarioEvent::Kind::ControllerCrash ||
         kind == ScenarioEvent::Kind::ControllerStall ||
         kind == ScenarioEvent::Kind::SolverFailure;
}

bool has_controller_events(const Scenario& s) {
  for (const ScenarioEvent& e : s.events) {
    if (is_controller_event(e.kind)) return true;
  }
  return false;
}

const std::vector<Scenario>& scenario_catalog() {
  static const std::vector<Scenario> catalog = build_catalog();
  return catalog;
}

const Scenario& find_scenario(const std::string& name) {
  for (const Scenario& s : scenario_catalog()) {
    if (s.name == name) return s;
  }
  ensure_failed("name in scenario_catalog()", __FILE__, __LINE__,
                "unknown scenario: " + name);
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(scenario_catalog().size());
  for (const Scenario& s : scenario_catalog()) names.push_back(s.name);
  return names;
}

}  // namespace tolerance::emulation
