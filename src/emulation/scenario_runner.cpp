#include "tolerance/emulation/scenario_runner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/core/async_controller.hpp"
#include "tolerance/core/node_controller.hpp"
#include "tolerance/core/system_controller.hpp"
#include "tolerance/pomdp/system_model.hpp"
#include "tolerance/util/ensure.hpp"
#include "tolerance/util/parallel.hpp"

namespace tolerance::emulation {

namespace {

using consensus::MinBftCluster;
using consensus::ReplicaId;
using pomdp::NodeState;

/// Simulated seconds per control cycle (the paper's 60 s time-step); also
/// the probe deadline.
constexpr double kCycleSeconds = 60.0;
/// Network-event budget for one consensus-ordered membership operation.
constexpr std::size_t kMembershipEventBudget = 120000;

consensus::ByzantineMode mode_for(const EmulatedNode& node) {
  if (node.state != NodeState::Compromised) {
    return consensus::ByzantineMode::Honest;
  }
  switch (node.behavior) {
    case CompromisedBehavior::Participate:
      return consensus::ByzantineMode::Honest;
    case CompromisedBehavior::Silent:
      return consensus::ByzantineMode::Silent;
    case CompromisedBehavior::RandomMessages:
      return consensus::ByzantineMode::Random;
  }
  return consensus::ByzantineMode::Honest;
}

std::string join_ids(const std::vector<int>& ids) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) os << ',';
    os << ids[i];
  }
  os << ']';
  return os.str();
}

}  // namespace

bool identical(const ScenarioResult& a, const ScenarioResult& b) {
  return a.availability == b.availability &&
         a.service_availability == b.service_availability &&
         a.time_to_recovery == b.time_to_recovery &&
         a.avg_nodes == b.avg_nodes && a.recoveries == b.recoveries &&
         a.evictions == b.evictions && a.additions == b.additions &&
         a.compromises == b.compromises && a.crashes == b.crashes &&
         a.quorum_stalls == b.quorum_stalls &&
         a.deferred_evictions == b.deferred_evictions &&
         a.min_membership == b.min_membership &&
         a.max_membership == b.max_membership &&
         a.final_view == b.final_view &&
         a.flood_submitted == b.flood_submitted &&
         a.flood_completed == b.flood_completed &&
         a.flood_rejections == b.flood_rejections &&
         a.flood_backoffs == b.flood_backoffs &&
         a.admitted_availability == b.admitted_availability &&
         a.max_queue_depth == b.max_queue_depth &&
         a.policy_epoch == b.policy_epoch &&
         a.controller_resolves == b.controller_resolves &&
         a.controller_rejected == b.controller_rejected &&
         a.controller_hold_cycles == b.controller_hold_cycles &&
         a.controller_fallback_cycles == b.controller_fallback_cycles &&
         a.controller_frozen_cycles == b.controller_frozen_cycles &&
         a.controller_max_staleness == b.controller_max_staleness &&
         a.controller_mode == b.controller_mode && a.trace == b.trace;
}

ScenarioRunner::ScenarioRunner(Scenario scenario, FittedDetector detector,
                               std::optional<solvers::CmdpSolution> replication,
                               Options options,
                               std::optional<pomdp::SystemCmdp> cmdp)
    : scenario_(std::move(scenario)), detector_(std::move(detector)),
      replication_(std::move(replication)), options_(options),
      cmdp_(std::move(cmdp)) {
  TOL_ENSURE(scenario_.horizon > 0, "horizon must be positive");
  TOL_ENSURE(scenario_.f >= 1, "tolerance threshold f must be >= 1");
  TOL_ENSURE(scenario_.initial_nodes >= 2 * scenario_.f + 1,
             "need N1 >= 2f + 1 for the BFT quorum");
  TOL_ENSURE(scenario_.max_nodes >= scenario_.initial_nodes,
             "hardware pool smaller than initial allocation");
  for (const ScenarioEvent& e : scenario_.events) {
    TOL_ENSURE(e.step >= 1 && e.step <= scenario_.horizon,
               "scenario event outside the horizon");
    TOL_ENSURE(e.count >= 1 && e.duration >= 1, "malformed scenario event");
  }
  if (options_.async_controller.value_or(scenario_.controller.has_value())) {
    TOL_ENSURE(replication_.has_value() && cmdp_.has_value(),
               "async controller needs the CMDP strategy and model to "
               "re-solve in the background");
  }
}

ScenarioResult ScenarioRunner::run(std::uint64_t seed) const {
  // --- Environment. ---
  TestbedConfig tb_config = scenario_.testbed;
  tb_config.initial_nodes = scenario_.initial_nodes;
  tb_config.max_nodes = scenario_.max_nodes;
  Testbed testbed(tb_config, seed);

  // --- Local level: one belief-threshold controller per node. ---
  const pomdp::NodeModel model(scenario_.node_params);
  const int dim = solvers::ThresholdPolicy::dimension(solvers::kNoBtr);
  const solvers::ThresholdPolicy policy(
      std::vector<double>(static_cast<std::size_t>(dim),
                          scenario_.recovery_threshold),
      solvers::kNoBtr);
  std::vector<core::NodeController> controllers;
  for (int i = 0; i < testbed.num_nodes(); ++i) {
    controllers.emplace_back(model, detector_, policy);
  }

  // --- Global level: CMDP policy under the BFT safety limits. ---
  core::SystemLimits limits;
  limits.f = scenario_.f;
  limits.min_nodes = 2 * scenario_.f + 1;
  core::SystemController system(replication_, scenario_.max_nodes,
                                seed ^ 0xabcd, limits);

  // --- Asynchronous level-2 controller: the CMDP re-solve off the decision
  // path behind the FRESH/HOLD/FALLBACK staleness ladder.  Inline mode (the
  // legacy default) keeps acting on the solution computed at training time;
  // when a scenario scripts controller faults against inline mode, the
  // level-2 step freezes outright for the fault window — the no-failsafe
  // baseline the controller bench degrades against.
  const bool use_async =
      options_.async_controller.value_or(scenario_.controller.has_value());
  const bool has_ctrl_events = has_controller_events(scenario_);
  std::unique_ptr<core::AsyncCmdpController> async;
  if (use_async) {
    core::AsyncControllerConfig acfg =
        scenario_.controller.value_or(core::AsyncControllerConfig{});
    // Deterministic lane: publishes land at fixed simulated cycles so
    // episodes stay bit-identical at any thread count.
    acfg.deterministic = true;
    async = std::make_unique<core::AsyncCmdpController>(
        *replication_,
        [cmdp = *cmdp_](const lp::SimplexBasis* warm) {
          return solvers::solve_replication_lp(cmdp, {}, warm);
        },
        acfg, seed ^ 0x51a1eULL);
    system.attach_async(async.get());
  }
  long frozen_until = 0;  // inline baseline: level-2 frozen while t < this

  // --- Consensus layer: live MinBFT cluster mirroring the testbed. ---
  consensus::MinBftConfig cfg;
  cfg.f = scenario_.f;
  cfg.checkpoint_period = 10;
  cfg.view_change_timeout = 8.0;
  cfg.request_retry_timeout = 4.0;
  const bool has_flood = has_flood_events(scenario_);
  if (has_flood) {
    // Flood scenarios use a heavier crypto cost model so the scripted
    // request volumes are genuinely past serving capacity: 0.2 s batch
    // signatures and 0.25 s per-reply authentication put one replica's
    // ceiling near 200 requests per 60 s cycle.  A rejection costs only a
    // cheap authenticator (see send_overloaded), keeping shedding cheaper
    // than serving — the property the valve depends on.
    cfg.crypto_cost_sign = 0.2;
    cfg.crypto_cost_verify = 0.01;
    cfg.crypto_cost_reply = 0.25;
  }
  if (scenario_.admission_control) {
    cfg.admission.enabled = true;
    cfg.admission.queue_capacity = 64.0;
    cfg.admission.latency_ref = 5.0;
    // Release half a cycle long: the replica's inbound queue drains to zero
    // between serving bursts even mid-storm, and a fast-release filter would
    // reopen the valve at every trough.  Holding the peak for ~30 s keeps
    // the valve closed across troughs while still reopening within a cycle
    // or two after the flood really stops.
    cfg.admission.release_tau = 30.0;
    // Token rates target ~30% serving utilization (capacity is ~200
    // requests per cycle): the headroom is what keeps rejections cheap and
    // prompt, so backoff quorums form before clients' flat retries fire.
    cfg.admission.soft_rate = 1.0;   // tokens/s: ~60 admits per 60 s cycle
    cfg.admission.soft_burst = 10.0;
    cfg.admission.hard_rate = 0.25;  // ~15 admits per cycle under storms
    cfg.admission.hard_burst = 5.0;
    // Bands sit below the w_queue weight (0.5) on purpose: a spike's FIRST
    // wave arrives with err* = 0 and lat* = 0, so queue saturation alone
    // must be able to close the valve — with the default soft_enter of
    // 0.55 every replica would admit the entire onset burst in NORMAL mode
    // and spend whole cycles paying that serving debt.  Sustained-storm
    // pressure then plateaus near 0.7, so the default hard_enter of 0.85
    // would never engage HARD's trickle budget either.
    cfg.admission.soft_enter = 0.45;
    cfg.admission.soft_exit = 0.30;
    cfg.admission.hard_enter = 0.65;
    cfg.admission.hard_exit = 0.50;
    // Hints sized to the 60 s control cycle: the client backoff cap scales
    // with the hint, so shed requests re-probe roughly once a cycle instead
    // of pounding the valve on the flat retransmission timer.
    cfg.admission.retry_after_soft_ms = 8000;
    cfg.admission.retry_after_hard_ms = 30000;
  }
  net::LinkConfig link;
  link.loss = 0.0;  // loss resilience is covered by the consensus suite
  MinBftCluster cluster(scenario_.initial_nodes,
                        options_.unbatched_consensus ? cfg.unbatched() : cfg,
                        seed ^ 0x5eed, link);
  consensus::MinBftClient& probe = cluster.add_client();
  // Flood clients, one pool per flood event, created lazily at the event's
  // first active cycle.  RetryStorm pools retransmit aggressively (1 s),
  // SlowLorisFlood pools effectively never (their requests just linger).
  std::vector<std::vector<consensus::MinBftClient*>> flood_pools(
      scenario_.events.size());
  // Stable testbed node id -> consensus replica id.
  std::map<int, ReplicaId> node_to_replica;
  {
    const auto ids = cluster.replica_ids();
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      node_to_replica[testbed.nodes()[static_cast<std::size_t>(i)].id] =
          ids[static_cast<std::size_t>(i)];
    }
  }

  ScenarioResult result;
  result.min_membership = static_cast<int>(cluster.membership().size());
  result.max_membership = result.min_membership;

  // T(R) bookkeeping, as in core::Evaluator: per node id, the step the
  // current compromise started.
  std::map<int, int> open_compromise;
  double total_ttr = 0.0;
  int ttr_samples = 0;
  long available_cycles = 0;
  long service_cycles = 0;
  double node_sum = 0.0;

  const auto close_compromise = [&](int node_id, int now) {
    const auto it = open_compromise.find(node_id);
    if (it == open_compromise.end()) return;
    total_ttr += now - it->second;
    ++ttr_samples;
    ++result.compromises;
    open_compromise.erase(it);
  };

  int storm_until = 0;
  double storm_magnitude = 0.0;
  int spike_until = 0;
  std::set<int> counted_crashes;  // node ids whose crash was already counted

  for (int t = 1; t <= scenario_.horizon; ++t) {
    // --- Scripted adversarial events. ---
    if (t > spike_until && testbed.extra_load() > 0) testbed.set_extra_load(0);
    for (const ScenarioEvent& e : scenario_.events) {
      if (e.step != t) continue;
      switch (e.kind) {
        case ScenarioEvent::Kind::ForceCompromise: {
          int remaining = e.count;
          for (int i = 0; i < testbed.num_nodes() && remaining > 0; ++i) {
            if (testbed.nodes()[static_cast<std::size_t>(i)].state !=
                NodeState::Healthy) {
              continue;
            }
            testbed.force_compromise(i, e.behavior);
            --remaining;
          }
          break;
        }
        case ScenarioEvent::Kind::ForceCrash: {
          int remaining = e.count;
          for (int i = 0; i < testbed.num_nodes() && remaining > 0; ++i) {
            if (testbed.nodes()[static_cast<std::size_t>(i)].state ==
                NodeState::Crashed) {
              continue;
            }
            testbed.force_crash(i);
            --remaining;
          }
          break;
        }
        case ScenarioEvent::Kind::AlertStorm:
          storm_until = t + e.duration - 1;
          storm_magnitude = e.magnitude;
          break;
        case ScenarioEvent::Kind::LoadSpike:
          spike_until = t + e.duration - 1;
          testbed.set_extra_load(static_cast<int>(e.magnitude));
          break;
        case ScenarioEvent::Kind::RequestFlood:
        case ScenarioEvent::Kind::RetryStorm:
        case ScenarioEvent::Kind::SlowLorisFlood:
          break;  // handled below: floods act every active cycle, not once
        case ScenarioEvent::Kind::ControllerCrash:
          if (async) {
            async->inject_crash(t, e.duration);
          } else {
            frozen_until = std::max<long>(frozen_until, t + e.duration);
          }
          break;
        case ScenarioEvent::Kind::ControllerStall:
          if (async) {
            async->inject_stall(t, e.duration);
          } else {
            frozen_until = std::max<long>(frozen_until, t + e.duration);
          }
          break;
        case ScenarioEvent::Kind::SolverFailure:
          if (async) {
            async->inject_solver_failure(e.count);
          } else {
            // Inline equivalent: the solver keeps failing on the decision
            // path for the event's duration.
            frozen_until = std::max<long>(frozen_until, t + e.duration);
          }
          break;
      }
    }
    const bool storm_active = t <= storm_until;

    // --- Environment dynamics + IDS sampling. ---
    testbed.step();

    // --- Mirror node states onto the consensus layer. ---
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      const EmulatedNode& node = testbed.nodes()[static_cast<std::size_t>(i)];
      const ReplicaId rid = node_to_replica.at(node.id);
      if (node.state == NodeState::Crashed) {
        if (counted_crashes.insert(node.id).second) ++result.crashes;
        if (cluster.has_replica(rid)) {
          cluster.crash_replica(rid);  // idempotent host unregistration
        }
      } else if (cluster.has_replica(rid)) {
        cluster.replica(rid).set_mode(mode_for(node));
      }
    }

    // --- Track compromises / crashes from the environment. ---
    for (const EmulatedNode& node : testbed.nodes()) {
      if (node.state == NodeState::Compromised) {
        open_compromise.emplace(node.id, node.compromised_since);
      } else if (open_compromise.count(node.id) > 0) {
        close_compromise(node.id, t);
      }
    }

    // --- Local level: belief updates and recovery arbitration (at most
    // k = max(1, N - 2f - 1) simultaneous recoveries, Prop. 1). ---
    const int k_slots =
        std::max(1, testbed.num_nodes() - 2 * scenario_.f - 1);
    std::vector<std::pair<double, int>> candidates;
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const EmulatedNode& node = testbed.nodes()[idx];
      if (node.state == NodeState::Crashed) continue;
      const double raw = node.last_metrics.alerts_weighted +
                         (storm_active ? storm_magnitude : 0.0);
      controllers[idx].observe(raw);
      if (controllers[idx].decide() == pomdp::NodeAction::Recover) {
        candidates.push_back(
            {controllers[idx].btr_due() ? 2.0 : controllers[idx].belief(), i});
      }
    }
    std::sort(candidates.rbegin(), candidates.rend());
    if (static_cast<int>(candidates.size()) > k_slots) {
      candidates.resize(static_cast<std::size_t>(k_slots));
    }
    std::vector<bool> granted(static_cast<std::size_t>(testbed.num_nodes()),
                              false);
    for (const auto& [priority, i] : candidates) {
      (void)priority;
      granted[static_cast<std::size_t>(i)] = true;
    }
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (testbed.nodes()[idx].state == NodeState::Crashed) continue;
      controllers[idx].commit(granted[idx] ? pomdp::NodeAction::Recover
                                           : pomdp::NodeAction::Wait);
    }
    std::vector<int> recovered_ids;
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      if (!granted[static_cast<std::size_t>(i)]) continue;
      const EmulatedNode& node = testbed.nodes()[static_cast<std::size_t>(i)];
      close_compromise(node.id, t);
      recovered_ids.push_back(node.id);
      testbed.recover(i);
      // Fig. 17d: fresh container, same id, bumped USIG epoch, state
      // transfer from peers; the fresh replica starts Honest.  An eviction
      // ordered past its budget may already have executed and removed the
      // id; the reconciliation step below finalizes it instead.
      const ReplicaId rid = node_to_replica.at(node.id);
      const auto membership = cluster.membership();
      if (std::find(membership.begin(), membership.end(), rid) !=
          membership.end()) {
        cluster.recover_replica(rid);
      }
      ++result.recoveries;
    }

    // --- Global level: the CMDP decision, executed through consensus. ---
    if (async) async->begin_cycle(t);
    std::vector<double> beliefs;
    std::vector<bool> reported;
    for (int i = 0; i < testbed.num_nodes(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const bool alive = testbed.nodes()[idx].state != NodeState::Crashed;
      reported.push_back(alive);
      beliefs.push_back(alive ? controllers[idx].belief() : 1.0);
    }
    const bool frozen = !async && t < frozen_until;
    core::SystemDecision decision;
    if (frozen) {
      // Inline/no-failsafe baseline under a scripted controller fault: the
      // solve sits on the decision path, so a crashed or hung solver takes
      // the whole level-2 step with it — no evictions, no additions.  Only
      // the aggregated state remains observable for the trace.
      double expected_healthy = 0.0;
      for (std::size_t i = 0; i < beliefs.size(); ++i) {
        if (reported[i]) expected_healthy += 1.0 - beliefs[i];
      }
      decision.state = static_cast<int>(std::floor(expected_healthy));
      ++result.controller_frozen_cycles;
    } else {
      decision = system.step(beliefs, reported);
    }
    result.deferred_evictions += decision.deferred_evictions;
    std::vector<int> evicted_ids;
    for (auto it = decision.evict.rbegin(); it != decision.evict.rend();
         ++it) {
      const EmulatedNode& node =
          testbed.nodes()[static_cast<std::size_t>(*it)];
      const ReplicaId rid = node_to_replica.at(node.id);
      if (!cluster.try_evict_replica(rid, kMembershipEventBudget)) {
        ++result.quorum_stalls;  // node stays; re-qualifies next cycle
        continue;
      }
      close_compromise(node.id, t);
      evicted_ids.push_back(node.id);
      node_to_replica.erase(node.id);
      testbed.evict(*it);
      controllers.erase(controllers.begin() + *it);
      ++result.evictions;
    }
    // Reconcile operations that were ordered after their budget expired:
    // (a) an evict that timed out but executed later — the id left the
    // membership while the node/replica objects remain; finalize it so the
    // testbed and the cluster stay in lockstep;
    // (b) a rolled-back join that executed later — an id in the membership
    // with no live replica behind it; evict the ghost.
    {
      const auto membership = cluster.membership();
      const std::set<ReplicaId> member_set(membership.begin(),
                                           membership.end());
      for (int i = testbed.num_nodes() - 1; i >= 0; --i) {
        const int node_id = testbed.nodes()[static_cast<std::size_t>(i)].id;
        const ReplicaId rid = node_to_replica.at(node_id);
        if (member_set.count(rid) > 0) continue;
        close_compromise(node_id, t);
        evicted_ids.push_back(node_id);
        cluster.finalize_evict(rid);
        node_to_replica.erase(node_id);
        testbed.evict(i);
        controllers.erase(controllers.begin() + i);
        ++result.evictions;
      }
      std::set<ReplicaId> known;
      for (const auto& [node_id, rid] : node_to_replica) {
        (void)node_id;
        known.insert(rid);
      }
      for (const ReplicaId rid : membership) {
        if (known.count(rid) > 0) continue;
        if (!cluster.try_evict_replica(rid, kMembershipEventBudget)) {
          ++result.quorum_stalls;
        }
      }
    }
    int added = 0;
    if (decision.add_node && testbed.num_nodes() < scenario_.max_nodes) {
      const auto joined = cluster.try_join_new_replica(kMembershipEventBudget);
      if (joined.has_value()) {
        const auto idx = testbed.add_node();
        TOL_ENSURE(idx.has_value(), "pool capacity checked above");
        node_to_replica[testbed.nodes()[static_cast<std::size_t>(*idx)].id] =
            *joined;
        controllers.emplace_back(model, detector_, policy);
        ++result.additions;
        added = 1;
      } else {
        ++result.quorum_stalls;
      }
    }

    // --- Service-boundary floods: each active flood event's clients offer
    // `magnitude` requests apiece this cycle, before the probe so the probe
    // contends with the spike like any legitimate request. ---
    for (std::size_t ei = 0; ei < scenario_.events.size(); ++ei) {
      const ScenarioEvent& e = scenario_.events[ei];
      if (!is_flood_event(e.kind)) continue;
      if (t < e.step || t >= e.step + e.duration) continue;
      auto& pool = flood_pools[ei];
      if (pool.empty()) {
        const double retry =
            e.kind == ScenarioEvent::Kind::RetryStorm ? 1.0
            : e.kind == ScenarioEvent::Kind::SlowLorisFlood
                ? 1.0e9  // beyond any horizon: submit once, linger
                : cfg.request_retry_timeout;
        for (int c = 0; c < e.count; ++c) {
          pool.push_back(&cluster.add_client(retry));
        }
      }
      const bool legit = e.kind != ScenarioEvent::Kind::SlowLorisFlood;
      for (consensus::MinBftClient* client : pool) {
        client->set_replicas(cluster.membership());
        for (int k = 0; k < static_cast<int>(e.magnitude); ++k) {
          std::ostringstream fop;
          fop << "flood:" << t << ':' << client->id() << ':' << k;
          if (legit) {
            ++result.flood_submitted;
            client->submit(fop.str(),
                           [&result](std::uint64_t, const std::string&,
                                     double) { ++result.flood_completed; });
          } else {
            client->submit(fop.str(), nullptr);
          }
        }
      }
    }

    // --- Service probe: one client operation with a one-cycle deadline. ---
    probe.set_replicas(cluster.membership());
    bool service_ok = false;
    std::ostringstream op;
    op << "probe:" << t;
    const std::uint64_t rid = probe.submit(
        op.str(),
        [&service_ok](std::uint64_t, const std::string&, double) {
          service_ok = true;
        });
    cluster.network().run_until(cluster.network().now() + kCycleSeconds);
    if (!service_ok) probe.cancel(rid);
    if (service_ok) ++service_cycles;

    // --- Overload telemetry: per-replica queue depth at cycle end, plus
    // cumulative rejection/backoff counters from the flood clients. ---
    int cycle_queue_depth = 0;
    for (const ReplicaId replica_id : cluster.replica_ids()) {
      const int depth = static_cast<int>(
          cluster.replica(replica_id).pending_request_count() +
          cluster.network().queue_depth(replica_id));
      cycle_queue_depth = std::max(cycle_queue_depth, depth);
    }
    result.max_queue_depth = std::max(result.max_queue_depth, cycle_queue_depth);
    if (has_flood) {
      std::uint64_t rejections = 0;
      std::uint64_t backoffs = 0;
      for (const auto& pool : flood_pools) {
        for (const consensus::MinBftClient* client : pool) {
          rejections += client->overloaded_replies();
          backoffs += client->overload_backoffs();
        }
      }
      result.flood_rejections = rejections;
      result.flood_backoffs = backoffs;
    }

    // --- Metrics + trace. ---
    const int membership_size = static_cast<int>(cluster.membership().size());
    result.min_membership = std::min(result.min_membership, membership_size);
    result.max_membership = std::max(result.max_membership, membership_size);
    node_sum += testbed.num_nodes();
    const bool available = testbed.failed_count() <= scenario_.f;
    if (available) ++available_cycles;
    if (options_.record_trace) {
      std::ostringstream line;
      line << "t=" << t << " s=" << decision.state
           << " N=" << testbed.num_nodes() << " H=" << testbed.healthy_count()
           << " M=" << membership_size << " svc=" << (service_ok ? 1 : 0)
           << " rec=" << join_ids(recovered_ids)
           << " evt=" << join_ids(evicted_ids) << " add=" << added
           << " defer=" << decision.deferred_evictions
           << " stall=" << result.quorum_stalls;
      if (has_flood) {
        // Overload suffix only for flood scenarios, so the golden traces of
        // every pre-existing scenario stay byte-for-byte unchanged.
        line << " fs=" << result.flood_submitted
             << " fc=" << result.flood_completed
             << " fr=" << result.flood_rejections << " q=" << cycle_queue_depth;
      }
      if (use_async || has_ctrl_events) {
        // Controller suffix only when the async controller or a scripted
        // controller fault is in play — same golden-trace rationale.
        // md: F(resh) / H(old) / B (fallback) / I(nline) / Z (frozen).
        line << " ep=" << decision.policy_epoch
             << " st=" << decision.staleness_cycles
             << " md=" << (frozen ? 'Z' : core::mode_letter(decision.mode));
      }
      result.trace.push_back(line.str());
    }
  }

  // Unresolved compromises at the horizon count T(R) = horizon (Table 7).
  for (const auto& [node_id, since] : open_compromise) {
    (void)node_id;
    (void)since;
    total_ttr += scenario_.horizon;
    ++ttr_samples;
    ++result.compromises;
  }

  for (const ReplicaId id : cluster.replica_ids()) {
    result.final_view = std::max(result.final_view, cluster.replica(id).view());
  }
  if (async) {
    const core::AsyncControllerStats ctrl = async->stats();
    result.policy_epoch = ctrl.policy_epoch;
    result.controller_resolves = ctrl.resolves;
    result.controller_rejected = ctrl.rejected;
    result.controller_hold_cycles = ctrl.hold_cycles;
    result.controller_fallback_cycles = ctrl.fallback_cycles;
    result.controller_max_staleness = ctrl.max_staleness;
    result.controller_mode = core::to_string(async->mode());
  }
  if (result.flood_submitted > 0) {
    // Shed requests (an f+1 rejection quorum put them into backoff custody)
    // are the valve doing its job: subtract them from the offered load so
    // admitted_availability measures how the *admitted* traffic fared.
    std::uint64_t shed = 0;
    for (std::size_t ei = 0; ei < scenario_.events.size(); ++ei) {
      if (scenario_.events[ei].kind == ScenarioEvent::Kind::SlowLorisFlood) {
        continue;  // adversarial load, excluded from flood_submitted too
      }
      for (const consensus::MinBftClient* client : flood_pools[ei]) {
        shed += client->shed_pending_count();
      }
    }
    shed = std::min(shed, result.flood_submitted);
    const double denom =
        static_cast<double>(result.flood_submitted - shed);
    result.admitted_availability =
        denom > 0.0
            ? static_cast<double>(result.flood_completed) / denom
            : 1.0;
  }
  result.availability =
      static_cast<double>(available_cycles) / scenario_.horizon;
  result.service_availability =
      static_cast<double>(service_cycles) / scenario_.horizon;
  result.time_to_recovery = ttr_samples > 0 ? total_ttr / ttr_samples : 0.0;
  result.avg_nodes = node_sum / scenario_.horizon;
  return result;
}

std::vector<ScenarioResult> ScenarioRunner::run_many(
    const std::vector<std::uint64_t>& seeds, int threads) const {
  std::vector<ScenarioResult> results(seeds.size());
  const util::ParallelRunner runner(threads);
  runner.for_each(static_cast<std::int64_t>(seeds.size()),
                  [&](std::int64_t i) {
                    const auto idx = static_cast<std::size_t>(i);
                    results[idx] = run(seeds[idx]);
                  });
  return results;
}

ScenarioRunner make_scenario_runner(const Scenario& scenario,
                                    std::uint64_t seed, int detector_samples,
                                    ScenarioRunner::Options options) {
  Rng rng(seed);
  FittedDetector detector = fit_pooled_detector(
      detector_samples, 11, scenario.testbed.background_arrival_rate *
                                scenario.testbed.background_mean_session,
      rng);
  // The system CMDP over the hardware pool: survival/recovery rates follow
  // from the node kernel (the parametric route of §V-B; the estimated route
  // is exercised by bench_fig16).
  const auto& p = scenario.node_params;
  const double q_healthy =
      (1.0 - p.p_attack) * (1.0 - p.p_crash_healthy);
  const double q_recover = p.p_update + scenario.recovery_threshold * 0.2;
  const auto cmdp = pomdp::SystemCmdp::parametric(
      scenario.max_nodes, scenario.f, scenario.epsilon_a, q_healthy,
      std::min(q_recover, 0.95));
  auto replication = solvers::solve_replication_lp(cmdp);
  std::optional<solvers::CmdpSolution> strategy;
  if (replication.valid_policy()) {
    strategy = std::move(replication);
  }
  return ScenarioRunner(scenario, std::move(detector), std::move(strategy),
                        options, cmdp);
}

}  // namespace tolerance::emulation
