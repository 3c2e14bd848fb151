#include "tolerance/solvers/incremental_pruning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ip_detail.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::solvers {
namespace {

using pomdp::NodeAction;
using pomdp::NodeModel;
using pomdp::NodeState;
using pomdp::ObservationModel;

double slope(const AlphaVector& a) { return a.v_compromised - a.v_healthy; }

/// A pruned alpha set together with its envelope breakpoints: lines[i] is
/// the envelope's argmin exactly on [start[i], start[i+1]) (start[0] == 0).
/// Lines are sorted by slope descending — the order the minimum envelope
/// activates them as the belief grows.
struct Hull {
  std::vector<AlphaVector> lines;
  std::vector<double> start;

  void clear() {
    lines.clear();
    start.clear();
  }
};

}  // namespace

/// Sort by slope descending (ties: lowest intercept first) and drop
/// eps-parallel duplicates, keeping the lowest.
void detail::sort_dedup(std::vector<AlphaVector>& alphas, double eps) {
  std::sort(alphas.begin(), alphas.end(),
            [](const AlphaVector& x, const AlphaVector& y) {
              const double sx = slope(x);
              const double sy = slope(y);
              if (sx != sy) return sx > sy;
              return x.v_healthy < y.v_healthy;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    if (out > 0 && std::fabs(slope(alphas[out - 1]) - slope(alphas[i])) <= eps) {
      continue;
    }
    alphas[out++] = alphas[i];
  }
  alphas.resize(out);
}

namespace {

/// Lower-envelope sweep over lines already sorted by slope descending and
/// deduplicated; fills `hull` with the surviving lines and their activation
/// breakpoints.
void sweep(const std::vector<AlphaVector>& sorted, double eps, Hull& hull) {
  hull.clear();
  for (const AlphaVector& line : sorted) {
    double x_start = 0.0;
    while (!hull.lines.empty()) {
      const AlphaVector& top = hull.lines.back();
      // s_top > s_new after the descending sort; the new line is lower for
      // all b greater than the intersection point.
      const double x =
          (line.v_healthy - top.v_healthy) / (slope(top) - slope(line));
      if (x <= hull.start.back() + eps) {
        hull.lines.pop_back();
        hull.start.pop_back();
        continue;
      }
      x_start = x;
      break;
    }
    if (hull.lines.empty()) {
      x_start = 0.0;
    } else if (x_start >= 1.0 - eps) {
      continue;  // active only beyond the belief simplex
    }
    hull.lines.push_back(line);
    hull.start.push_back(x_start);
  }
}

void hull_prune(std::vector<AlphaVector> alphas, double eps, Hull& hull) {
  detail::sort_dedup(alphas, eps);
  sweep(alphas, eps, hull);
}

/// Bounded-error cap: keep the envelope's argmin line at each of
/// 2 * max_alpha + 1 grid points.  The pre-overhaul code recomputed the
/// argmin by scanning every hull line per grid point (O(grid * n)); the
/// sweep already hands us the breakpoints, so walk them in lockstep with
/// the grid instead (O(grid + n)).  At a grid point that lands exactly on a
/// breakpoint both neighbours attain the minimum and the old scan kept the
/// earlier line (strict <), so the walk advances only while start < b.
void cap_hull(Hull& hull, int max_alpha, double eps,
              std::vector<AlphaVector>& kept) {
  if (hull.lines.size() <= static_cast<std::size_t>(max_alpha)) return;
  kept.clear();
  const int grid = 2 * max_alpha;
  std::size_t active = 0;
  std::size_t last = hull.lines.size();  // sentinel
  for (int g = 0; g <= grid; ++g) {
    const double b = static_cast<double>(g) / grid;
    while (active + 1 < hull.lines.size() && hull.start[active + 1] < b) {
      ++active;
    }
    if (active != last) {
      kept.push_back(hull.lines[active]);
      last = active;
    }
  }
  // The kept subset still forms its own envelope in sorted order; re-sweep
  // (no sort needed) to refresh the breakpoints.
  sweep(kept, eps, hull);
}

// ---------------------------------------------------------------------------
// Backup
// ---------------------------------------------------------------------------

/// Scratch buffers for the backups, reused across actions, observations and
/// stages so the hot loop performs no steady-state allocation.
struct BackupWorkspace {
  std::vector<AlphaVector> proj;
  std::vector<AlphaVector> capped;
  Hull gamma;
  Hull acc;
  Hull next;
};

/// Pruned cross-sum of two pruned hulls by breakpoint merge: the envelope
/// of {u + v} over independent choices is env(A)(b) + env(B)(b), so the
/// surviving sums are exactly the pairs whose active segments overlap.
void cross_sum_merge(const Hull& a, const Hull& b, NodeAction action,
                     Hull& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  double at = 0.0;
  while (true) {
    out.lines.push_back({a.lines[i].v_healthy + b.lines[j].v_healthy,
                         a.lines[i].v_compromised + b.lines[j].v_compromised,
                         action});
    out.start.push_back(at);
    const double next_a =
        i + 1 < a.lines.size() ? a.start[i + 1]
                               : std::numeric_limits<double>::infinity();
    const double next_b =
        j + 1 < b.lines.size() ? b.start[j + 1]
                               : std::numeric_limits<double>::infinity();
    const double next = std::min(next_a, next_b);
    if (next >= 1.0 || next == std::numeric_limits<double>::infinity()) break;
    if (next_a <= next) ++i;
    if (next_b <= next) ++j;
    at = next;
  }
}

}  // namespace

/// Project the next-stage alpha set through (action, observation):
///   g(s) = discount * sum_{s' in {H,C}} f(s'|s,a) Z(o|s') alpha(s').
/// The crash branch contributes 0 (value of a crashed node is 0).
void detail::project(const NodeModel& model, const ObservationModel& obs,
                     const std::vector<AlphaVector>& next, NodeAction a,
                     int o, double discount, std::vector<AlphaVector>& out) {
  const double f_hh = model.transition(NodeState::Healthy, a, NodeState::Healthy);
  const double f_hc = model.transition(NodeState::Healthy, a, NodeState::Compromised);
  const double f_ch = model.transition(NodeState::Compromised, a, NodeState::Healthy);
  const double f_cc = model.transition(NodeState::Compromised, a, NodeState::Compromised);
  const double z_h = obs.prob(o, false);
  const double z_c = obs.prob(o, true);
  out.clear();
  out.reserve(next.size());
  for (const AlphaVector& alpha : next) {
    AlphaVector g;
    g.action = a;
    g.v_healthy = discount * (f_hh * z_h * alpha.v_healthy +
                              f_hc * z_c * alpha.v_compromised);
    g.v_compromised = discount * (f_ch * z_h * alpha.v_healthy +
                                  f_cc * z_c * alpha.v_compromised);
    out.push_back(g);
  }
}

namespace {

constexpr double kPruneEps = 1e-12;
// Bounded-error cap on every pruned set inside the backups.
constexpr int kMaxAlpha = 64;

/// One action's backup via breakpoint-merge cross-sums, appended to `out`.
void backup_action(const NodeModel& model, const ObservationModel& obs,
                   const std::vector<AlphaVector>& next, NodeAction a,
                   double discount, BackupWorkspace& ws,
                   std::vector<AlphaVector>& out) {
  const int num_obs = obs.num_observations();
  ws.acc.lines.assign(1, {model.cost(NodeState::Healthy, a),
                          model.cost(NodeState::Compromised, a), a});
  ws.acc.start.assign(1, 0.0);
  for (int o = 0; o < num_obs; ++o) {
    detail::project(model, obs, next, a, o, discount, ws.proj);
    hull_prune(std::move(ws.proj), kPruneEps, ws.gamma);
    ws.proj.clear();
    cap_hull(ws.gamma, kMaxAlpha, kPruneEps, ws.capped);
    cross_sum_merge(ws.acc, ws.gamma, a, ws.next);
    std::swap(ws.acc, ws.next);
    cap_hull(ws.acc, kMaxAlpha, kPruneEps, ws.capped);
  }
  out.insert(out.end(), ws.acc.lines.begin(), ws.acc.lines.end());
}

/// One DP backup over both actions: per-action sets concatenated in action
/// order, then pruned.
std::vector<AlphaVector> backup(const NodeModel& model,
                                const ObservationModel& obs,
                                const std::vector<AlphaVector>& next,
                                double discount, BackupWorkspace& ws) {
  std::vector<AlphaVector> out;
  for (const NodeAction a : {NodeAction::Wait, NodeAction::Recover}) {
    backup_action(model, obs, next, a, discount, ws, out);
  }
  return prune(std::move(out), kPruneEps, kMaxAlpha);
}

}  // namespace

double envelope_value(const std::vector<AlphaVector>& alphas, double belief) {
  TOL_ENSURE(!alphas.empty(), "empty alpha set");
  double best = std::numeric_limits<double>::infinity();
  for (const AlphaVector& a : alphas) best = std::min(best, a.value(belief));
  return best;
}

NodeAction envelope_action(const std::vector<AlphaVector>& alphas,
                           double belief) {
  TOL_ENSURE(!alphas.empty(), "empty alpha set");
  double best = std::numeric_limits<double>::infinity();
  NodeAction action = NodeAction::Wait;
  for (const AlphaVector& a : alphas) {
    const double v = a.value(belief);
    if (v < best) {
      best = v;
      action = a.action;
    }
  }
  return action;
}

std::vector<AlphaVector> prune(std::vector<AlphaVector> alphas, double eps,
                               int max_alpha) {
  TOL_ENSURE(max_alpha >= 1, "max_alpha must be >= 1");
  if (alphas.size() <= 1) return alphas;
  Hull hull;
  hull_prune(std::move(alphas), eps, hull);
  std::vector<AlphaVector> kept;
  cap_hull(hull, max_alpha, eps, kept);
  return std::move(hull.lines);
}

IncrementalPruning::Result IncrementalPruning::solve_cycle(
    const NodeModel& model, const ObservationModel& obs, int delta_r) {
  TOL_ENSURE(delta_r >= 1, "cycle solve needs DeltaR >= 1");
  Result result;
  result.value_functions.assign(static_cast<std::size_t>(delta_r), {});
  // Terminal stage t = DeltaR: forced recovery, no continuation (the next
  // cycle is identical and handled by the cycle-average argument (16)).
  result.value_functions[static_cast<std::size_t>(delta_r - 1)] = {
      {model.cost(NodeState::Healthy, NodeAction::Recover),
       model.cost(NodeState::Compromised, NodeAction::Recover),
       NodeAction::Recover}};
  BackupWorkspace ws;
  for (int t = delta_r - 2; t >= 0; --t) {
    result.value_functions[static_cast<std::size_t>(t)] =
        backup(model, obs, result.value_functions[static_cast<std::size_t>(t + 1)],
               1.0, ws);
    result.iterations++;
  }
  const double p_attack = model.params().p_attack;
  result.average_cost =
      envelope_value(result.value_functions[0], p_attack) / delta_r;
  return result;
}

IncrementalPruning::Result IncrementalPruning::solve_discounted(
    const NodeModel& model, const ObservationModel& obs, double discount,
    double tol, int max_iterations) {
  TOL_ENSURE(discount > 0.0 && discount < 1.0, "discount in (0,1)");
  Result result;
  std::vector<AlphaVector> value{{0.0, 0.0, NodeAction::Wait}};
  BackupWorkspace ws;
  result.converged = false;
  for (int it = 0; it < max_iterations; ++it) {
    const std::vector<AlphaVector> next =
        backup(model, obs, value, discount, ws);
    ++result.iterations;
    // Convergence: max envelope change over a belief grid.
    double delta = 0.0;
    for (int g = 0; g <= 64; ++g) {
      const double b = g / 64.0;
      delta = std::max(delta, std::fabs(envelope_value(next, b) -
                                        envelope_value(value, b)));
    }
    value = next;
    if (delta < tol) {
      result.converged = true;
      break;
    }
  }
  result.value_functions.push_back(value);
  const double p_attack = model.params().p_attack;
  result.average_cost =
      (1.0 - discount) * envelope_value(value, p_attack);
  return result;
}

double IncrementalPruning::recovery_threshold(
    const std::vector<AlphaVector>& alphas) {
  TOL_ENSURE(!alphas.empty(), "empty alpha set");
  // The switch point is an envelope breakpoint: read it off the hull sweep
  // directly (the old implementation scanned a 4096-point grid and then
  // bisected onto the same breakpoint).
  Hull hull;
  hull_prune(alphas, 1e-12, hull);
  for (std::size_t i = 0; i < hull.lines.size(); ++i) {
    if (hull.lines[i].action == NodeAction::Recover) return hull.start[i];
  }
  return 1.0;
}

}  // namespace tolerance::solvers
