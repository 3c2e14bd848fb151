#include "tolerance/oracles/ip_reference.hpp"

#include <utility>

#include "solvers/ip_detail.hpp"
#include "tolerance/lp/simplex.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::oracles {
namespace {

using pomdp::NodeAction;
using pomdp::NodeState;
using solvers::AlphaVector;

double slope(const AlphaVector& a) { return a.v_compromised - a.v_healthy; }

/// One action's undiscounted backup by enumeration: prune each
/// observation's projected set, then fold the sets into the immediate cost
/// one full cross-sum (and re-prune) at a time.
std::vector<AlphaVector> backup_action(const pomdp::NodeModel& model,
                                       const pomdp::ObservationModel& obs,
                                       const std::vector<AlphaVector>& next,
                                       NodeAction a) {
  std::vector<AlphaVector> acc{{model.cost(NodeState::Healthy, a),
                                model.cost(NodeState::Compromised, a), a}};
  std::vector<AlphaVector> set;
  for (int o = 0; o < obs.num_observations(); ++o) {
    solvers::detail::project(model, obs, next, a, o, 1.0, set);
    set = solvers::prune(std::move(set));
    std::vector<AlphaVector> cross;
    cross.reserve(acc.size() * set.size());
    for (const AlphaVector& u : acc) {
      for (const AlphaVector& v : set) {
        cross.push_back(
            {u.v_healthy + v.v_healthy, u.v_compromised + v.v_compromised, a});
      }
    }
    acc = solvers::prune(std::move(cross));
  }
  return acc;
}

}  // namespace

solvers::IncrementalPruning::Result solve_cycle_reference(
    const pomdp::NodeModel& model, const pomdp::ObservationModel& obs,
    int delta_r) {
  TOL_ENSURE(delta_r >= 1, "cycle solve needs DeltaR >= 1");
  solvers::IncrementalPruning::Result result;
  auto& values = result.value_functions;
  values.assign(static_cast<std::size_t>(delta_r), {});
  values.back() = {{model.cost(NodeState::Healthy, NodeAction::Recover),
                    model.cost(NodeState::Compromised, NodeAction::Recover),
                    NodeAction::Recover}};
  for (int t = delta_r - 2; t >= 0; --t) {
    const auto& next = values[static_cast<std::size_t>(t + 1)];
    std::vector<AlphaVector> both;
    for (const NodeAction a : {NodeAction::Wait, NodeAction::Recover}) {
      const std::vector<AlphaVector> set = backup_action(model, obs, next, a);
      both.insert(both.end(), set.begin(), set.end());
    }
    values[static_cast<std::size_t>(t)] = solvers::prune(std::move(both));
    ++result.iterations;
  }
  result.average_cost =
      solvers::envelope_value(values[0], model.params().p_attack) / delta_r;
  return result;
}

std::vector<AlphaVector> prune_lp(std::vector<AlphaVector> alphas,
                                  double eps) {
  if (alphas.size() <= 1) return alphas;
  // Same parallel-line dedup as the sweep, so ties cannot keep both copies.
  solvers::detail::sort_dedup(alphas, 1e-12);
  // Witness LP per candidate i over variables (b, d+, d-):
  //   maximize d   s.t.  b <= 1,  and for every j != i
  //   (s_i - s_j) b + d <= h_j - h_i            (d := d+ - d-)
  // i.e. alpha_i(b) + d <= alpha_j(b).  Keep i iff the optimal witness gap
  // d* exceeds eps: somewhere on [0, 1] the line sits strictly below every
  // other, exactly the sweep's survival criterion (lines touching the
  // envelope at a single point are dropped by both).
  const lp::SimplexSolver solver;
  std::vector<AlphaVector> kept;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    lp::LinearProgram witness(3);
    witness.objective = {0.0, -1.0, 1.0};
    witness.add_constraint({{0, 1.0}}, lp::Relation::LessEq, 1.0);
    for (std::size_t j = 0; j < alphas.size(); ++j) {
      if (j == i) continue;
      witness.add_constraint(
          {{0, slope(alphas[i]) - slope(alphas[j])}, {1, 1.0}, {2, -1.0}},
          lp::Relation::LessEq,
          alphas[j].v_healthy - alphas[i].v_healthy);
    }
    const auto sol = solver.solve(witness);
    const bool keep =
        sol.status != lp::LpStatus::Optimal || -sol.objective > eps;
    if (keep) kept.push_back(alphas[i]);
  }
  return kept;
}

}  // namespace tolerance::oracles
