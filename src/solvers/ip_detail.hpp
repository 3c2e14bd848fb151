// Incremental Pruning internals shared with the test oracles (private to the
// library; the reference backup and the LP-domination pruning among the
// oracles include this header, so oracle and library project and deduplicate
// alpha sets through the same code).
#pragma once

#include <vector>

#include "tolerance/pomdp/node_model.hpp"
#include "tolerance/pomdp/observation_model.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"

namespace tolerance::solvers::detail {

/// Sort by slope descending (ties: lowest intercept first) and drop
/// eps-parallel duplicates, keeping the lowest.
void sort_dedup(std::vector<AlphaVector>& alphas, double eps);

/// Project the next-stage alpha set through (action a, observation o) into
/// `out`:
///   g(s) = discount * sum_{s' in {H,C}} f(s'|s,a) Z(o|s') alpha(s').
/// The crash branch contributes 0 (value of a crashed node is 0).
void project(const pomdp::NodeModel& model, const pomdp::ObservationModel& obs,
             const std::vector<AlphaVector>& next, pomdp::NodeAction a, int o,
             double discount, std::vector<AlphaVector>& out);

}  // namespace tolerance::solvers::detail
