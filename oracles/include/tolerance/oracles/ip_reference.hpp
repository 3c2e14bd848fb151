// Reference implementations the Incremental Pruning solver
// (solvers::IncrementalPruning) is differentially tested and benchmarked
// against.
#pragma once

#include <vector>

#include "tolerance/pomdp/node_model.hpp"
#include "tolerance/pomdp/observation_model.hpp"
#include "tolerance/solvers/incremental_pruning.hpp"

namespace tolerance::oracles {

/// IncrementalPruning::solve_cycle with the textbook backup: every
/// per-observation cross-sum enumerates all |A|*|B| sums and re-prunes them
/// with solvers::prune(), instead of merging hull breakpoints.  Same
/// projection, pruning tolerance and bounded-error cap as the library, so
/// the envelopes must agree to round-off.
solvers::IncrementalPruning::Result solve_cycle_reference(
    const pomdp::NodeModel& model, const pomdp::ObservationModel& obs,
    int delta_r);

/// LP-domination pruning (Lark's algorithm): keep an alpha vector iff a
/// linear program run against all the others finds a belief where it is
/// strictly below their envelope.  Exact like the hull sweep in
/// solvers::prune(), which it cross-checks; the witness LPs run on the
/// library's revised simplex.  O(n) LP solves; no bounded-error cap.
std::vector<solvers::AlphaVector> prune_lp(
    std::vector<solvers::AlphaVector> alphas, double eps = 1e-9);

}  // namespace tolerance::oracles
