// Dense two-phase tableau simplex: the reference the sparse revised simplex
// (lp::SimplexSolver) is differentially tested and benchmarked against.
//
// Every pivot sweeps the whole (m + 1) x (n + slacks + artificials) tableau,
// so it is only fit for small LPs and for timing the library's solver
// against a from-scratch baseline.  It ignores warm starts but exports its
// optimal basis in the shape-stable encoding of lp::SimplexBasis, so a dense
// solve can seed a warm-started revised solve.
#pragma once

#include "tolerance/lp/simplex.hpp"

namespace tolerance::oracles {

/// Solve `lp` with Dantzig pricing, switching to Bland's rule after
/// options.bland_stall_threshold consecutive degenerate pivots.
lp::LpSolution dense_simplex(const lp::LinearProgram& lp,
                             const lp::SimplexSolver::Options& options = {});

}  // namespace tolerance::oracles
