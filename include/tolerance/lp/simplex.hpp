// Linear-program solver for the occupancy-measure LP of Algorithm 2: a
// sparse revised simplex.  Constraint columns are stored sparsely (CSC), the
// basis inverse is kept as a Markowitz-ordered LU factorization plus an
// eta file of product-form updates, recomputed every few dozen pivots, and
// entering columns are priced with a rotating partial-pricing window so an
// iteration never touches the whole constraint matrix.  The solver accepts
// a caller supplied starting basis (warm start): a basis that is still
// primal feasible skips phase 1 entirely, and a basis that lost primal
// feasibility to a right-hand-side change (an epsilon_A sweep, a
// re-estimated kernel) but kept dual feasibility is repaired with a few
// dual-simplex pivots instead of a from-scratch solve.
//
// The solver is exact (up to floating point) and uses Dantzig pricing with
// an automatic switch to Bland's rule when degeneracy stalls progress,
// which guarantees termination.
#pragma once

#include <vector>

#include "tolerance/lp/lp.hpp"

namespace tolerance::lp {

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/// How a warm-start request was resolved (LpSolution::warm_start).
enum class WarmStart {
  None,         ///< cold solve (no basis supplied)
  PrimalReuse,  ///< supplied basis was primal feasible: phase 1 skipped
  DualRepair,   ///< basis repaired with dual-simplex pivots, then reused
  Rejected,     ///< basis unusable (singular / shape mismatch): cold solve
};

/// A basis snapshot in a shape-stable column indexing, so a basis taken from
/// one LP can seed the solve of another LP with the same shape (same
/// variable count, same constraint count/relations — e.g. the same CMDP at a
/// different epsilon_A or with a re-estimated kernel).
///
/// Column encoding: j in [0, num_vars) is the j-th structural variable;
/// num_vars + i is the auxiliary column of constraint i (slack for LessEq,
/// surplus for GreaterEq, artificial for Eq); num_vars + m + i is the
/// phase-1 artificial of GreaterEq constraint i.  Relations are the ones
/// after rhs-sign normalization (a row with a negative rhs is negated).
struct SimplexBasis {
  std::vector<int> basic;  ///< basic column per constraint row
  bool empty() const { return basic.empty(); }
};

struct LpSolution {
  LpStatus status = LpStatus::IterationLimit;
  std::vector<double> x;      ///< primal values for the original variables
  double objective = 0.0;     ///< c^T x at the solution
  long iterations = 0;        ///< total pivots across all phases
  /// Optimal basis (populated when status == Optimal); feed back into
  /// solve() to warm start a related LP.
  SimplexBasis basis;
  WarmStart warm_start = WarmStart::None;
  /// Nonzeros in the final basis factorization (LU steps plus update etas)
  /// — the fill metric the Markowitz ordering targets.
  std::size_t eta_nnz = 0;
};

class SimplexSolver {
 public:
  struct Options {
    /// Consecutive degenerate pivots before switching from Dantzig pricing
    /// to Bland's anti-cycling rule.
    long bland_stall_threshold = 2000;
  };

  SimplexSolver() : options_() {}
  explicit SimplexSolver(Options options) : options_(options) {}

  LpSolution solve(const LinearProgram& lp) const;
  /// Solve with a warm-start basis (see SimplexBasis).  An empty or
  /// unusable basis degrades gracefully to a cold solve.
  LpSolution solve(const LinearProgram& lp, const SimplexBasis& warm) const;

 private:
  Options options_;
};

}  // namespace tolerance::lp
