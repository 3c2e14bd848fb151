// Algorithm 2 of the paper: the optimal replication strategy via the
// occupancy-measure linear program (14) of the constrained MDP (Prob. 2).
//
//   minimize   sum_{s,a} s * rho(s,a)
//   subject to rho >= 0,  sum rho = 1,
//              sum_a rho(s,a) = sum_{s',a} rho(s',a) f_S(s | s', a)  for all s,
//              sum_{s,a} rho(s,a) [s >= f+1] >= epsilon_A.
//
// The optimal policy pi*(a|s) = rho*(s,a) / sum_a rho*(s,a); by Theorem 2 it
// is a randomized mixture of two threshold strategies, and the solution
// object reports the extracted thresholds (beta1, beta2) and mixing
// coefficient kappa.
#pragma once

#include <array>
#include <vector>

#include "tolerance/lp/simplex.hpp"
#include "tolerance/pomdp/system_model.hpp"
#include "tolerance/util/rng.hpp"

namespace tolerance::solvers {

struct CmdpSolution {
  lp::LpStatus status = lp::LpStatus::Infeasible;
  /// rho(s, a) occupancy measure.
  std::vector<std::array<double, 2>> occupancy;
  /// pi(a = 1 | s) — probability of adding a node in state s.  States never
  /// visited under the optimal occupancy are filled in by threshold
  /// extension (consistent with Thm. 2).
  std::vector<double> add_probability;
  double average_cost = 0.0;    ///< E[s] under the stationary distribution
  double availability = 0.0;    ///< P[s >= f+1] under the stationary distribution
  long lp_iterations = 0;
  /// Fill of the final eta-file reinversion (see LpSolution::eta_nnz).
  std::size_t lp_eta_nnz = 0;
  /// Optimal LP basis — feed back into solve_replication_lp to warm start
  /// the next solve (an epsilon_A sweep, a re-estimated kernel, the
  /// periodic re-solve of a control loop).
  lp::SimplexBasis basis;
  /// How the solver used the supplied (or self-crashed) starting basis.
  lp::WarmStart warm_start = lp::WarmStart::None;

  // Threshold-mixture decomposition (Thm. 2): pi = kappa*pi_{beta1} +
  // (1-kappa)*pi_{beta2} with beta1 <= beta2.
  int beta1 = -1;
  int beta2 = -1;
  double kappa = 1.0;
  int num_randomized_states = 0;  ///< states with 0 < pi(1|s) < 1

  /// Sample an action for state s.
  int act(int s, Rng& rng) const;

  /// Online policy queries for the system controller's control cycle: the
  /// live aggregated state s_t = floor(sum_i (1 - b_{i,t})) can fall outside
  /// the solved range when membership churns, so s is clamped into
  /// [0, smax] (consistent with the Thm. 2 threshold extension — the policy
  /// is monotone, so out-of-range states inherit the boundary action).
  double add_probability_at(int s) const;
  int act_clamped(int s, Rng& rng) const;

  /// Poison guard for the asynchronous publish path (core/policy_buffer.hpp):
  /// true iff the solve converged (Optimal), the policy table is non-empty,
  /// every entry is a finite probability in [0, 1], the average cost is
  /// finite, and the occupancy measure is a distribution (every rho(s, a)
  /// finite and >= -1e-9, summing to 1 within 1e-9).  A background re-solve
  /// that comes back infeasible, unbounded or NaN-laden must be rejected by
  /// the controller, never flipped into the live table the decision path
  /// reads.
  bool valid_policy() const;
};

/// The occupancy-measure LP (14) of `cmdp` that solve_replication_lp
/// solves: variables rho(s, a) at index 2*s + a plus one floor aggregate at
/// index 2*num_states (see cmdp_lp.cpp), so other LP solvers can be checked
/// against the same program.
lp::LinearProgram replication_lp(const pomdp::SystemCmdp& cmdp);

/// Solve Prob. 2 exactly (Algorithm 2).
///
/// `warm` (optional) seeds the simplex with a basis from a previous solve of
/// a same-shaped CMDP (same smax; epsilon_A / kernel may differ) — see
/// CmdpSolution::basis.  Without a caller basis the solver crashes its own
/// start from the never-add policy rho(s, 0).  Its stationary occupancy is a
/// vertex of the flow polytope, and because adding a node only shifts the
/// next state up, the basis is dual feasible on monotone kernels (Thm. 1):
/// if never-add meets epsilon_A the solve is optimal after one
/// factorization, otherwise dual-simplex repair raises the add threshold
/// until (14e) binds at Thm. 2's mixture.  Non-monotone kernels fall through
/// to primal phase 2, an exhausted repair to a from-scratch phase 1.
CmdpSolution solve_replication_lp(
    const pomdp::SystemCmdp& cmdp,
    lp::SimplexSolver::Options lp_options = {},
    const lp::SimplexBasis* warm = nullptr);

}  // namespace tolerance::solvers
