#include "tolerance/solvers/cmdp_lp.hpp"

#include <algorithm>
#include <cmath>

#include "tolerance/util/ensure.hpp"

namespace tolerance::solvers {
namespace {

constexpr double kRandomizedEps = 1e-6;
/// valid_policy(): slack on rho >= 0 and on sum rho = 1, far above the
/// rounding of a converged solve and far below the mass error of an
/// infeasible point reported as Optimal.
constexpr double kOccupancyTol = 1e-9;

}  // namespace

int CmdpSolution::act(int s, Rng& rng) const {
  TOL_ENSURE(s >= 0 && s < static_cast<int>(add_probability.size()),
             "state out of range");
  return rng.bernoulli(add_probability[static_cast<std::size_t>(s)]) ? 1 : 0;
}

double CmdpSolution::add_probability_at(int s) const {
  TOL_ENSURE(!add_probability.empty(), "solution has no policy");
  const int hi = static_cast<int>(add_probability.size()) - 1;
  const int clamped = std::min(std::max(s, 0), hi);
  return add_probability[static_cast<std::size_t>(clamped)];
}

int CmdpSolution::act_clamped(int s, Rng& rng) const {
  return rng.bernoulli(add_probability_at(s)) ? 1 : 0;
}

bool CmdpSolution::valid_policy() const {
  if (status != lp::LpStatus::Optimal) return false;
  if (add_probability.empty()) return false;
  if (!std::isfinite(average_cost)) return false;
  for (const double p : add_probability) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) return false;
  }
  // The occupancy must be a distribution (14c): the simplex can report
  // Optimal for an infeasible point on near-degenerate kernels.
  double mass = 0.0;
  for (const auto& rho : occupancy) {
    for (const double r : rho) {
      if (!std::isfinite(r) || r < -kOccupancyTol) return false;
      mass += r;
    }
  }
  return std::abs(mass - 1.0) <= kOccupancyTol;
}

lp::LinearProgram replication_lp(const pomdp::SystemCmdp& cmdp) {
  const int n = cmdp.num_states();
  // Variable layout: rho(s, a) at index 2*s + a, plus one aggregate z at
  // index 2n (see below).
  //
  // The raw flow-balance columns are dense: every kernel row carries a
  // small uniform floor (the `mix` mass of the parametric kernel, the
  // Laplace smoothing of the estimated one), so f(s | s', a) is nonzero for
  // every s.  SystemCmdp stores each row split into that floor plus a
  // sparse "bump":
  //   f(s | s', a) = bump(s | s', a) + u(s', a),
  // and the LP aggregates the floor through a single auxiliary variable
  //   z = sum_{s',a} u(s', a) rho(s', a)   (one defining Eq row),
  // so each flow row reads
  //   sum_a rho(s,a) - sum_{s',a} bump(s|s',a) rho(s',a) - z = 0.
  // This is an exact reformulation (any row-constant split is), but the
  // occupancy columns now hold only their bump entries, which is what makes
  // the sparse revised simplex pay off.  Bump entries below kDropTol —
  // far beneath the solver's own feasibility tolerances — are dropped.
  constexpr double kDropTol = 1e-12;
  const int z_var = 2 * n;
  lp::LinearProgram program(2 * n + 1);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < 2; ++a) {
      program.objective[static_cast<std::size_t>(2 * s + a)] = cmdp.cost(s);
    }
  }
  program.objective[static_cast<std::size_t>(z_var)] = 0.0;
  // Normalization (14c).
  {
    std::vector<std::pair<int, double>> terms;
    terms.reserve(static_cast<std::size_t>(2 * n));
    for (int j = 0; j < 2 * n; ++j) terms.push_back({j, 1.0});
    program.add_constraint(std::move(terms), lp::Relation::Eq, 1.0);
  }
  // Flow balance (14d): sum_a rho(s,a) - sum_{s',a} rho(s',a) f(s|s',a) = 0,
  // with f split as above.  One of these rows is linearly dependent given
  // (14c); the two-phase simplex handles the redundancy.  Each row lists the
  // diagonal first, then the bump terms by ascending (s', a), then z; a
  // column's own bump term is a second entry beside its diagonal 1, and the
  // solver adds duplicate entries.
  std::vector<std::vector<std::pair<int, double>>> flow(
      static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    flow[static_cast<std::size_t>(s)] = {{2 * s, 1.0}, {2 * s + 1, 1.0}};
  }
  for (int sp = 0; sp < n; ++sp) {
    for (int a = 0; a < 2; ++a) {
      const pomdp::SystemCmdp::Row row = cmdp.row(sp, a);
      for (std::size_t k = 0; k < row.bump.size(); ++k) {
        if (row.bump[k] > kDropTol) {
          flow[static_cast<std::size_t>(row.lo) + k].push_back(
              {2 * sp + a, -row.bump[k]});
        }
      }
    }
  }
  for (auto& terms : flow) {
    terms.push_back({z_var, -1.0});
    program.add_constraint(std::move(terms), lp::Relation::Eq, 0.0);
  }
  // Availability (14e).
  {
    std::vector<std::pair<int, double>> terms;
    for (int s = 0; s < n; ++s) {
      if (!cmdp.available(s)) continue;
      for (int a = 0; a < 2; ++a) terms.push_back({2 * s + a, 1.0});
    }
    program.add_constraint(std::move(terms), lp::Relation::GreaterEq,
                           cmdp.epsilon_a());
  }
  // Defining row of the floor aggregate z.
  {
    std::vector<std::pair<int, double>> terms;
    for (int sp = 0; sp < n; ++sp) {
      for (int a = 0; a < 2; ++a) {
        const double u = cmdp.row(sp, a).floor;
        if (u > 0.0) terms.push_back({2 * sp + a, u});
      }
    }
    terms.push_back({z_var, -1.0});
    program.add_constraint(std::move(terms), lp::Relation::Eq, 0.0);
  }
  return program;
}

CmdpSolution solve_replication_lp(const pomdp::SystemCmdp& cmdp,
                                  lp::SimplexSolver::Options lp_options,
                                  const lp::SimplexBasis* warm) {
  const int n = cmdp.num_states();
  const lp::LinearProgram program = replication_lp(cmdp);
  const lp::SimplexSolver solver(lp_options);
  // Starting basis: the caller's warm basis if given, else a policy crash
  // basis — the occupancy columns rho(s, 0) of the never-add policy (one
  // per state), the floor aggregate z, the availability surplus, and a zero
  // artificial parking the one redundant flow row (flow + normalization
  // rows are rank-deficient by one).  The objective is E[s] and a = 1 only
  // shifts the next state up by one, so this basis prices every add column
  // at a reduced cost >= 0 whenever one more healthy node never lowers the
  // long-run node count (Thm. 1's monotone kernels): it is dual feasible.
  // If never-add meets epsilon_A the solve is optimal after one
  // factorization; if not, the surplus is negative and the solver's dual
  // repair raises the threshold until (14e) binds, stopping at Thm. 2's
  // (beta1, beta2, kappa) mixture.  A kernel that breaks the monotone
  // premise still reaches the optimum through primal phase 2, and a repair
  // that runs out of budget (or a singular crash) through the solver's own
  // from-scratch phase 1.
  lp::SimplexBasis crash;
  if (warm == nullptr) {
    crash.basic.reserve(static_cast<std::size_t>(n + 3));
    for (int s = 0; s < n; ++s) crash.basic.push_back(2 * s);
    crash.basic.push_back(2 * n);               // floor aggregate z
    const int num_vars = 2 * n + 1;
    crash.basic.push_back(num_vars + 1);        // artificial, flow row of s=0
    crash.basic.push_back(num_vars + (n + 1));  // availability surplus
    warm = &crash;
  }
  const lp::LpSolution lp_solution = solver.solve(program, *warm);

  CmdpSolution out;
  out.status = lp_solution.status;
  out.lp_iterations = lp_solution.iterations;
  out.lp_eta_nnz = lp_solution.eta_nnz;
  out.basis = lp_solution.basis;
  out.warm_start = lp_solution.warm_start;
  if (lp_solution.status != lp::LpStatus::Optimal) return out;

  out.occupancy.assign(static_cast<std::size_t>(n), {0.0, 0.0});
  out.add_probability.assign(static_cast<std::size_t>(n), 0.0);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < 2; ++a) {
      out.occupancy[static_cast<std::size_t>(s)][static_cast<std::size_t>(a)] =
          std::max(0.0, lp_solution.x[static_cast<std::size_t>(2 * s + a)]);
    }
  }
  out.average_cost = lp_solution.objective;
  for (int s = 0; s < n; ++s) {
    const auto& rho = out.occupancy[static_cast<std::size_t>(s)];
    if (cmdp.available(s)) out.availability += rho[0] + rho[1];
  }

  // Policy extraction (Algorithm 2, line 4).
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  for (int s = 0; s < n; ++s) {
    const auto& rho = out.occupancy[static_cast<std::size_t>(s)];
    const double total = rho[0] + rho[1];
    if (total > kRandomizedEps) {
      visited[static_cast<std::size_t>(s)] = true;
      out.add_probability[static_cast<std::size_t>(s)] = rho[1] / total;
    }
  }
  // Threshold decomposition over visited states (Thm. 2 structure).
  int beta2 = -1;  // largest s with pi(1|s) > 0
  int beta1 = -1;  // largest s with pi(1|s) ~= 1
  double kappa_mix = 0.0;
  for (int s = 0; s < n; ++s) {
    if (!visited[static_cast<std::size_t>(s)]) continue;
    const double p = out.add_probability[static_cast<std::size_t>(s)];
    if (p > kRandomizedEps) beta2 = std::max(beta2, s);
    if (p >= 1.0 - kRandomizedEps) beta1 = std::max(beta1, s);
    if (p > kRandomizedEps && p < 1.0 - kRandomizedEps) {
      ++out.num_randomized_states;
      kappa_mix = p;
    }
  }
  out.beta1 = beta1;
  out.beta2 = beta2;
  out.kappa = out.num_randomized_states > 0 ? kappa_mix : 1.0;
  // Fill unvisited states consistently with the threshold structure: add
  // below beta1 (or below beta2 with prob kappa), never above beta2.
  for (int s = 0; s < n; ++s) {
    if (visited[static_cast<std::size_t>(s)]) continue;
    double p = 0.0;
    if (beta1 >= 0 && s <= beta1) {
      p = 1.0;
    } else if (beta2 >= 0 && s <= beta2) {
      p = out.num_randomized_states > 0 ? out.kappa : 1.0;
    }
    out.add_probability[static_cast<std::size_t>(s)] = p;
  }
  return out;
}

}  // namespace tolerance::solvers
