#include "tolerance/pomdp/system_model.hpp"

#include <algorithm>
#include <vector>

#include "tolerance/stats/distributions.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::pomdp {

SystemCmdp::SystemCmdp(int smax, int f, double epsilon_a)
    : smax_(smax), f_(f), epsilon_a_(epsilon_a) {
  TOL_ENSURE(smax >= 1, "smax must be >= 1");
  TOL_ENSURE(f >= 0 && f < smax, "need 0 <= f < smax");
  TOL_ENSURE(epsilon_a >= 0.0 && epsilon_a <= 1.0,
             "epsilon_A must be in [0,1]");
  for (auto& rows : rows_) rows.reserve(static_cast<std::size_t>(smax + 1));
}

SystemCmdp::SystemCmdp(int smax, int f, double epsilon_a,
                       const la::Matrix& kernel_wait,
                       const la::Matrix& kernel_add)
    : SystemCmdp(smax, f, epsilon_a) {
  const auto n = static_cast<std::size_t>(smax + 1);
  TOL_ENSURE(kernel_wait.rows() == n && kernel_wait.cols() == n,
             "kernel_wait has wrong shape");
  TOL_ENSURE(kernel_add.rows() == n && kernel_add.cols() == n,
             "kernel_add has wrong shape");
  TOL_ENSURE(kernel_wait.is_row_stochastic(1e-7),
             "kernel_wait must be row-stochastic");
  TOL_ENSURE(kernel_add.is_row_stochastic(1e-7),
             "kernel_add must be row-stochastic");
  std::vector<double> bump(n);
  for (int a = 0; a < 2; ++a) {
    const la::Matrix& k = a == 0 ? kernel_wait : kernel_add;
    for (std::size_t s = 0; s < n; ++s) {
      double floor = k(s, 0);
      for (std::size_t j = 1; j < n; ++j) floor = std::min(floor, k(s, j));
      for (std::size_t j = 0; j < n; ++j) bump[j] = k(s, j) - floor;
      push_row(a, floor, 0, bump);
    }
  }
}

SystemCmdp SystemCmdp::parametric(int smax, int f, double epsilon_a,
                                  double q_healthy, double q_recover,
                                  double mix) {
  TOL_ENSURE(q_healthy >= 0.0 && q_healthy <= 1.0, "q_healthy in [0,1]");
  TOL_ENSURE(q_recover >= 0.0 && q_recover <= 1.0, "q_recover in [0,1]");
  TOL_ENSURE(mix >= 0.0 && mix < 1.0, "mix in [0,1)");
  SystemCmdp cmdp(smax, f, epsilon_a);
  const int n = smax + 1;
  const double uniform = mix / n;
  std::vector<double> ps;
  std::vector<double> pr;
  std::vector<double> conv;
  std::vector<double> shifted;
  for (int s = 0; s <= smax; ++s) {
    ps.clear();
    pr.clear();
    // Healthy next states i + j over the two windows: conv[k] holds
    // next = lo + k, and lo + conv.size() - 1 <= s + (smax - s) = smax.
    const int lo =
        stats::BinomialDist(s, q_healthy).pmf_window(kPmfCutoff, ps) +
        stats::BinomialDist(smax - s, q_recover).pmf_window(kPmfCutoff, pr);
    conv.assign(ps.size() + pr.size() - 1, 0.0);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      double* out = conv.data() + i;
      for (std::size_t j = 0; j < pr.size(); ++j) out[j] += ps[i] * pr[j];
    }
    // a = 1 adds a node: the same row one state up, with the mass pushed
    // past smax folded onto smax.
    shifted = conv;
    if (lo + static_cast<int>(conv.size()) - 1 == smax && conv.size() > 1) {
      shifted[shifted.size() - 2] += shifted.back();
      shifted.pop_back();
    }
    // Mix in `mix` uniform mass and normalize, then split at the row
    // minimum as the dense constructor does.  Off the window the row holds
    // only the uniform share, which is then the minimum.
    double mass = 0.0;
    for (const double p : conv) mass += p;
    const double total = (1.0 - mix) * mass + uniform * n;
    TOL_ENSURE(total > 0.0, "kernel row must have positive mass");
    const auto split = [&](int a, int first, std::vector<double>& row) {
      for (double& p : row) p = ((1.0 - mix) * p + uniform) / total;
      const double floor = row.size() == static_cast<std::size_t>(n)
                               ? *std::min_element(row.begin(), row.end())
                               : uniform / total;
      for (double& p : row) p -= floor;
      cmdp.push_row(a, floor, first, row);
    };
    split(0, lo, conv);
    split(1, std::min(lo + 1, smax), shifted);
  }
  return cmdp;
}

SystemCmdp SystemCmdp::estimate_from_node_simulation(
    int smax, int f, double epsilon_a, const NodeModel& model,
    const ObservationModel& obs, const NodePolicy& policy, int episodes,
    int horizon, Rng& rng, double smoothing) {
  TOL_ENSURE(episodes > 0 && horizon > 1, "need at least one transition");
  const int n = smax + 1;
  la::Matrix counts(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                    smoothing);

  const BeliefUpdater updater(model, obs);
  const double p_attack = model.params().p_attack;

  for (int e = 0; e < episodes; ++e) {
    // Population of smax nodes evolving under the local-level policy.
    std::vector<NodeState> state(static_cast<std::size_t>(smax));
    std::vector<double> belief(static_cast<std::size_t>(smax), p_attack);
    for (auto& s : state) {
      s = rng.bernoulli(p_attack) ? NodeState::Compromised
                                  : NodeState::Healthy;
    }
    auto healthy_count = [&]() {
      int c = 0;
      for (const auto& s : state) c += s == NodeState::Healthy ? 1 : 0;
      return c;
    };
    int prev = healthy_count();
    for (int t = 0; t < horizon; ++t) {
      for (int i = 0; i < smax; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const NodeAction a = policy(belief[idx], t + 1);
        // Sample next state.
        const double to_crash = model.transition(state[idx], a, NodeState::Crashed);
        const double to_h = model.transition(state[idx], a, NodeState::Healthy);
        const double u = rng.uniform();
        if (u < to_crash) {
          // Replacement node (the global level keeps the pool full here;
          // the action effect is modeled by the +a shift below).
          state[idx] = rng.bernoulli(p_attack) ? NodeState::Compromised
                                               : NodeState::Healthy;
          belief[idx] = p_attack;
          continue;
        }
        state[idx] =
            u < to_crash + to_h ? NodeState::Healthy : NodeState::Compromised;
        const int o = obs.sample(state[idx] == NodeState::Compromised, rng);
        belief[idx] = updater.update(belief[idx], a, o);
      }
      const int cur = healthy_count();
      counts(static_cast<std::size_t>(prev), static_cast<std::size_t>(cur)) +=
          1.0;
      prev = cur;
    }
  }

  la::Matrix k0(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  la::Matrix k1 = k0;
  for (int s = 0; s <= smax; ++s) {
    double total = 0.0;
    for (int j = 0; j <= smax; ++j) {
      total += counts(static_cast<std::size_t>(s), static_cast<std::size_t>(j));
    }
    for (int j = 0; j <= smax; ++j) {
      const double p =
          counts(static_cast<std::size_t>(s), static_cast<std::size_t>(j)) /
          total;
      k0(static_cast<std::size_t>(s), static_cast<std::size_t>(j)) = p;
      // a = 1 shifts the outcome by one added node, clamped at smax.
      const int shifted = std::min(smax, j + 1);
      k1(static_cast<std::size_t>(s), static_cast<std::size_t>(shifted)) += p;
    }
  }
  return SystemCmdp(smax, f, epsilon_a, std::move(k0), std::move(k1));
}

void SystemCmdp::push_row(int a, double floor, int lo,
                          std::span<const double> bump) {
  auto& values = bumps_[a];
  rows_[a].push_back({floor, lo, static_cast<int>(bump.size()), values.size()});
  values.insert(values.end(), bump.begin(), bump.end());
}

const SystemCmdp::RowSlot& SystemCmdp::slot(int s, int a) const {
  TOL_ENSURE(s >= 0 && s <= smax_, "state out of range");
  TOL_ENSURE(a == 0 || a == 1, "action must be 0 or 1");
  return rows_[a][static_cast<std::size_t>(s)];
}

SystemCmdp::Row SystemCmdp::row(int s, int a) const {
  const RowSlot& r = slot(s, a);
  return {r.floor, r.lo,
          std::span<const double>(bumps_[a]).subspan(
              r.offset, static_cast<std::size_t>(r.len))};
}

double SystemCmdp::entry(const RowSlot& r, int a, int next) const {
  const int k = next - r.lo;
  if (k < 0 || k >= r.len) return r.floor;
  return r.floor + bumps_[a][r.offset + static_cast<std::size_t>(k)];
}

double SystemCmdp::trans(int s, int a, int next) const {
  TOL_ENSURE(next >= 0 && next <= smax_, "next state out of range");
  return entry(slot(s, a), a, next);
}

int SystemCmdp::step(int s, int a, Rng& rng) const {
  const RowSlot& r = slot(s, a);
  double u = rng.uniform();
  for (int j = 0; j < smax_; ++j) {
    u -= entry(r, a, j);
    if (u < 0.0) return j;
  }
  return smax_;
}

}  // namespace tolerance::pomdp
