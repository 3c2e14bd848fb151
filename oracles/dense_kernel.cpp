#include "tolerance/oracles/dense_kernel.hpp"

#include <algorithm>
#include <vector>

#include "tolerance/stats/distributions.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::oracles {
namespace {

std::vector<double> closed_form_pmf(int n, double p) {
  const stats::BinomialDist dist(n, p);
  std::vector<double> v(static_cast<std::size_t>(n + 1));
  for (int k = 0; k <= n; ++k) v[static_cast<std::size_t>(k)] = dist.pmf(k);
  return v;
}

void normalize_row(la::Matrix& m, std::size_t row) {
  double total = 0.0;
  for (std::size_t j = 0; j < m.cols(); ++j) total += m(row, j);
  TOL_ENSURE(total > 0.0, "kernel row must have positive mass");
  for (std::size_t j = 0; j < m.cols(); ++j) m(row, j) /= total;
}

}  // namespace

std::array<la::Matrix, 2> dense_parametric_kernel(int smax, double q_healthy,
                                                  double q_recover,
                                                  double mix) {
  TOL_ENSURE(smax >= 1, "smax must be >= 1");
  TOL_ENSURE(q_healthy >= 0.0 && q_healthy <= 1.0, "q_healthy in [0,1]");
  TOL_ENSURE(q_recover >= 0.0 && q_recover <= 1.0, "q_recover in [0,1]");
  TOL_ENSURE(mix >= 0.0 && mix < 1.0, "mix in [0,1)");
  const int n = smax + 1;
  la::Matrix k0(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  la::Matrix k1 = k0;
  for (int s = 0; s <= smax; ++s) {
    const auto ps = closed_form_pmf(s, q_healthy);
    const auto pr = closed_form_pmf(smax - s, q_recover);
    for (int a = 0; a <= 1; ++a) {
      la::Matrix& k = a == 0 ? k0 : k1;
      double* row = k.row(static_cast<std::size_t>(s));
      for (int i = 0; i <= s; ++i) {
        for (int j = 0; j <= smax - s; ++j) {
          row[std::min(smax, i + j + a)] +=
              ps[static_cast<std::size_t>(i)] * pr[static_cast<std::size_t>(j)];
        }
      }
      if (mix > 0.0) {
        for (int next = 0; next <= smax; ++next) {
          row[next] = (1.0 - mix) * row[next] + mix / n;
        }
      }
      normalize_row(k, static_cast<std::size_t>(s));
    }
  }
  return {std::move(k0), std::move(k1)};
}

}  // namespace tolerance::oracles
