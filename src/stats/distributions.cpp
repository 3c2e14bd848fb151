#include "tolerance/stats/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "tolerance/stats/special.hpp"
#include "tolerance/util/ensure.hpp"

namespace tolerance::stats {

BetaBinomial::BetaBinomial(int n, double alpha, double beta)
    : n_(n), alpha_(alpha), beta_(beta) {
  TOL_ENSURE(n >= 0, "BetaBinomial requires n >= 0");
  TOL_ENSURE(alpha > 0.0 && beta > 0.0,
             "BetaBinomial requires positive shape parameters");
}

double BetaBinomial::log_pmf(int k) const {
  TOL_ENSURE(k >= 0 && k <= n_, "BetaBinomial pmf argument out of support");
  return log_choose(n_, k) + log_beta(k + alpha_, n_ - k + beta_) -
         log_beta(alpha_, beta_);
}

double BetaBinomial::pmf(int k) const { return std::exp(log_pmf(k)); }

double BetaBinomial::mean() const { return n_ * alpha_ / (alpha_ + beta_); }

std::vector<double> BetaBinomial::pmf_vector() const {
  std::vector<double> p(n_ + 1);
  for (int k = 0; k <= n_; ++k) p[k] = pmf(k);
  return p;
}

int BetaBinomial::sample(Rng& rng) const {
  const double p = rng.beta(alpha_, beta_);
  return rng.binomial(n_, p);
}

PoissonDist::PoissonDist(double mean) : mean_(mean) {
  TOL_ENSURE(mean >= 0.0, "Poisson mean must be non-negative");
}

double PoissonDist::pmf(int k) const {
  TOL_ENSURE(k >= 0, "Poisson pmf argument must be non-negative");
  if (mean_ == 0.0) return k == 0 ? 1.0 : 0.0;
  return std::exp(k * std::log(mean_) - mean_ - log_gamma(k + 1.0));
}

int PoissonDist::sample(Rng& rng) const { return rng.poisson(mean_); }

GeometricDist::GeometricDist(double p) : p_(p) {
  TOL_ENSURE(p > 0.0 && p <= 1.0, "Geometric requires p in (0,1]");
}

double GeometricDist::pmf(int k) const {
  TOL_ENSURE(k >= 1, "Geometric support starts at 1");
  return std::pow(1.0 - p_, k - 1) * p_;
}

double GeometricDist::cdf(int k) const {
  if (k < 1) return 0.0;
  return 1.0 - std::pow(1.0 - p_, k);
}

int GeometricDist::sample(Rng& rng) const {
  // Inversion; guards against log(0).
  const double u = std::max(rng.uniform(), 1e-300);
  if (p_ >= 1.0) return 1;
  return 1 + static_cast<int>(std::floor(std::log(u) / std::log1p(-p_)));
}

BinomialDist::BinomialDist(int n, double p) : n_(n), p_(p) {
  TOL_ENSURE(n >= 0, "Binomial requires n >= 0");
  TOL_ENSURE(p >= 0.0 && p <= 1.0, "Binomial requires p in [0,1]");
}

double BinomialDist::pmf(int k) const {
  TOL_ENSURE(k >= 0 && k <= n_, "Binomial pmf argument out of support");
  if (p_ == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p_ == 1.0) return k == n_ ? 1.0 : 0.0;
  return std::exp(log_choose(n_, k) + k * std::log(p_) +
                  (n_ - k) * std::log1p(-p_));
}

std::vector<double> BinomialDist::pmf_vector() const {
  std::vector<double> p;
  const int lo = pmf_window(0.0, p);
  p.insert(p.begin(), static_cast<std::size_t>(lo), 0.0);
  p.resize(static_cast<std::size_t>(n_ + 1), 0.0);
  return p;
}

int BinomialDist::pmf_window(double cutoff, std::vector<double>& out) const {
  TOL_ENSURE(cutoff >= 0.0 && cutoff < 1.0, "pmf cutoff must be in [0, 1)");
  if (p_ == 0.0 || p_ == 1.0) {
    out.push_back(1.0);
    return p_ == 0.0 ? 0 : n_;
  }
  const int mode = std::min(n_, static_cast<int>((n_ + 1) * p_));
  const double peak = pmf(mode);
  const double floor = cutoff * peak;
  const double odds = p_ / (1.0 - p_);
  // Below the mode, walking down: pmf(k-1) = pmf(k) k / ((n-k+1) odds).
  // The walk appends in descending k; reverse it into place.
  const std::size_t begin = out.size();
  double v = peak;
  int lo = mode;
  for (; lo > 0; --lo) {
    v *= lo / ((n_ - lo + 1) * odds);
    if (!(v > floor)) break;
    out.push_back(v);
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  out.push_back(peak);
  // Above the mode: pmf(k+1) = pmf(k) (n-k) odds / (k+1).
  v = peak;
  for (int k = mode; k < n_; ++k) {
    v *= (n_ - k) * odds / (k + 1);
    if (!(v > floor)) break;
    out.push_back(v);
  }
  return lo;
}

int BinomialDist::sample(Rng& rng) const { return rng.binomial(n_, p_); }

}  // namespace tolerance::stats
