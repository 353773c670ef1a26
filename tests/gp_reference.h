// From-scratch reference for the GP log marginal likelihood, shared by the
// GP and kernel-cache tests.
#ifndef LOCAT_TESTS_GP_REFERENCE_H_
#define LOCAT_TESTS_GP_REFERENCE_H_

#include <cmath>
#include <limits>

#include "math/cholesky.h"
#include "math/matrix.h"
#include "math/stats.h"
#include "ml/gp.h"

namespace locat::testutil {

/// Log marginal likelihood of (x, y) under `hp`, built the straightforward
/// way: targets standardized like GaussianProcess::Fit, the kernel from
/// per-pair ARD squared-exponential evaluations (one exp and divide per
/// dimension), the noise + 1e-10 diagonal, and Fit's jittered
/// factorization, so near the positive-definiteness boundary it
/// regularizes as the cached path does. Returns -inf for mismatched
/// inputs or a kernel that cannot be factored even with jitter. Agrees
/// with GpKernelCache::LogMarginalLikelihood up to floating-point
/// reassociation.
inline double ReferenceLogMarginalLikelihood(const math::Matrix& x,
                                             const math::Vector& y,
                                             const ml::GpHyperparams& hp) {
  constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)
  const size_t n = x.rows();
  if (n == 0 || n != y.size() || hp.log_lengthscales.size() != x.cols()) {
    return -std::numeric_limits<double>::infinity();
  }
  const double y_mean = math::Mean(y.data());
  double y_std = math::StdDev(y.data());
  if (y_std < 1e-12) y_std = 1.0;
  math::Vector ys(n);
  for (size_t i = 0; i < n; ++i) ys[i] = (y[i] - y_mean) / y_std;

  const auto kernel = [&](size_t a, size_t b) {
    double s = 0.0;
    for (size_t k = 0; k < x.cols(); ++k) {
      const double d = (x(a, k) - x(b, k)) / std::exp(hp.log_lengthscales[k]);
      s += d * d;
    }
    return std::exp(hp.log_signal_variance) * std::exp(-0.5 * s);
  };
  math::Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      k(i, j) = kernel(i, j);
      k(j, i) = k(i, j);
    }
  }
  k.AddToDiagonal(std::exp(hp.log_noise_variance) + 1e-10);

  auto chol = math::Cholesky::FactorWithJitter(k);
  if (!chol.ok()) return -std::numeric_limits<double>::infinity();
  const math::Vector alpha = chol->Solve(ys);
  return -0.5 * ys.Dot(alpha) - 0.5 * math::FactorLogDeterminant(chol->L()) -
         static_cast<double>(n) * kHalfLog2Pi;
}

}  // namespace locat::testutil

#endif  // LOCAT_TESTS_GP_REFERENCE_H_
