#include "ml/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "math/kern/kern.h"

namespace locat::ml {

void Kernel::EvaluateAgainstRows(const double* q, size_t dim,
                                 const double* rows, size_t nrows,
                                 size_t stride, double* out) const {
  for (size_t r = 0; r < nrows; ++r) {
    out[r] = EvaluateData(q, rows + r * stride, dim);
  }
}

void Kernel::EvaluateBlock(const double* cols, size_t m, size_t dim,
                           const double* rows, size_t nrows, size_t stride,
                           double* out) const {
  std::vector<double> point(dim);
  for (size_t c = 0; c < m; ++c) {
    for (size_t k = 0; k < dim; ++k) point[k] = cols[k * m + c];
    for (size_t r = 0; r < nrows; ++r) {
      out[r * m + c] = EvaluateData(point.data(), rows + r * stride, dim);
    }
  }
}

math::Matrix Kernel::GramMatrix(const math::Matrix& x) const {
  const size_t n = x.rows();
  math::Matrix k(n, n);
  if (n == 0) return k;
  // Lower triangle row-batched (row i against rows 0..i), then mirrored:
  // half the kernel evaluations, no per-pair Vector allocations.
  for (size_t i = 0; i < n; ++i) {
    EvaluateAgainstRows(x.RowData(i), x.cols(), x.RowData(0), i + 1, x.cols(),
                        k.RowData(i));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) k(i, j) = k(j, i);
  }
  return k;
}

double GaussianKernel::EvaluateData(const double* a, const double* b,
                                    size_t n) const {
  return math::kern::Exp(pre_ * math::kern::SquaredDistance(a, b, n));
}

void GaussianKernel::EvaluateAgainstRows(const double* q, size_t dim,
                                         const double* rows, size_t nrows,
                                         size_t stride, double* out) const {
  math::kern::SquaredDistanceRows(rows, nrows, dim, stride, q, out);
  math::kern::ExpScaled(out, nrows, pre_, 1.0);
}

void GaussianKernel::EvaluateBlock(const double* cols, size_t m, size_t dim,
                                   const double* rows, size_t nrows,
                                   size_t stride, double* out) const {
  // Unit weights: fma(1*d, d, acc) is fma(d, d, acc), and d = row - point
  // squares exactly as SquaredDistance's point - row, so each distance
  // has its bits.
  const std::vector<double> ones(dim, 1.0);
  for (size_t r = 0; r < nrows; ++r) {
    math::kern::WeightedSquaredDistanceCols(cols, m, dim, rows + r * stride,
                                            ones.data(), out + r * m);
  }
  math::kern::ExpScaled(out, nrows * m, pre_, 1.0);
}

double PolynomialKernel::EvaluateData(const double* a, const double* b,
                                      size_t n) const {
  return std::pow(math::kern::Dot(a, b, n) + coef0_, degree_);
}

double PerceptronKernel::EvaluateData(const double* a, const double* b,
                                      size_t n) const {
  const double na = std::sqrt(math::kern::Dot(a, a, n));
  const double nb = std::sqrt(math::kern::Dot(b, b, n));
  if (na == 0.0 || nb == 0.0) return na == nb ? 1.0 : 0.0;
  const double cosang =
      std::clamp(math::kern::Dot(a, b, n) / (na * nb), -1.0, 1.0);
  return 1.0 - std::acos(cosang) / M_PI;
}

namespace {

std::vector<double> InverseSquares(const math::Vector& lengthscales) {
  std::vector<double> w(lengthscales.size());
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 1.0 / (lengthscales[i] * lengthscales[i]);
  }
  return w;
}

}  // namespace

ArdSquaredExponentialKernel::ArdSquaredExponentialKernel(
    math::Vector lengthscales, double signal_variance)
    : lengthscales_(std::move(lengthscales)),
      inv_sq_lengthscales_(InverseSquares(lengthscales_)),
      signal_variance_(signal_variance) {}

double ArdSquaredExponentialKernel::EvaluateData(const double* a,
                                                 const double* b,
                                                 size_t n) const {
  assert(n == lengthscales_.size());
  const double s = math::kern::WeightedSquaredDistance(
      a, b, inv_sq_lengthscales_.data(), n);
  return signal_variance_ * math::kern::Exp(-0.5 * s);
}

void ArdSquaredExponentialKernel::EvaluateAgainstRows(
    const double* q, size_t dim, const double* rows, size_t nrows,
    size_t stride, double* out) const {
  assert(dim == lengthscales_.size());
  math::kern::WeightedSquaredDistanceRows(rows, nrows, dim, stride, q,
                                          inv_sq_lengthscales_.data(), out);
  math::kern::ExpScaled(out, nrows, -0.5, signal_variance_);
}

}  // namespace locat::ml
