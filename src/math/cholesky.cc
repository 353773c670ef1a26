#include "math/cholesky.h"

#include <cmath>
#include <utility>

#include "math/kern/kern.h"

namespace locat::math {

StatusOr<Cholesky> Cholesky::Factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  // Copy the lower triangle into a zeroed matrix and factor that.
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double* src = a.RowData(i);
    double* dst = l.RowData(i);
    for (size_t j = 0; j <= i; ++j) dst[j] = src[j];
  }
  const ptrdiff_t pivot =
      n == 0 ? -1 : kern::CholeskyFactorInPlace(l.RowData(0), n);
  if (pivot >= 0) {
    return Status::FailedPrecondition(
        "matrix is not positive definite (pivot " + std::to_string(pivot) +
        ")");
  }
  return Cholesky(std::move(l), /*jitter=*/0.0);
}

StatusOr<Cholesky> Cholesky::FactorWithJitter(const Matrix& a,
                                              double initial_jitter,
                                              int max_attempts) {
  auto first = Factor(a);
  if (first.ok()) return first;
  // Attempt 0 already failed on `a` itself, so the jittered copy is built
  // exactly once; later attempts only bump the diagonal in place by the
  // difference to the next jitter level.
  Matrix regularized = a;
  double jitter = initial_jitter;
  double applied = 0.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    regularized.AddToDiagonal(jitter - applied);
    applied = jitter;
    auto result = Factor(regularized);
    if (result.ok()) {
      Cholesky chol = std::move(result).value();
      chol.jitter_ = jitter;
      return chol;
    }
    jitter *= 10.0;
  }
  return Status::FailedPrecondition(
      "matrix not positive definite even with jitter");
}

Vector Cholesky::Solve(const Vector& b) const {
  assert(b.size() == l_.rows());
  Vector x = b;
  ForwardSubstituteInPlace(l_, x.data().data());
  BackSubstituteInPlace(l_, x.data().data());
  return x;
}

Status Cholesky::AppendRow(const Vector& cross, double diag) {
  const size_t n = l_.rows();
  if (cross.size() != n) {
    return Status::InvalidArgument("AppendRow cross size mismatch");
  }
  // Build the extended storage first so the existing factor stays intact
  // when the completion rejects the append.
  Matrix grown(n + 1, n + 1);
  for (size_t i = 0; i < n; ++i) {
    const double* src = l_.RowData(i);
    double* dst = grown.RowData(i);
    for (size_t j = 0; j <= i; ++j) dst[j] = src[j];
  }
  double* row = grown.RowData(n);
  for (size_t j = 0; j < n; ++j) row[j] = cross[j];
  const double d =
      n == 0 ? diag + jitter_
             : kern::CholUpdateAppendRow(grown.RowData(0), n, n + 1, row,
                                         diag + jitter_);
  if (!(d > 0.0) || !std::isfinite(d)) {
    return Status::FailedPrecondition(
        "appended row makes the matrix indefinite (completion " +
        std::to_string(d) + ")");
  }
  row[n] = std::sqrt(d);
  l_ = std::move(grown);
  return Status::OK();
}

void ForwardSubstituteInPlace(const Matrix& l, double* y) {
  // y[i] is read before it is overwritten and entries j < i are already
  // solved, so the solve runs in place.
  for (size_t i = 0; i < l.rows(); ++i) {
    const double s = y[i] - kern::Dot(l.RowData(i), y, i);
    y[i] = s / l(i, i);
  }
}

void BackSubstituteInPlace(const Matrix& l, double* x) {
  // L^T x' = x from the last row up; entries j > i are already solved.
  const size_t n = l.rows();
  for (size_t i = n; i-- > 0;) {
    double s = x[i];
    for (size_t j = i + 1; j < n; ++j) s -= l(j, i) * x[j];
    x[i] = s / l(i, i);
  }
}

double FactorLogDeterminant(const Matrix& l) {
  double s = 0.0;
  for (size_t i = 0; i < l.rows(); ++i) s += std::log(l(i, i));
  return 2.0 * s;
}

}  // namespace locat::math
