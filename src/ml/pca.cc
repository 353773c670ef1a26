#include "ml/pca.h"

#include <algorithm>

#include "math/eigen.h"

namespace locat::ml {

Status Pca::Fit(const math::Matrix& x, const Options& options) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  if (n < 2) return Status::InvalidArgument("PCA requires >= 2 samples");

  mean_ = math::Vector(d);
  for (size_t j = 0; j < d; ++j) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += x(i, j);
    mean_[j] = s / static_cast<double>(n);
  }

  // Covariance matrix (biased; the scaling cancels in the ratios).
  math::Matrix cov(d, d);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a; b < d; ++b) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        s += (x(i, a) - mean_[a]) * (x(i, b) - mean_[b]);
      }
      cov(a, b) = s / static_cast<double>(n);
      cov(b, a) = cov(a, b);
    }
  }

  auto eig = math::JacobiEigenSymmetric(cov);
  if (!eig.ok()) return eig.status();

  double total = 0.0;
  for (size_t i = 0; i < d; ++i) total += std::max(0.0, eig->eigenvalues[i]);
  if (total <= 0.0) {
    return Status::FailedPrecondition("degenerate covariance (zero variance)");
  }

  int m = 0;
  double covered = 0.0;
  for (size_t i = 0; i < d; ++i) {
    if (eig->eigenvalues[i] <= 1e-12 * eig->eigenvalues[0]) break;
    covered += eig->eigenvalues[i];
    ++m;
    if (covered / total >= options.variance_to_retain) break;
    if (options.max_components > 0 && m >= options.max_components) break;
  }
  if (m == 0) m = 1;
  num_components_ = m;
  explained_variance_ = covered / total;

  components_ = math::Matrix(d, static_cast<size_t>(m));
  for (int c = 0; c < m; ++c) {
    for (size_t r = 0; r < d; ++r) {
      components_(r, static_cast<size_t>(c)) =
          eig->eigenvectors(r, static_cast<size_t>(c));
    }
  }
  fitted_ = true;
  return Status::OK();
}

math::Vector Pca::Project(const math::Vector& x) const {
  assert(fitted_);
  math::Vector centered = x;
  centered -= mean_;
  return components_.Transpose() * centered;
}

}  // namespace locat::ml
