#include "ml/kpca.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/eigen.h"
#include "math/kern/kern.h"

namespace locat::ml {

Status Kpca::Fit(const math::Matrix& x, const Kernel* kernel,
                 const Options& options) {
  if (kernel == nullptr) {
    return Status::InvalidArgument("KPCA requires a kernel");
  }
  if (x.rows() < 2) {
    return Status::InvalidArgument("KPCA requires at least 2 samples");
  }
  x_ = x;
  kernel_ = kernel;
  const size_t n = x.rows();

  math::Matrix k = kernel->GramMatrix(x);

  // Center in feature space: Kc = K - 1n K - K 1n + 1n K 1n.
  row_means_ = math::Vector(n);
  grand_mean_ = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double s = math::kern::Sum(k.RowData(i), n);
    row_means_[i] = s / static_cast<double>(n);
    grand_mean_ += s;
  }
  grand_mean_ /= static_cast<double>(n * n);

  // Row i of the centered matrix is (k_i - row_means) - (row_means_i - gm),
  // one fused subtract-shift pass per row.
  math::Matrix kc(n, n);
  const double* rm = row_means_.data().data();
  for (size_t i = 0; i < n; ++i) {
    math::kern::SubtractShift(k.RowData(i), rm, row_means_[i] - grand_mean_,
                              kc.RowData(i), n);
  }

  auto eig = math::JacobiEigenSymmetric(kc);
  if (!eig.ok()) return eig.status();
  eigenvalues_ = eig->eigenvalues;

  // Total positive spectrum mass.
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += std::max(0.0, eigenvalues_[i]);
  if (total <= 0.0) {
    return Status::FailedPrecondition("degenerate kernel matrix (zero spectrum)");
  }
  const double floor = options.eigenvalue_floor * std::max(eigenvalues_[0], 0.0);

  int m = 0;
  double covered = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (eigenvalues_[i] <= floor) break;
    covered += eigenvalues_[i];
    ++m;
    if (covered / total >= options.variance_to_retain) break;
    if (options.max_components > 0 && m >= options.max_components) break;
  }
  if (m == 0) m = 1;
  num_components_ = m;
  explained_variance_ = covered / total;

  // Normalize eigenvectors so projections are alpha^T k with
  // ||alpha_m||^2 = 1/lambda_m.
  alphas_ = math::Matrix(n, static_cast<size_t>(m));
  for (int c = 0; c < m; ++c) {
    const double lambda = eigenvalues_[static_cast<size_t>(c)];
    const double scale = 1.0 / std::sqrt(lambda);
    for (size_t r = 0; r < n; ++r) {
      alphas_(r, static_cast<size_t>(c)) =
          eig->eigenvectors(r, static_cast<size_t>(c)) * scale;
    }
  }
  fitted_ = true;
  return Status::OK();
}

math::Vector Kpca::CenteredKernelColumn(const math::Vector& x) const {
  const size_t n = x_.rows();
  assert(x.size() == x_.cols());
  math::Vector kx(n);
  double* kd = kx.data().data();
  kernel_->EvaluateAgainstRows(x.data().data(), x_.cols(), x_.RowData(0), n,
                               x_.cols(), kd);
  const double kx_mean = math::kern::Sum(kd, n) / static_cast<double>(n);
  // kx_i - kx_mean - row_means_i + gm, fused (in place: a == out is safe).
  math::kern::SubtractShift(kd, row_means_.data().data(),
                            kx_mean - grand_mean_, kd, n);
  return kx;
}

math::Vector Kpca::Project(const math::Vector& x) const {
  assert(fitted_);
  const math::Vector kx = CenteredKernelColumn(x);
  // z = alphas^T kx, accumulated row-wise so each pass is contiguous in
  // the row-major alphas (the strided column walk thrashed the cache).
  math::Vector z(static_cast<size_t>(num_components_));
  double* zd = z.data().data();
  const size_t m = static_cast<size_t>(num_components_);
  for (size_t i = 0; i < x_.rows(); ++i) {
    math::kern::Axpy(kx[i], alphas_.RowData(i), zd, m);
  }
  return z;
}

}  // namespace locat::ml
