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

math::Vector Kpca::Project(const math::Vector& x) const {
  math::Matrix row(1, x.size());
  row.SetRow(0, x);
  return ProjectRows(row).Row(0);
}

math::Matrix Kpca::ProjectRows(const math::Matrix& x) const {
  assert(fitted_);
  assert(x.cols() == x_.cols());
  constexpr size_t kBlock = 64;
  const size_t rows = x.rows();
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  const size_t m = static_cast<size_t>(num_components_);
  math::Matrix out(rows, m);
  // Per-block scratch: the block's points coordinate-major (d x b), its
  // kernel columns (n x b, centered in place), Sum's four lanes of each
  // column, each point's centering shift, and z^T (m x b).
  const size_t cap = std::min(kBlock, rows);
  std::vector<double> cols(d * cap);
  std::vector<double> k(n * cap);
  std::vector<double> lanes(4 * cap);
  std::vector<double> shift(cap);
  std::vector<double> zt(m * cap);
  const double* rm = row_means_.data().data();
  const double n_rows = static_cast<double>(n);
  for (size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const size_t b = std::min(kBlock, rows - r0);
    for (size_t c = 0; c < b; ++c) {
      const double* xc = x.RowData(r0 + c);
      for (size_t j = 0; j < d; ++j) cols[j * b + c] = xc[j];
    }
    // Row i of the block holds k(x_c, x_i) for the block's points.
    kernel_->EvaluateBlock(cols.data(), b, d, x_.RowData(0), n, d, k.data());
    // Each point's kernel mean is kern::Sum over its column: lane i % 4
    // takes row i in ascending i, the lanes combine as (l0 + l2) +
    // (l1 + l3). The centered entry is (k_i - row_mean_i) - shift with
    // shift = mean - grand_mean, SubtractShift's order.
    std::fill(lanes.begin(), lanes.begin() + 4 * b, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double* lane = lanes.data() + (i % 4) * b;
      const double* ki = k.data() + i * b;
      for (size_t c = 0; c < b; ++c) lane[c] = lane[c] + ki[c];
    }
    const double* l0 = lanes.data();
    const double* l1 = l0 + b;
    const double* l2 = l1 + b;
    const double* l3 = l2 + b;
    for (size_t c = 0; c < b; ++c) {
      const double mean = ((l0[c] + l2[c]) + (l1[c] + l3[c])) / n_rows;
      shift[c] = mean - grand_mean_;
    }
    for (size_t i = 0; i < n; ++i) {
      double* ki = k.data() + i * b;
      for (size_t c = 0; c < b; ++c) ki[c] = (ki[c] - rm[i]) - shift[c];
    }
    // z = alphas^T kc: component j folds fma(alpha_ij, kc_i, z_j) over
    // ascending i, the per-point Axpy order.
    std::fill(zt.begin(), zt.begin() + m * b, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* ai = alphas_.RowData(i);
      const double* ki = k.data() + i * b;
      for (size_t j = 0; j < m; ++j) {
        math::kern::Axpy(ai[j], ki, zt.data() + j * b, b);
      }
    }
    for (size_t c = 0; c < b; ++c) {
      double* zc = out.RowData(r0 + c);
      for (size_t j = 0; j < m; ++j) zc[j] = zt[j * b + c];
    }
  }
  return out;
}

}  // namespace locat::ml
