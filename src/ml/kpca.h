#ifndef LOCAT_ML_KPCA_H_
#define LOCAT_ML_KPCA_H_

#include <memory>

#include "common/status.h"
#include "math/matrix.h"
#include "ml/kernels.h"

namespace locat::ml {

/// Kernel Principal Component Analysis — the Configuration Parameter
/// Extraction (CPE) step of IICP (Section 3.3.2).
///
/// Fit() centers the kernel (Gram) matrix in feature space, eigendecomposes
/// it, and keeps the leading components. Project() maps a configuration
/// vector onto those components; the projected coordinates are the "new
/// parameters which are functions of the original ones" that feed the DAGP.
class Kpca {
 public:
  struct Options {
    /// Keep the smallest number of components whose eigenvalues cover this
    /// fraction of the total spectrum mass.
    double variance_to_retain = 0.85;
    /// Hard cap on retained components (0 = no cap).
    int max_components = 0;
    /// Eigenvalues below this (relative to the largest) are treated as 0.
    double eigenvalue_floor = 1e-8;

    Options() {}
  };

  Kpca() = default;

  /// Fits on the n x d sample matrix `x` using `kernel` (not owned; must
  /// outlive the Kpca). Requires n >= 2.
  Status Fit(const math::Matrix& x, const Kernel* kernel,
             const Options& options = Options());

  /// Number of retained components (latent dimension).
  int num_components() const { return num_components_; }

  /// Projects a d-dimensional point to the latent space: the one-row case
  /// of ProjectRows.
  math::Vector Project(const math::Vector& x) const;

  /// Projects every row of `x` (rows x d) to the latent space; row r of
  /// the result (rows x num_components()) depends only on row r of `x`,
  /// so any batching gives the same bits. Works on blocks of 64 rows with
  /// scratch reused across blocks.
  math::Matrix ProjectRows(const math::Matrix& x) const;

  /// Fraction of spectrum mass captured by the retained components.
  double explained_variance_ratio() const { return explained_variance_; }

  /// Eigenvalues of the centered Gram matrix (descending, all of them).
  const math::Vector& eigenvalues() const { return eigenvalues_; }

  bool fitted() const { return fitted_; }

 private:
  bool fitted_ = false;
  const Kernel* kernel_ = nullptr;
  math::Matrix x_;           // training samples
  math::Matrix alphas_;      // n x m, column m = normalized eigenvector m
  math::Vector eigenvalues_; // all eigenvalues, descending
  math::Vector row_means_;   // (1/n) sum_j K(i, j)
  double grand_mean_ = 0.0;  // (1/n^2) sum_ij K(i, j)
  int num_components_ = 0;
  double explained_variance_ = 0.0;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_KPCA_H_
