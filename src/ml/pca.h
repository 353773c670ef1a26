#ifndef LOCAT_ML_PCA_H_
#define LOCAT_ML_PCA_H_

#include "common/status.h"
#include "math/matrix.h"

namespace locat::ml {

/// Plain linear Principal Component Analysis.
///
/// The paper's CPE step deliberately uses *kernel* PCA because "PCA can
/// not extract the non-linear information from the original configuration
/// space" (Section 3.3.2). This linear implementation exists for the
/// ablation that backs that claim (bench/ablation_cpe_pca_vs_kpca) and as
/// a general utility.
class Pca {
 public:
  struct Options {
    /// Keep the smallest number of components covering this fraction of
    /// the total variance.
    double variance_to_retain = 0.85;
    /// Hard cap on components (0 = none).
    int max_components = 0;

    Options() {}
  };

  Pca() = default;

  /// Fits on the n x d sample matrix (n >= 2): centers the data,
  /// eigendecomposes the covariance, keeps the leading components.
  Status Fit(const math::Matrix& x, const Options& options = Options());

  int num_components() const { return num_components_; }
  double explained_variance_ratio() const { return explained_variance_; }

  /// Projects a d-dimensional point onto the retained components.
  math::Vector Project(const math::Vector& x) const;

  bool fitted() const { return fitted_; }

 private:
  bool fitted_ = false;
  math::Vector mean_;
  math::Matrix components_;  // d x m, column per component
  double explained_variance_ = 0.0;
  int num_components_ = 0;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_PCA_H_
