#ifndef LOCAT_ML_REGRESSOR_H_
#define LOCAT_ML_REGRESSOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "math/matrix.h"

namespace locat::ml {

/// Common interface for the performance-model regressors compared in
/// Figure 16 (GBRT, SVR, LinearR, LR, KNNAR) and used internally by the
/// DAC baseline tuner.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fits the model on an n x d feature matrix and n targets.
  virtual Status Fit(const math::Matrix& x, const math::Vector& y) = 0;

  /// Predicts the target for one feature vector. Must be fitted first.
  virtual double Predict(const math::Vector& x) const = 0;

  /// Model name as it appears in the paper's figures.
  virtual std::string name() const = 0;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_REGRESSOR_H_
