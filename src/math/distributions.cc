#include "math/distributions.h"

#include <cmath>

namespace locat::math {

double NormalPdf(double x) {
  static const double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double NormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double ProbabilityOfImprovement(double mean, double stddev, double best) {
  if (stddev <= 1e-12) return mean < best ? 1.0 : 0.0;
  return NormalCdf((best - mean) / stddev);
}

double ExpectedImprovement(double mean, double stddev, double best) {
  if (stddev <= 1e-12) {
    const double imp = best - mean;
    return imp > 0.0 ? imp : 0.0;
  }
  const double z = (best - mean) / stddev;
  return (best - mean) * NormalCdf(z) + stddev * NormalPdf(z);
}

}  // namespace locat::math
