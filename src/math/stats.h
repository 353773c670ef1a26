#ifndef LOCAT_MATH_STATS_H_
#define LOCAT_MATH_STATS_H_

#include <cstddef>
#include <vector>

namespace locat::math {

/// Descriptive statistics used across QCSA (CV), IICP, and the evaluation
/// harness. All functions return 0.0 on empty input unless noted.

/// Arithmetic mean.
double Mean(const std::vector<double>& xs);

/// Population variance (divides by N, matching equation (3) of the paper).
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double StdDev(const std::vector<double>& xs);

/// Coefficient of variation: StdDev / Mean (equation (3)). Returns 0 when
/// the mean is 0.
double CoefficientOfVariation(const std::vector<double>& xs);

/// Minimum / maximum; require non-empty input (asserts).
double Min(const std::vector<double>& xs);
double Max(const std::vector<double>& xs);

/// Average ranks (1-based) with ties sharing the mean rank; the building
/// block of Spearman correlation.
std::vector<double> RankWithTies(const std::vector<double>& xs);

}  // namespace locat::math

#endif  // LOCAT_MATH_STATS_H_
