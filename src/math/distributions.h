#ifndef LOCAT_MATH_DISTRIBUTIONS_H_
#define LOCAT_MATH_DISTRIBUTIONS_H_

namespace locat::math {

/// Standard normal probability density function.
double NormalPdf(double x);

/// Standard normal cumulative distribution function (via erfc; accurate to
/// double precision over the whole real line).
double NormalCdf(double x);

/// Expected Improvement for a *minimization* problem:
///   EI(mu, sigma, best) = E[max(best - Y, 0)],  Y ~ N(mu, sigma^2).
/// Returns max(best - mu, 0) when sigma ~ 0.
double ExpectedImprovement(double mean, double stddev, double best);

/// Probability of Improvement for a minimization problem:
///   PI = P(Y < best),  Y ~ N(mu, sigma^2). Degenerates to {0, 1} when
/// sigma ~ 0 (Section 2.2 lists PI among the popular acquisitions).
double ProbabilityOfImprovement(double mean, double stddev, double best);

}  // namespace locat::math

#endif  // LOCAT_MATH_DISTRIBUTIONS_H_
