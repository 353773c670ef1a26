#ifndef LOCAT_ML_KERNELS_H_
#define LOCAT_ML_KERNELS_H_

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "math/matrix.h"

namespace locat::ml {

/// Abstract covariance/kernel function k(x, x') over real vectors.
/// Used both by the Gaussian process surrogate (DAGP) and by KPCA (CPE).
///
/// Implementations work on contiguous double spans (EvaluateData), not
/// math::Vector, so Gram construction streams Matrix::RowData views with
/// zero per-pair allocations. The batched EvaluateAgainstRows hook lets
/// distance-based kernels amortize over whole row blocks via the SIMD
/// kernels in math/kern.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Evaluates k(a, b) on contiguous spans of equal dimension `n`.
  virtual double EvaluateData(const double* a, const double* b,
                              size_t n) const = 0;

  /// Evaluates k(q, rows_r) for r = 0..nrows-1, where row r starts at
  /// `rows + r * stride` and has `dim` entries. Default: a loop over
  /// EvaluateData; distance-based kernels override with batched
  /// squared-distance + vectorized exp.
  virtual void EvaluateAgainstRows(const double* q, size_t dim,
                                   const double* rows, size_t nrows,
                                   size_t stride, double* out) const;

  /// Cross-kernel block: out[r * m + c] = k(point_c, rows_r) for the `m`
  /// points stored coordinate-major (coordinate k of point c at
  /// cols[k * m + c]) and the `nrows` rows at `rows + r * stride`, all of
  /// dimension `dim`. Each entry has the bits of EvaluateData(point_c,
  /// rows_r). Default: gathers each point and loops over EvaluateData;
  /// distance-based kernels override with column-batched distances.
  virtual void EvaluateBlock(const double* cols, size_t m, size_t dim,
                             const double* rows, size_t nrows, size_t stride,
                             double* out) const;

  /// Convenience wrapper; vectors must have equal dimension.
  double Evaluate(const math::Vector& a, const math::Vector& b) const {
    assert(a.size() == b.size());
    return EvaluateData(a.data().data(), b.data().data(), a.size());
  }

  /// Human-readable name ("gaussian", "polynomial", ...).
  virtual std::string name() const = 0;

  /// Builds the Gram matrix K with K(i,j) = k(X.Row(i), X.Row(j)).
  /// Computes the lower triangle row-batched and mirrors it.
  math::Matrix GramMatrix(const math::Matrix& x) const;
};

/// Gaussian (RBF) kernel: k(a,b) = exp(-||a-b||^2 / (2 gamma^2)).
/// The kernel the paper selects for KPCA (Figure 6).
class GaussianKernel : public Kernel {
 public:
  explicit GaussianKernel(double bandwidth)
      : bandwidth_(bandwidth), pre_(-1.0 / (2.0 * bandwidth * bandwidth)) {}
  double EvaluateData(const double* a, const double* b,
                      size_t n) const override;
  void EvaluateAgainstRows(const double* q, size_t dim, const double* rows,
                           size_t nrows, size_t stride,
                           double* out) const override;
  void EvaluateBlock(const double* cols, size_t m, size_t dim,
                     const double* rows, size_t nrows, size_t stride,
                     double* out) const override;
  std::string name() const override { return "gaussian"; }
  double bandwidth() const { return bandwidth_; }

 private:
  double bandwidth_;
  double pre_;  // exponent scale, precomputed once
};

/// Polynomial kernel: k(a,b) = (a.b + coef0)^degree.
class PolynomialKernel : public Kernel {
 public:
  PolynomialKernel(int degree, double coef0)
      : degree_(degree), coef0_(coef0) {}
  double EvaluateData(const double* a, const double* b,
                      size_t n) const override;
  std::string name() const override { return "polynomial"; }

 private:
  int degree_;
  double coef0_;
};

/// Perceptron (arc-cosine degree-0) kernel:
/// k(a,b) = 1 - theta/pi with theta the angle between a and b. The
/// "perceptron kernel" evaluated in the paper's Figure 6 kernel study.
class PerceptronKernel : public Kernel {
 public:
  double EvaluateData(const double* a, const double* b,
                      size_t n) const override;
  std::string name() const override { return "perceptron"; }
};

/// Squared-exponential kernel with Automatic Relevance Determination:
/// k(a,b) = s2 * exp(-0.5 * sum_d w_d (a_d-b_d)^2) with w_d = 1/l_d^2
/// precomputed once. The DAGP surrogate covariance; per-dimension
/// lengthscales let the GP learn that the data-size input matters
/// differently from each parameter.
class ArdSquaredExponentialKernel : public Kernel {
 public:
  ArdSquaredExponentialKernel(math::Vector lengthscales, double signal_variance);
  double EvaluateData(const double* a, const double* b,
                      size_t n) const override;
  void EvaluateAgainstRows(const double* q, size_t dim, const double* rows,
                           size_t nrows, size_t stride,
                           double* out) const override;
  std::string name() const override { return "ard_sqexp"; }

  const math::Vector& lengthscales() const { return lengthscales_; }
  double signal_variance() const { return signal_variance_; }

 private:
  math::Vector lengthscales_;
  std::vector<double> inv_sq_lengthscales_;
  double signal_variance_;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_KERNELS_H_
