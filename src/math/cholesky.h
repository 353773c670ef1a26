#ifndef LOCAT_MATH_CHOLESKY_H_
#define LOCAT_MATH_CHOLESKY_H_

#include <utility>

#include "common/status.h"
#include "math/matrix.h"

namespace locat::math {

/// Cholesky factorization `A = L L^T` of a symmetric positive-definite
/// matrix, plus the vector solve needed by Gaussian-process regression.
///
/// A GP fit factors its kernel matrix once and calls `Solve` once for the
/// weights alpha; `AppendRow` grows the factor when one observation is
/// added. Batch prediction does not solve per candidate: it reads `L()`
/// and runs one `kern::SolveLowerMatrixInPlace` per block of candidates.
/// The free functions below the class run a single forward or backward
/// substitution or the log-determinant on any factor.
class Cholesky {
 public:
  /// Factors `a` (must be square, symmetric, positive definite). Returns
  /// FailedPrecondition when a non-positive pivot is encountered; callers
  /// typically retry after adding diagonal jitter.
  static StatusOr<Cholesky> Factor(const Matrix& a);

  /// Wraps a lower factor computed elsewhere: `l` holds L in its lower
  /// triangle and zeros above, as `kern::CholeskyFactorInPlace` leaves a
  /// zeroed-upper buffer, and `jitter` the diagonal jitter it was
  /// factored with.
  static Cholesky FromFactor(Matrix l, double jitter) {
    return Cholesky(std::move(l), jitter);
  }

  /// Like `Factor` but retries with growing diagonal jitter
  /// (`initial_jitter * 10^k`, k = 0..max_attempts-1). Returns the factor of
  /// `a + jitter*I` for the first jitter that succeeds.
  static StatusOr<Cholesky> FactorWithJitter(const Matrix& a,
                                             double initial_jitter = 1e-10,
                                             int max_attempts = 10);

  /// Solves `A x = b` via forward+backward substitution.
  Vector Solve(const Vector& b) const;

  /// Grows the factor by one row/column in O(n^2): after the call this is
  /// the factor of [[A + jI, cross], [cross^T, diag + j]] where A + jI is
  /// the matrix currently factored and j is `jitter()`. The stored jitter
  /// is applied to the new diagonal entry internally — that is the jitter
  /// contract: appended rows always see the same regularization the
  /// original factorization actually used, so callers never re-derive it.
  /// Returns FailedPrecondition (factor unchanged) when the Schur
  /// completion is not a positive finite pivot; callers then fall back to
  /// a full refactorization.
  Status AppendRow(const Vector& cross, double diag);

  /// The lower-triangular factor.
  const Matrix& L() const { return l_; }

  /// The jitter that was added to the diagonal (0 unless
  /// `FactorWithJitter` had to regularize).
  double jitter() const { return jitter_; }

 private:
  explicit Cholesky(Matrix l, double jitter) : l_(std::move(l)), jitter_(jitter) {}

  Matrix l_;
  double jitter_ = 0.0;
};

/// The substitution loops `Cholesky::Solve` runs and the log-determinant,
/// on a factor held in any n x n matrix `l` (only its lower triangle is
/// read), so a caller that factors into a buffer of its own runs the same
/// floating-point sequence without a `Cholesky` object.
/// Forward substitution: overwrites y (n entries) with L^-1 y.
void ForwardSubstituteInPlace(const Matrix& l, double* y);
/// Backward substitution: overwrites x (n entries) with L^-T x.
void BackSubstituteInPlace(const Matrix& l, double* x);
/// log(det(L L^T)) = 2 * sum(log(L_ii)), the GP log marginal
/// likelihood's determinant term.
double FactorLogDeterminant(const Matrix& l);

}  // namespace locat::math

#endif  // LOCAT_MATH_CHOLESKY_H_
