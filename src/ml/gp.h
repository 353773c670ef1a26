#ifndef LOCAT_ML_GP_H_
#define LOCAT_ML_GP_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "math/cholesky.h"
#include "math/matrix.h"

namespace locat::ml {

/// Log-parameterized hyperparameters of an ARD squared-exponential GP:
/// per-dimension lengthscales, signal variance, and observation-noise
/// variance. Log parameterization keeps all values positive and makes
/// slice sampling unconstrained.
struct GpHyperparams {
  math::Vector log_lengthscales;
  double log_signal_variance = 0.0;
  double log_noise_variance = -4.0;

  /// Sensible defaults for inputs normalized to [0,1]: lengthscale 0.3,
  /// signal variance 1, noise variance exp(-4) ~ 0.018.
  static GpHyperparams Default(size_t input_dim);

  /// Flattens to a vector (lengthscales..., signal, noise) for samplers.
  math::Vector Flatten() const;
  /// Inverse of Flatten(); `flat.size()` must be `input_dim + 2`.
  static GpHyperparams Unflatten(std::span<const double> flat);
};

/// The training targets of a GP folded onto its rows. Runs whose inputs
/// are bitwise equal share one row: the row's target is the mean of its
/// m standardized runs and its noise term is noise / m, and the log
/// marginal likelihood adds the exact within-row correction
///   -1/2 (SS / s^2 + sum_g log m_g + (n - G) log s^2) - (n - G) log(2 pi) / 2
/// with s^2 = noise + 1e-10, SS the within-row sum of squares, n runs and
/// G rows (the replicate identity of Binois, Gramacy & Ludkovski 2018).
/// The posterior equals the one of the fit with one row per run. With
/// every m = 1 the targets are the standardized runs themselves and the
/// correction is not added, so the likelihood keeps its bits.
struct GpRowTargets {
  math::Vector mean;           // per row: mean of its standardized runs
  std::vector<double> count;   // per row: its number of runs m_g
  double within_ss = 0.0;      // SS: sum over runs of (ys_i - mean_row)^2
  double sum_log_count = 0.0;  // sum over rows of log m_g
  size_t runs = 0;             // n
};

/// True when `row_of` maps `runs` runs onto `rows` rows with every row
/// holding at least one run; an empty `row_of` is one row per run and
/// needs runs == rows.
bool ValidRowMap(std::span<const size_t> row_of, size_t runs, size_t rows);

/// Precomputed kernel structure for repeated hyperparameter evaluations on
/// one fixed (x, y) dataset — the MCMC hot path.
///
/// The slice sampler evaluates the log marginal likelihood at hundreds of
/// hyperparameter proposals per Fit, and every evaluation needs the full
/// n x n kernel matrix. The entries only depend on the hyperparameters
/// through `sum_d w_d * (x_i[d] - x_j[d])^2` with `w_d = exp(-2 log_l_d)`,
/// so this cache stores the per-pair per-dimension squared differences
/// once; each proposal then costs one exp per pair instead of d exps, d
/// divisions, and two Vector copies per pair.
///
/// The exponent of pair p is summed in four lanes: lane t folds the
/// coordinates k == t (mod 4) in ascending k as fma(w_k, D_kp, acc) from
/// +0, and the lanes combine as (S_0 + S_2) + (S_1 + S_3) — the order a
/// row-major `kern` mat-vec of the pair rows against w uses, so the
/// exponents are the ones a plain mat-vec gives. `LogMarginalLikelihood`
/// keeps the weights, the log lengthscales they came from, the lanes and
/// the unscaled exp(-exponent / 2) across calls. The sampler moves one
/// coordinate at a time, so a lengthscale proposal takes one exp for its
/// weight and recomputes one lane (about d/4 coordinates), and a signal or
/// noise proposal takes none of either.
///
/// A warm evaluation allocates nothing. The cache owns one n x n factor
/// buffer whose upper triangle stays zero: the kernel is written as
/// signal * exp into its lower triangle (`ExpScaled(-1/2, signal)`'s
/// separate multiply) and factored there by `kern::CholeskyFactorInPlace`,
/// and alpha is solved into a vector the cache owns by the substitution
/// loops `math::Cholesky::Solve` runs, so every entry, the factor and the
/// likelihood keep the bits of a fresh `Cholesky::Factor`. A kernel that
/// is not positive definite falls back to `BuildKernel` and
/// `Cholesky::FactorWithJitter`.
///
/// The rows of `x` are distinct GP inputs and `y` holds runs: `row_of`
/// names each run's row (GpRowTargets), one row per run when it is
/// empty. The cache standardizes the runs and folds them onto the rows
/// once. The memo is the last call's factorization (a failed call clears
/// it). The slice sampler's final density evaluation of each sweep lands
/// exactly on the retained sample, so `TakeMemoized` copies that sample's
/// factor and alpha out for its GP ensemble member instead of refactoring
/// (O(n^3) saved per retained sample).
class GpKernelCache {
 public:
  /// Precomputes pair structure for the rows of `x` (G x d), standardizes
  /// the runs `y` and folds them onto the rows through `row_of`, which
  /// must satisfy ValidRowMap(row_of, y.size(), G).
  GpKernelCache(const math::Matrix& x, const math::Vector& y,
                std::span<const size_t> row_of = {});

  /// Rows G.
  size_t num_points() const { return x_.rows(); }
  size_t input_dim() const { return x_.cols(); }
  const math::Matrix& x() const { return x_; }
  /// The standardized runs folded onto the rows (with one run per row,
  /// `targets().mean` is the standardized runs themselves).
  const GpRowTargets& targets() const { return targets_; }
  /// Runs in their original units (what the constructor received).
  const math::Vector& raw_y() const { return y_raw_; }
  /// The row of each run.
  const std::vector<size_t>& row_of() const { return row_of_; }
  double y_mean() const { return y_mean_; }
  double y_std() const { return y_std_; }

  /// Kernel matrix K(hp) with each row's (signal + noise / m) +
  /// 1e-10 / m diagonal already added, with the bits
  /// `LogMarginalLikelihood` factors. Const and thread-safe: it computes
  /// every lane on local buffers.
  math::Matrix BuildKernel(const GpHyperparams& hp) const;

  /// The reusable result of one likelihood evaluation.
  struct Factorization {
    math::Cholesky chol;
    math::Vector alpha;  // (K + noise M^-1)^-1 targets().mean
    double log_marginal_likelihood = 0.0;
  };

  /// Log marginal likelihood of the cached data under the flattened
  /// hyperparameters `flat` (GpHyperparams::Flatten's layout: d log
  /// lengthscales, log signal, log noise), through the jittered
  /// factorization `GaussianProcess::Fit` uses. Returns -inf when `flat`
  /// has another size or the kernel cannot be factored even with jitter.
  /// Updates the weights, lanes and factor buffer and memoizes the
  /// result; NOT thread-safe because of those writes.
  double LogMarginalLikelihood(std::span<const double> flat);

  /// A copy of the memoized factorization iff the last call succeeded at
  /// exactly `flat` (element-wise equality). Returns nullopt on a miss
  /// and leaves the memo in place; a hit consumes it, so a second take of
  /// the same key misses.
  std::optional<Factorization> TakeMemoized(std::span<const double> flat);

 private:
  /// Brings `weights_` up to `log_lengthscales`, one exp per coordinate
  /// whose bits changed, and `lanes_` up to the weights, recomputing only
  /// the lanes holding a coordinate whose weight bits changed. Returns
  /// true when some lane was recomputed.
  bool RefreshLanes(std::span<const double> log_lengthscales);

  math::Matrix x_;
  math::Vector y_raw_;
  std::vector<size_t> row_of_;
  GpRowTargets targets_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  // Coordinate-major squared differences: pair_sqdiff_[k * npairs + p] is
  // (x_i[k] - x_j[k])^2 for pair p = i*(i-1)/2 + j, j < i. One coordinate
  // of every pair is contiguous, so it folds into its lane in one Axpy,
  // and row i's pairs are contiguous in p.
  std::vector<double> pair_sqdiff_;

  // State of LogMarginalLikelihood, kept across calls (empty until the
  // first call): log_l_[k] and weights_[k] = exp(-2 * log_l_[k]) the
  // lengthscale coordinates the lanes were built from,
  // lanes_[t * npairs + p] = S_t[p], and unit_kernel_[p] the unscaled
  // exp(-((S_0 + S_2) + (S_1 + S_3)) / 2).
  std::vector<double> log_l_;
  std::vector<double> weights_;
  std::vector<double> lanes_;
  std::vector<double> unit_kernel_;
  std::vector<double> diag_;  // scratch: the kernel diagonal per row
  // The last call's factor (upper triangle zero), its jitter and alpha;
  // the memo when memo_valid_, under the key memo_key_.
  math::Matrix factor_;
  double jitter_ = 0.0;
  std::vector<double> alpha_;
  double lml_ = 0.0;
  std::vector<double> memo_key_;
  bool memo_valid_ = false;
};

/// Gaussian-process regression with an ARD squared-exponential kernel.
///
/// This is the surrogate model underlying DAGP (the datasize-aware GP): the
/// input vector is the normalized configuration concatenated with the
/// normalized input data size, so the GP models t = f(conf, ds) exactly as
/// in equation (7) of the paper.
///
/// Targets are standardized internally (zero mean, unit variance); all
/// public predictions are in the original units. Repeated runs of one
/// input share a row (GpRowTargets): the fit factors G x G, not n x n.
class GaussianProcess {
 public:
  GaussianProcess() = default;

  /// Fits the GP to (x, y) with fixed hyperparameters. `x` holds the G >= 1
  /// distinct inputs (G x d) and `y` the runs, run i at row `row_of[i]`
  /// (one row per run when `row_of` is empty; InvalidArgument unless
  /// ValidRowMap holds). Factors the G x G kernel matrix once (O(G^3)).
  Status Fit(const math::Matrix& x, const math::Vector& y,
             const GpHyperparams& hp, std::span<const size_t> row_of = {});

  /// Fits against a prebuilt kernel cache (same result as the (x, y)
  /// overload on the cache's data, but reuses the cached pair structure
  /// and standardization). The cache is only read, so concurrent Fit
  /// calls against one cache are safe.
  Status Fit(const GpKernelCache& cache, const GpHyperparams& hp);

  /// Adopts an already-computed factorization (from
  /// `GpKernelCache::TakeMemoized`) instead of refactoring — O(n^2) copy
  /// instead of O(n^2 d) kernel build + O(n^3) factorization.
  Status AdoptFit(const GpKernelCache& cache, const GpHyperparams& hp,
                  GpKernelCache::Factorization factorization);

  /// Adds one run at a new input, as a new row, to an already-fitted GP
  /// in O(G^2) via a rank-1
  /// bordered Cholesky append (hyperparameters stay fixed): one cross
  /// kernel row, one triangular solve, a scalar Schur completion, then a
  /// restandardization of the full target history and one O(n^2) re-solve
  /// for the weights. The cross row is built with the batched weighted
  /// distances the (x, y) `Fit` uses, which fold fma(w*d, d, acc), so its
  /// entries are bit-identical to that Fit's kernel on the extended
  /// inputs. They are not bit-identical to the EI-MCMC refit's kernel
  /// (`GpKernelCache`, which folds fma(w, d^2, acc)). When the completion
  /// rejects the append (near-singular extension) the implementation
  /// falls back to a full jittered refactorization of the extended
  /// kernel. On any error the GP is left unchanged.
  Status AppendFit(const math::Vector& x_new, double y_new);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
  };

  /// Straightforward per-point posterior mean/variance (equation (10))
  /// that rebuilds everything from the raw hyperparameters (per-dimension
  /// exp + divide, Vector row copies). Kept as the ground-truth
  /// implementation for equivalence tests; produces the same posterior as
  /// `PredictBatch` up to floating-point reassociation. Must be called
  /// after a successful Fit.
  Prediction PredictReference(const math::Vector& x) const;

  struct BatchPrediction {
    math::Vector mean;
    math::Vector variance;
  };

  /// Posterior predictive mean/variance (equation (10)) for all rows of
  /// `xs` (m x d) in one pass over blocks of 64 candidates: each block's
  /// n x 64 cross-kernel is built coordinate-major, folded into the mean
  /// and solved in place by one forward substitution, so no m x n matrix
  /// is ever formed. The mean has the bits of a per-candidate
  /// `kern::Dot(k*, alpha)` over the row-major k*; each row's result
  /// depends only on that row, so any chunking of `xs` yields
  /// bit-identical values. Must be called after a successful Fit.
  BatchPrediction PredictBatch(const math::Matrix& xs) const;

  /// Log marginal likelihood of the fitted data under the fitted
  /// hyperparameters (up to the usual constant).
  double LogMarginalLikelihood() const { return log_marginal_likelihood_; }

  bool fitted() const { return fitted_; }
  /// Rows G: the distinct inputs.
  size_t num_points() const { return x_.rows(); }
  /// Runs n: the targets folded onto the rows.
  size_t num_runs() const { return y_raw_.size(); }
  size_t input_dim() const { return x_.cols(); }
  const GpHyperparams& hyperparams() const { return hp_; }

  /// The diagonal jitter the fitted factorization actually applied (0
  /// unless the factorization had to regularize). `AppendFit` reuses
  /// exactly this value for appended diagonal entries — see the jitter
  /// contract on `math::Cholesky::AppendRow`.
  double applied_jitter() const { return chol_ ? chol_->jitter() : 0.0; }

  /// The lower-triangular factor of the fitted (jittered) kernel matrix.
  /// Exposed for the numerical-contract tests.
  const math::Matrix& factor() const { return chol_->L(); }

 private:
  /// Derives the cached kernel weights from hp_ and flips fitted_.
  void FinishFit();

  /// Restandardizes y_raw_, folds it onto the rows and solves for alpha_
  /// and the likelihood under the current factor.
  void SolveTargets();

  bool fitted_ = false;
  math::Matrix x_;
  math::Vector y_raw_;  // original-unit runs; AppendFit restandardizes
  std::vector<size_t> row_of_;  // the row of each run
  GpHyperparams hp_;
  // exp(-2 * log_lengthscale_d) per dimension and exp(log_signal_variance),
  // derived once at Fit so predictions never re-exponentiate.
  math::Vector inv_sq_lengthscales_;
  double signal_variance_ = 1.0;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  std::optional<math::Cholesky> chol_;
  math::Vector alpha_;  // (K + noise M^-1)^-1 row targets
  double log_marginal_likelihood_ = 0.0;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_GP_H_
