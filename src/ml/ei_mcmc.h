#ifndef LOCAT_ML_EI_MCMC_H_
#define LOCAT_ML_EI_MCMC_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/gp.h"
#include "ml/slice_sampler.h"

namespace locat::ml {

/// Acquisition rules supported by the marginalized surrogate. LOCAT uses
/// EI (with MCMC marginalization); PI and GP-UCB are provided for the
/// Section 2.2 comparison (bench/ablation_acquisition).
enum class AcquisitionKind { kExpectedImprovement, kProbabilityOfImprovement, kUcb };

/// Expected Improvement with MCMC hyperparameter marginalization
/// (Snoek et al. 2012), the acquisition function LOCAT uses (Section 3.4).
///
/// Instead of point-optimizing the GP hyperparameters, `Fit` slice-samples
/// them from their posterior (log marginal likelihood + weak log-normal
/// priors) and keeps one fitted GP per sample. The acquisition value of a
/// candidate is the EI for minimization averaged over those GPs, which
/// integrates out hyperparameter uncertainty and removes the need for any
/// external hyperparameter tuning.
///
/// The sampler's chain persists across fits, as in Snoek et al.: a refit
/// on a grown history continues from the previous fit's last state with
/// one re-burn sweep per added row instead of re-burning from the prior.
class EiMcmc {
 public:
  struct Options {
    /// Number of posterior hyperparameter samples (fitted GPs).
    int num_hyper_samples = 8;
    /// Slice-sampler burn-in sweeps before the first sample of a cold
    /// chain; a continued chain re-burns at most this many (see Fit).
    int burn_in = 16;
    /// Sweeps between retained samples.
    int thin = 2;
    /// Prior means for log lengthscale / log signal var / log noise var.
    double lengthscale_log_mean = -1.2;  // ~0.30 for [0,1]-normalized inputs
    double signal_log_mean = 0.0;
    double noise_log_mean = -4.6;  // ~0.01
    /// Shared prior standard deviation in log space.
    double prior_log_std = 1.0;
    /// Which acquisition AcquisitionValue computes.
    AcquisitionKind acquisition = AcquisitionKind::kExpectedImprovement;
    /// Exploration weight for the UCB rule.
    double ucb_beta = 2.0;

    Options() {}
  };

  /// Telemetry of the most recent Fit(): how much MCMC work the refit
  /// cost and how the slice sampler behaved. Collected unconditionally
  /// (a handful of integer increments and two clock reads against seconds
  /// of linear algebra) so observability wiring cannot perturb the fit.
  struct FitStats {
    int ensemble_size = 0;
    /// Host wall-clock seconds the whole Fit() call took.
    double wall_seconds = 0.0;
    /// True when every posterior sample failed to produce a usable GP and
    /// the default-hyperparameter fallback was used.
    bool used_fallback = false;
    /// True when the fit continued the previous fit's chain; false for a
    /// cold start from GpHyperparams::Default.
    bool continued = false;
    /// Slice-sampler sweeps run: burn-in (or re-burn) plus retained.
    int sweeps = 0;
    SliceSampler::Stats sampler;
  };

  explicit EiMcmc(Options options = Options()) : options_(options) {}

  /// Fits the hyperparameter-marginalized model to (x, y). `x` is n x d
  /// with n >= 2. Deterministic given `rng`'s state and the chain.
  ///
  /// Cold start (no chain yet, the input dimension changed, or the stored
  /// state has no finite density on the new data): the chain starts at
  /// GpHyperparams::Default and runs `burn_in` sweeps. Otherwise the chain
  /// continues from the previous fit's last state with
  /// clamp(n - previous n, 1, burn_in) re-burn sweeps. Either way
  /// `num_hyper_samples` x `thin` retained sweeps follow.
  Status Fit(const math::Matrix& x, const math::Vector& y, Rng* rng);

  /// Extends a fitted model by one observation in O(n^2) per ensemble
  /// member (rank-1 bordered Cholesky append; hyperparameters stay frozen
  /// at the last Fit's posterior samples, no RNG consumed). Members whose
  /// factor cannot be extended even through the jitter fallback are
  /// dropped in order — deterministic for any thread count. When every
  /// member fails, the pre-append model is kept intact and an error is
  /// returned so the caller can fall back to a full refit.
  Status AppendObservation(const math::Vector& x, double y);

  /// Average Expected Improvement (for minimization) of a candidate over
  /// the posterior GP ensemble.
  double AcquisitionValue(const math::Vector& x) const;

  /// Acquisition values for all rows of `xs` at once. Each ensemble
  /// member runs one batched prediction (concurrently on the shared
  /// thread pool); the per-candidate average then accumulates members in
  /// fixed index order, so the result is bit-identical for any thread
  /// count.
  math::Vector AcquisitionValueBatch(const math::Matrix& xs) const;

  /// Ensemble-averaged predictive mean and (law-of-total-variance)
  /// variance for all rows of `xs`; same determinism contract as
  /// AcquisitionValueBatch.
  GaussianProcess::BatchPrediction PredictAveragedBatch(
      const math::Matrix& xs) const;

  /// Lowest observed target so far — the incumbent EI is computed against.
  double best_observed() const { return best_observed_; }

  bool fitted() const { return !ensemble_.empty(); }
  const std::vector<GaussianProcess>& ensemble() const { return ensemble_; }

  /// Stats of the most recent Fit() (zeroed before any fit).
  const FitStats& last_fit_stats() const { return last_fit_stats_; }

 private:
  double LogPrior(const GpHyperparams& hp) const;

  Options options_;
  /// The chain: the sampler's last state (flattened hyperparameters,
  /// empty before the first fit) and the row count that fit used.
  math::Vector chain_state_;
  size_t chain_rows_ = 0;
  std::vector<GaussianProcess> ensemble_;
  double best_observed_ = 0.0;
  FitStats last_fit_stats_;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_EI_MCMC_H_
