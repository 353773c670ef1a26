#ifndef LOCAT_ML_EI_MCMC_H_
#define LOCAT_ML_EI_MCMC_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/gp.h"
#include "ml/slice_sampler.h"

namespace locat::ml {

/// Acquisition rules supported by the marginalized surrogate. LOCAT uses
/// EI (with MCMC marginalization); PI is provided for the Section 2.2
/// comparison (bench/ablation_acquisition).
enum class AcquisitionKind { kExpectedImprovement, kProbabilityOfImprovement };

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
/// The sampler's chain persists across fits, as in Snoek et al., and so
/// does the ensemble: it is the chain's last `num_hyper_samples` states.
/// A refit continues from the previous fit's last state without re-burn,
/// draws half an ensemble of new samples, and refits the newer half of
/// the previous states on the current rows, so every refit replaces the
/// older half of the ensemble instead of all of it.
class EiMcmc {
 public:
  struct Options {
    /// Number of posterior hyperparameter samples (fitted GPs).
    int num_hyper_samples = 8;
    /// Slice-sampler burn-in sweeps before the first sample of a cold
    /// chain; a continued chain runs none (see Fit).
    int burn_in = 16;
    /// Sweeps between retained samples.
    int thin = 2;
    /// Which acquisition rule AcquisitionValueBatch averages.
    AcquisitionKind acquisition = AcquisitionKind::kExpectedImprovement;

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
    /// Slice-sampler sweeps run: burn-in (cold fits only) plus retained.
    int sweeps = 0;
    SliceSampler::Stats sampler;
  };

  explicit EiMcmc(Options options = Options()) : options_(options) {}

  /// Fits the hyperparameter-marginalized model to (x, y). `y` holds
  /// n >= 2 runs and `x` (G x d) the distinct inputs they ran at: run i
  /// at row `row_of[i]`, one row per run when `row_of` is empty. Repeated
  /// runs of one input share a GP row (GpRowTargets), so every density
  /// evaluation factors G x G. Every entry of `x` and `y` must be finite
  /// and `row_of` valid (ValidRowMap; InvalidArgument otherwise, the
  /// model left as it was). Deterministic given `rng`'s state and the
  /// chain.
  ///
  /// Cold start (no chain yet, the input dimension changed, or the chain's
  /// last state has no finite density on the new data): the chain starts
  /// at GpHyperparams::Default, runs `burn_in` sweeps and then draws K =
  /// `num_hyper_samples` samples `thin` sweeps apart. Otherwise the chain
  /// continues from its last state with no re-burn and draws ceil(K / 2)
  /// samples `thin` sweeps apart. The chain keeps its last K states, and
  /// they are the ensemble, oldest first: fresh samples adopt the
  /// sampler's memoized factorization, carried states are refactored
  /// once on the current rows, and a state that fails to factor is left
  /// out of the ensemble. Half the ensemble is a fixed rule, not an
  /// option: drawing 2 samples per refit found measurably worse
  /// configurations (DESIGN.md, "Persistent EI-MCMC chains").
  Status Fit(const math::Matrix& x, const math::Vector& y, Rng* rng,
             std::span<const size_t> row_of = {});

  /// Extends a fitted model by one finite run at a new input, as a new
  /// row (InvalidArgument otherwise), in O(G^2) per ensemble
  /// member (rank-1 bordered Cholesky append; hyperparameters stay frozen
  /// at the last Fit's posterior samples, no RNG consumed). Members whose
  /// factor cannot be extended even through the jitter fallback are
  /// dropped in order — deterministic for any thread count. When every
  /// member fails, the pre-append model is kept intact and an error is
  /// returned so the caller can fall back to a full refit.
  Status AppendObservation(const math::Vector& x, double y);

  /// Acquisition values (by default Expected Improvement for
  /// minimization) for all rows of `xs`, each averaged over the posterior
  /// GP ensemble. Each ensemble member runs one batched prediction
  /// (concurrently on the shared thread pool); the per-candidate average
  /// then accumulates members in fixed index order, so the result is
  /// bit-identical for any thread count.
  math::Vector AcquisitionValueBatch(const math::Matrix& xs) const;

  /// Ensemble-averaged predictive mean and (law-of-total-variance)
  /// variance for all rows of `xs`; same determinism contract as
  /// AcquisitionValueBatch.
  GaussianProcess::BatchPrediction PredictAveragedBatch(
      const math::Matrix& xs) const;

  /// Rows of a pool that PickCandidate scores with the full ensemble once
  /// it screens: one PredictBatch block.
  static constexpr size_t kScreenKeep = 64;
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  /// The row PickCandidate chose and the ensemble's view of it.
  struct Pick {
    size_t row = kNoRow;    // kNoRow when no scored row has a number
    double value = 0.0;     // its full-ensemble acquisition value
    double mean = 0.0;      // ensemble predictive mean there
    double variance = 0.0;  // law-of-total-variance across members
  };

  /// The acquisition maximizer over the rows of `xs`, in two stages when
  /// the pool has more than kScreenKeep rows and the ensemble more than
  /// one member:
  ///   1. screen: rank every row by the acquisition value of the newest
  ///      member alone (the chain's current state), NaN below every
  ///      number and ties by row index, and keep the best kScreenKeep;
  ///   2. score the kept rows with the full ensemble, accumulated in
  ///      member order, reusing the newest member's stage-1 predictions
  ///      (PredictBatch does not depend on the chunking).
  /// Otherwise every row is scored with the full ensemble. Either way the
  /// pick is the first maximum in row order among the scored rows, and
  /// its value has the bits of AcquisitionValueBatch(xs)[row]. Thread-
  /// count invariant like AcquisitionValueBatch.
  Pick PickCandidate(const math::Matrix& xs) const;

  /// PickCandidate's ranking, for both stages: the rows of `scores`
  /// ordered best first by a strict total order (higher first, NaN below
  /// every number, ties to the lower row), cut to the best `keep` and
  /// returned in row order.
  static std::vector<size_t> TopRows(std::span<const double> scores,
                                     size_t keep);

  /// Lowest observed target so far — the incumbent EI is computed against.
  double best_observed() const { return best_observed_; }

  bool fitted() const { return !ensemble_.empty(); }

  /// Frees the ensemble and keeps the chain: the model reads unfitted, and
  /// the next Fit continues the chain (best_observed() and
  /// last_fit_stats() keep their values until then).
  void DropEnsemble() { ensemble_.clear(); }
  const std::vector<GaussianProcess>& ensemble() const { return ensemble_; }

  /// Stats of the most recent Fit() (zeroed before any fit).
  const FitStats& last_fit_stats() const { return last_fit_stats_; }

 private:
  /// One `PredictBatch` of `xs` for each of the first `members` ensemble
  /// members, in member order.
  std::vector<GaussianProcess::BatchPrediction> MemberPredictions(
      const math::Matrix& xs, size_t members) const;

  /// One member's acquisition value at a predictive mean and variance.
  double MemberValue(double mean, double variance) const;

  Options options_;
  /// The chain's last `num_hyper_samples` retained states (flattened
  /// hyperparameters), oldest first; back() is the state the next fit
  /// continues from. Empty before the first fit.
  std::vector<math::Vector> chain_;
  std::vector<GaussianProcess> ensemble_;
  double best_observed_ = 0.0;
  FitStats last_fit_stats_;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_EI_MCMC_H_
