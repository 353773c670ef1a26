#ifndef LOCAT_CORE_DAGP_H_
#define LOCAT_CORE_DAGP_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "math/matrix.h"
#include "ml/ei_mcmc.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace locat::core {

/// Datasize-Aware Gaussian Process (Section 3.4): the BO surrogate that
/// models execution time as a function of the (encoded) configuration AND
/// the input data size, t = f(conf, ds) (equation (7)).
///
/// Inputs: an encoded configuration vector (full unit cube before IICP,
/// KPCA latent space after) concatenated with ds / ds_scale. Targets are
/// modeled in log space — execution times span orders of magnitude once
/// OOM-retry configurations appear, and the log transform keeps the GP
/// well-conditioned.
///
/// Hyperparameters are marginalized with EI-MCMC, so the data-size
/// dimension gets its own learned lengthscale: observations at 100 GB
/// inform predictions at 300 GB exactly to the extent the data supports.
class Dagp {
 public:
  struct Options {
    /// Data sizes are normalized by this many GB before entering the GP.
    double datasize_scale_gb = 1000.0;
    ml::EiMcmc::Options ei;
    Options() {}
  };

  /// How the most recent successful Refit() updated the model — exposed
  /// for the numerical-contract tests and telemetry.
  enum class RefitKind {
    kNone = 0,    // no successful refit yet
    kFull = 1,    // full EI-MCMC refit on the whole history
    kAppend = 2,  // rank-1 appends onto the frozen ensemble
    kSparse = 3,  // full EI-MCMC refit on a greedy max-min subset
  };

  /// Largest history a full refit fits whole. A longer history is fitted
  /// on a greedy max-min subset of kMaxFitRows - kMaxFitRows / 6 rows
  /// (200) seeded at the incumbent, so a refit never costs more than the
  /// largest whole-history fit.
  static constexpr size_t kMaxFitRows = 240;

  explicit Dagp(Options options = Options())
      : options_(options), model_(options_.ei) {}

  /// Adds one observation (encoded conf, data size, measured seconds).
  /// All observations must share the encoding dimension.
  void AddObservation(const math::Vector& encoded_conf, double datasize_gb,
                      double seconds);

  /// Discards all observations and the EI-MCMC chain (used when the
  /// encoding changes after IICP; callers re-add re-encoded history, and
  /// the next refit is a cold start).
  void Clear();

  /// Refits the surrogate on the current observations (>= 2).
  ///
  /// While all observations share one data size, a full EI-MCMC refit
  /// runs only once the history has grown by 10% since the last full
  /// fit; the rows in between are absorbed by O(n^2) rank-1 appends onto
  /// the frozen ensemble (no RNG consumed). A history that spans several
  /// data sizes gets a full refit every call, since it is still learning
  /// the data-size lengthscale. A full refit fits the whole history up to
  /// kMaxFitRows rows and a greedy max-min subset above that; it
  /// continues the EI-MCMC chain of the previous one (see
  /// ml::EiMcmc::Fit).
  Status Refit(Rng* rng);

  /// Expected improvement (log-space EI, averaged over the
  /// hyperparameter posterior) of many candidates at one data size in a
  /// single batched pass: one cross-kernel and one blocked triangular
  /// solve per ensemble member. Entry i corresponds to `encoded_confs[i]`;
  /// results are bit-identical for any thread count. Requires a prior
  /// Refit.
  math::Vector ExpectedImprovementBatch(
      const std::vector<math::Vector>& encoded_confs,
      double datasize_gb) const;

  /// Predicted seconds (posterior-mean in log space, de-transformed) and
  /// the log-space variance.
  struct Prediction {
    double seconds = 0.0;
    double log_variance = 0.0;
  };

  /// Predictions for (conf, ds) pairs; `datasizes_gb` must be the same
  /// length as `encoded_confs`.
  std::vector<Prediction> PredictBatch(
      const std::vector<math::Vector>& encoded_confs,
      const std::vector<double>& datasizes_gb) const;

  int num_observations() const { return static_cast<int>(y_.size()); }
  bool fitted() const { return model_.fitted(); }
  /// Best (lowest) observed seconds so far.
  double best_seconds() const;

  /// Wires tracing/metrics sinks (either may be null). Purely
  /// observational: never changes fit results or RNG consumption.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// MCMC telemetry of the most recent successful Refit().
  const ml::EiMcmc::FitStats& last_fit_stats() const {
    return model_.last_fit_stats();
  }

  /// The path the most recent successful Refit() took.
  RefitKind last_refit_kind() const { return last_refit_kind_; }

  /// The underlying EI-MCMC ensemble (read-only; for the
  /// numerical-contract tests).
  const ml::EiMcmc& model() const { return model_; }

  /// Observations the fitted model currently incorporates (the subset
  /// size plus the rows appended since after a subset refit,
  /// num_observations() otherwise).
  size_t model_observations() const {
    return model_.fitted() ? model_.ensemble().front().num_points() : 0;
  }

 private:
  math::Vector Assemble(const math::Vector& encoded_conf,
                        double datasize_gb) const;

  /// Full EI-MCMC refit on rows `idx` of the history (all rows when
  /// `idx` is null).
  Status FullRefit(const std::vector<size_t>* idx, Rng* rng);

  /// Absorbs rows [fitted_n_, n) by rank-1 appends. False (the model
  /// possibly partly extended) when every member failed an append; the
  /// caller then refits from the history.
  bool AppendRows();

  Options options_;
  std::vector<math::Vector> x_;  // encoded conf + normalized ds
  std::vector<double> y_;        // log(seconds)
  ml::EiMcmc model_;
  size_t fitted_n_ = 0;       // history size the model has incorporated
  size_t last_full_fit_n_ = 0;  // history size at the last full MCMC fit
  bool mixed_datasizes_ = false;  // some row's data size differs from row 0's
  RefitKind last_refit_kind_ = RefitKind::kNone;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* refits_counter_ = nullptr;
  obs::Counter* mcmc_evals_counter_ = nullptr;
  obs::Counter* appends_counter_ = nullptr;
  obs::Counter* sparse_refits_counter_ = nullptr;
  obs::Histogram* refit_seconds_hist_ = nullptr;
};

}  // namespace locat::core

#endif  // LOCAT_CORE_DAGP_H_
