#ifndef LOCAT_CORE_DAGP_H_
#define LOCAT_CORE_DAGP_H_

#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "math/matrix.h"
#include "ml/ei_mcmc.h"
#include "ml/gp_mode.h"
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
    /// Surrogate scaling mode. Unset (the default) follows the
    /// process-wide dispatch (`--gp-mode` / `LOCAT_GP_MODE`). All modes
    /// share one refit schedule at or below the switch threshold, so they
    /// are bit-identical there (see Refit).
    std::optional<ml::GpMode> gp_mode;
    /// Observation count above which incremental/sparse modes engage.
    /// 0 (the default) follows the process-wide threshold
    /// (`LOCAT_GP_THRESHOLD`, default 240).
    size_t gp_switch_threshold = 0;
    /// Inducing-set size for sparse mode. 0 (the default) uses 5/6 of the
    /// switch threshold, so a sparse refit stays comfortably cheaper than
    /// the largest exact refit ever performed.
    size_t sparse_inducing = 0;
    /// Incremental mode above the switch threshold: once the history
    /// grows past this factor of the last full fit's size, run one full
    /// MCMC refit to unfreeze the hyperparameters (e.g. 2.0 = refresh each
    /// time n doubles). 0 (the default) never refreshes.
    double incremental_refresh_factor = 0.0;

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
  /// At or below the switch threshold every gp mode follows one schedule
  /// (same RNG draws, so recommendations are bit-exact across modes
  /// there): while all observations share one data size, a full EI-MCMC
  /// refit runs only once the history has grown by 10% since the last
  /// full fit, and the rows in between are absorbed by O(n^2) rank-1
  /// appends onto the frozen ensemble (no RNG consumed). A history that
  /// spans several data sizes gets a full refit every call, since it is
  /// still learning the data-size lengthscale.
  ///
  /// Above the threshold the path depends on the effective gp mode (see
  /// Options::gp_mode): exact keeps refitting the full history;
  /// incremental appends onto the ensemble fitted at the threshold;
  /// sparse refits on a greedy max-min subset. Full and sparse refits
  /// continue the EI-MCMC chain of the previous one (see
  /// ml::EiMcmc::Fit).
  Status Refit(Rng* rng);

  /// Expected improvement of a candidate at a data size (log-space EI,
  /// averaged over the hyperparameter posterior). Requires a prior Refit.
  double ExpectedImprovement(const math::Vector& encoded_conf,
                             double datasize_gb) const;

  /// Expected improvement of many candidates at one data size in a single
  /// batched pass: one cross-kernel and one blocked triangular solve per
  /// ensemble member instead of one per candidate. Entry i corresponds to
  /// `encoded_confs[i]`; results are bit-identical for any thread count.
  math::Vector ExpectedImprovementBatch(
      const std::vector<math::Vector>& encoded_confs,
      double datasize_gb) const;

  /// Relative EI for the stop rule: EI / |log best| is awkward, so we use
  /// the paper-faithful quantity "expected fractional runtime improvement"
  /// = 1 - exp(-EI_log), which is ~EI_log for small values. Stop when this
  /// drops below 0.10.
  double RelativeExpectedImprovement(const math::Vector& encoded_conf,
                                     double datasize_gb) const;

  /// Predicted seconds (posterior-mean in log space, de-transformed) and
  /// a crude variance on the seconds scale.
  struct Prediction {
    double seconds = 0.0;
    double log_variance = 0.0;
  };
  Prediction Predict(const math::Vector& encoded_conf,
                     double datasize_gb) const;

  /// Batched Predict for (conf, ds) pairs; `datasizes_gb` must be the
  /// same length as `encoded_confs`.
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

  /// Observations the fitted model currently incorporates (== the subset
  /// size in sparse mode, == num_observations() otherwise after a
  /// successful Refit).
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
