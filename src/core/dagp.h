#ifndef LOCAT_CORE_DAGP_H_
#define LOCAT_CORE_DAGP_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "math/matrix.h"
#include "ml/ei_mcmc.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace locat::core {

/// The bytes of `values`. Two configurations are one (their runs are
/// repeats) when these compare equal: bitwise, so 0.0 and -0.0 differ and
/// a NaN matches itself. The DAGP's rows and the tuner's folds of its
/// history share this one test.
inline std::string_view ValueBytes(std::span<const double> values) {
  return {reinterpret_cast<const char*>(values.data()), values.size_bytes()};
}

/// Datasize-Aware Gaussian Process (Section 3.4): the BO surrogate that
/// models execution time as a function of the (encoded) configuration AND
/// the input data size, t = f(conf, ds) (equation (7)).
///
/// Inputs: an encoded configuration vector (full unit cube before IICP,
/// KPCA latent space after) concatenated with ds / 1000 GB. Targets are
/// modeled in log space — execution times span orders of magnitude once
/// OOM-retry configurations appear, and the log transform keeps the GP
/// well-conditioned.
///
/// Hyperparameters are marginalized with EI-MCMC, so the data-size
/// dimension gets its own learned lengthscale: observations at 100 GB
/// inform predictions at 300 GB exactly to the extent the data supports.
///
/// The history is kept as runs plus a run -> row map: runs whose key and
/// data size are bitwise equal (repeated runs of one configuration) share
/// one GP row, so a refit factors the distinct rows only, with the
/// posterior of one row per run (ml::GpRowTargets). The refit schedule
/// counts runs.
class Dagp {
 public:
  /// How the most recent successful Refit() updated the model — exposed
  /// for the numerical-contract tests and telemetry.
  enum class RefitKind {
    kNone = 0,    // no successful refit yet
    kFull = 1,    // full EI-MCMC refit on the whole history
    kAppend = 2,  // rank-1 appends onto the frozen ensemble
    kSparse = 3,  // full EI-MCMC refit on a greedy max-min subset
  };

  /// Most GP rows a full refit fits whole. A history with more rows is
  /// fitted on a greedy max-min subset of kMaxFitRows - kMaxFitRows / 6
  /// rows (200, with all their runs) seeded at the incumbent's row, so a
  /// refit never costs more than the largest whole-history fit.
  static constexpr size_t kMaxFitRows = 240;

  explicit Dagp(ml::EiMcmc::Options options = ml::EiMcmc::Options())
      : options_(options), model_(options_) {}

  /// Adds one run (encoded conf, data size, measured seconds). All runs
  /// must share the encoding dimension, and all keys one length. `key`
  /// names the configuration: a run whose key and data size have the
  /// ValueBytes of an earlier run's joins that run's row, any other run
  /// opens a new row, even when its encoded conf collides with one.
  void AddObservation(const math::Vector& encoded_conf, double datasize_gb,
                      double seconds, std::span<const double> key);

  /// Refits the surrogate on the current runs (>= 2).
  ///
  /// A full EI-MCMC refit runs when there is no fitted ensemble, when the
  /// history has grown by 10% of its runs since the last full fit, or
  /// when it holds a data size that fit did not see (the data-size
  /// lengthscale has something new to learn). Otherwise the new runs are
  /// absorbed onto the frozen ensemble by O(G^2) rank-1 appends of new
  /// rows (no RNG consumed); a run that repeats a row the model holds
  /// moves that row's count and mean, and takes a full refit instead.
  /// A full refit fits the whole history up to
  /// kMaxFitRows rows and a greedy max-min subset above that; it
  /// continues the EI-MCMC chain of the previous one and replaces the
  /// older half of the hyperparameter ensemble, refitting the newer half
  /// on the current rows (see ml::EiMcmc::Fit).
  Status Refit(Rng* rng);

  /// Frees the fitted ensemble (its per-member G x G factors) and keeps
  /// the history and the EI-MCMC chain, so the next Refit is a full refit
  /// that continues the chain. For a surrogate that sits idle between
  /// refits.
  void DropEnsemble() { model_.DropEnsemble(); }

  /// The candidate the acquisition picks among the rows of
  /// `encoded_confs` at one data size (ml::EiMcmc::PickCandidate: the
  /// newest ensemble member screens a pool of more than 64 rows, the full
  /// ensemble scores the rest), with the ensemble's log-seconds mean and
  /// variance there. Bit-identical for any thread count. Requires a prior
  /// Refit.
  ml::EiMcmc::Pick PickCandidate(const math::Matrix& encoded_confs,
                                 double datasize_gb) const;

  /// Predicted seconds (posterior-mean in log space, de-transformed) and
  /// the log-space variance.
  struct Prediction {
    double seconds = 0.0;
    double log_variance = 0.0;
  };

  /// Predictions for (conf, ds) pairs: row i of `encoded_confs` at
  /// `datasizes_gb[i]`, which has one entry per row.
  std::vector<Prediction> PredictBatch(
      const math::Matrix& encoded_confs,
      const std::vector<double>& datasizes_gb) const;

  /// Runs in the history.
  int num_observations() const { return static_cast<int>(y_.size()); }
  /// GP rows in the history: its distinct (key, data size) pairs.
  size_t num_rows() const { return x_.size(); }
  bool fitted() const { return model_.fitted(); }

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

  /// Runs the fitted model currently incorporates (the subset's runs plus
  /// the runs appended since after a subset refit, num_observations()
  /// otherwise).
  size_t model_observations() const {
    return model_.fitted() ? model_.ensemble().front().num_runs() : 0;
  }

 private:
  math::Vector Assemble(const math::Vector& encoded_conf,
                        double datasize_gb) const;

  /// The GP inputs of row i of `encoded_confs` at `datasizes_gb[i]`.
  static math::Matrix AssembleRows(const math::Matrix& encoded_confs,
                                   const std::vector<double>& datasizes_gb);

  /// Full EI-MCMC refit on rows `idx` of the history and all their runs
  /// (every row when `idx` is null).
  Status FullRefit(const std::vector<size_t>* idx, Rng* rng);

  /// Absorbs runs [fitted_n_, n), each by a rank-1 append of a new row.
  /// False (the model possibly partly extended) when a run repeats a row
  /// the model holds or every member failed an append; the caller then
  /// refits from the history.
  bool AppendRows();

  static constexpr size_t kNotFitted = static_cast<size_t>(-1);

  ml::EiMcmc::Options options_;
  std::vector<math::Vector> x_;  // per row: encoded conf + normalized ds
  std::vector<double> y_;        // per run: log(seconds)
  std::vector<size_t> row_of_;   // per run: its row in x_
  /// Per row: its key, then its data size (see AddObservation).
  std::vector<double> row_keys_;
  /// Per row of x_: its row in the fitted model, kNotFitted when the
  /// model does not hold it.
  std::vector<size_t> model_row_;
  ml::EiMcmc model_;
  size_t fitted_n_ = 0;       // runs the model has incorporated
  size_t last_full_fit_n_ = 0;  // runs at the last full MCMC fit
  std::vector<double> datasizes_;  // distinct normalized data sizes seen
  size_t last_full_fit_sizes_ = 0;  // datasizes_.size() at that fit
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
