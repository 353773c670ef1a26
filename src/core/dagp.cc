#include "core/dagp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/sparse_gp.h"

namespace locat::core {

namespace {

// A single-size history gets a full EI-MCMC refit only once it has grown
// by this many percent since the last one; the rows in between are
// absorbed by rank-1 appends. Each BO step adds one row, so at
// paper-sized histories (30-90 rows) this runs the sampler every 3-9
// steps instead of every step.
constexpr size_t kFullRefitGrowthPercent = 10;

}  // namespace

math::Vector Dagp::Assemble(const math::Vector& encoded_conf,
                            double datasize_gb) const {
  math::Vector x(encoded_conf.size() + 1);
  for (size_t i = 0; i < encoded_conf.size(); ++i) x[i] = encoded_conf[i];
  x[encoded_conf.size()] = datasize_gb / options_.datasize_scale_gb;
  return x;
}

void Dagp::AddObservation(const math::Vector& encoded_conf,
                          double datasize_gb, double seconds) {
  assert(seconds > 0.0);
  x_.push_back(Assemble(encoded_conf, datasize_gb));
  y_.push_back(std::log(seconds));
  const size_t ds = encoded_conf.size();  // the data-size column
  if (x_.back()[ds] != x_.front()[ds]) mixed_datasizes_ = true;
}

void Dagp::Clear() {
  x_.clear();
  y_.clear();
  model_ = ml::EiMcmc(options_.ei);
  fitted_n_ = 0;
  last_full_fit_n_ = 0;
  mixed_datasizes_ = false;
  last_refit_kind_ = RefitKind::kNone;
}

void Dagp::SetObservability(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (metrics != nullptr) {
    refits_counter_ = metrics->GetCounter(
        "locat_dagp_refits_total", "EI-MCMC ensemble refits performed");
    mcmc_evals_counter_ = metrics->GetCounter(
        "locat_dagp_mcmc_density_evals_total",
        "GP log-marginal-likelihood evaluations spent in slice sampling");
    refit_seconds_hist_ = metrics->GetHistogram(
        "locat_dagp_refit_seconds", "Wall-clock seconds per DAGP refit",
        {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0});
    appends_counter_ = metrics->GetCounter(
        "locat_dagp_appends_total",
        "Observations absorbed by rank-1 ensemble appends between full "
        "refits of a single-size history");
    sparse_refits_counter_ = metrics->GetCounter(
        "locat_dagp_sparse_refits_total",
        "Full refits of a history longer than the fit cap, performed on "
        "a greedy max-min subset");
  } else {
    refits_counter_ = nullptr;
    mcmc_evals_counter_ = nullptr;
    refit_seconds_hist_ = nullptr;
    appends_counter_ = nullptr;
    sparse_refits_counter_ = nullptr;
  }
}

Status Dagp::FullRefit(const std::vector<size_t>* idx, Rng* rng) {
  obs::ScopedSpan span(tracer_, "dagp/refit", "model");
  const size_t dim = x_.front().size();
  const size_t rows = idx != nullptr ? idx->size() : y_.size();
  math::Matrix x(rows, dim);
  math::Vector y(rows);
  for (size_t i = 0; i < rows; ++i) {
    const size_t r = idx != nullptr ? (*idx)[i] : i;
    x.SetRow(i, x_[r]);
    y[i] = y_[r];
  }
  // model_ persists across refits so its EI-MCMC chain continues; Clear()
  // (a new encoding) resets it to a cold start.
  const Status status = model_.Fit(x, y, rng);
  if (status.ok()) {
    const ml::EiMcmc::FitStats& stats = model_.last_fit_stats();
    span.Arg("n", static_cast<double>(rows));
    span.Arg("dim", static_cast<double>(dim));
    span.Arg("ensemble", stats.ensemble_size);
    span.Arg("density_evals",
             static_cast<double>(stats.sampler.density_evals));
    span.Arg("sweeps", stats.sweeps);
    span.Arg("continued", stats.continued ? 1.0 : 0.0);
    if (refits_counter_ != nullptr) refits_counter_->Increment();
    if (mcmc_evals_counter_ != nullptr) {
      mcmc_evals_counter_->Increment(
          static_cast<double>(stats.sampler.density_evals));
    }
    if (refit_seconds_hist_ != nullptr) {
      refit_seconds_hist_->Observe(stats.wall_seconds);
    }
  }
  return status;
}

bool Dagp::AppendRows() {
  // O(n^2) per row, hyperparameters frozen, no RNG consumed.
  obs::ScopedSpan span(tracer_, "dagp/append", "model");
  const size_t n = y_.size();
  const size_t appended = n - fitted_n_;
  for (size_t i = fitted_n_; i < n; ++i) {
    if (!model_.AppendObservation(x_[i], y_[i]).ok()) return false;
  }
  fitted_n_ = n;
  last_refit_kind_ = RefitKind::kAppend;
  span.Arg("n", static_cast<double>(n));
  span.Arg("appended", static_cast<double>(appended));
  if (appends_counter_ != nullptr && appended > 0) {
    appends_counter_->Increment(static_cast<double>(appended));
  }
  return true;
}

Status Dagp::Refit(Rng* rng) {
  const size_t n = y_.size();
  if (n < 2) {
    return Status::FailedPrecondition("DAGP needs >= 2 observations");
  }
  // Absorb the new rows into the fitted ensemble instead of re-sampling
  // the hyperparameters while a single-size history is within
  // kFullRefitGrowthPercent of its last full fit. A failed append (a near-singular extension in every
  // member) falls through to a full refit, which rebuilds the model from
  // the history.
  const bool append =
      model_.fitted() && fitted_n_ <= n && !mixed_datasizes_ &&
      100 * n < (100 + kFullRefitGrowthPercent) * last_full_fit_n_;
  if (append && AppendRows()) return Status::OK();

  // Past the cap, fit a greedy max-min subset seeded at the incumbent, so
  // the best observation is always in the active set and the rest spread
  // over the design space. O(m^3) regardless of history length.
  const bool subset = n > kMaxFitRows;
  std::vector<size_t> idx;
  if (subset) {
    size_t seed = 0;
    for (size_t i = 1; i < n; ++i) {
      if (y_[i] < y_[seed]) seed = i;
    }
    math::Matrix all(n, x_.front().size());
    for (size_t i = 0; i < n; ++i) all.SetRow(i, x_[i]);
    idx = ml::GreedyMaxMinSubset(all, kMaxFitRows - kMaxFitRows / 6, seed);
  }
  const Status status = FullRefit(subset ? &idx : nullptr, rng);
  if (status.ok()) {
    fitted_n_ = n;
    last_full_fit_n_ = n;
    last_refit_kind_ = subset ? RefitKind::kSparse : RefitKind::kFull;
    if (subset && sparse_refits_counter_ != nullptr) {
      sparse_refits_counter_->Increment();
    }
  }
  return status;
}

math::Vector Dagp::ExpectedImprovementBatch(
    const std::vector<math::Vector>& encoded_confs,
    double datasize_gb) const {
  assert(model_.fitted());
  if (encoded_confs.empty()) return math::Vector();
  const size_t dim = encoded_confs.front().size() + 1;
  math::Matrix xs(encoded_confs.size(), dim);
  for (size_t i = 0; i < encoded_confs.size(); ++i) {
    xs.SetRow(i, Assemble(encoded_confs[i], datasize_gb));
  }
  return model_.AcquisitionValueBatch(xs);
}

std::vector<Dagp::Prediction> Dagp::PredictBatch(
    const std::vector<math::Vector>& encoded_confs,
    const std::vector<double>& datasizes_gb) const {
  assert(model_.fitted());
  assert(encoded_confs.size() == datasizes_gb.size());
  std::vector<Prediction> out(encoded_confs.size());
  if (encoded_confs.empty()) return out;
  const size_t dim = encoded_confs.front().size() + 1;
  math::Matrix xs(encoded_confs.size(), dim);
  for (size_t i = 0; i < encoded_confs.size(); ++i) {
    xs.SetRow(i, Assemble(encoded_confs[i], datasizes_gb[i]));
  }
  const auto p = model_.PredictAveragedBatch(xs);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].seconds = std::exp(p.mean[i] + 0.5 * p.variance[i]);
    out[i].log_variance = p.variance[i];
  }
  return out;
}

double Dagp::best_seconds() const {
  if (y_.empty()) return 0.0;
  return std::exp(*std::min_element(y_.begin(), y_.end()));
}

}  // namespace locat::core
