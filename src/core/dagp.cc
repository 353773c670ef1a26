#include "core/dagp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/sparse_gp.h"

namespace locat::core {

namespace {

// A history gets a full EI-MCMC refit once it has grown by this many
// percent since the last one (or gained a data size); the rows in
// between are absorbed by rank-1 appends. Each BO step adds one row, so
// at paper-sized histories (30-90 rows) this runs the sampler every 3-9
// steps instead of every step.
constexpr size_t kFullRefitGrowthPercent = 10;

// Data sizes are normalized by this many GB before entering the GP.
constexpr double kDatasizeScaleGb = 1000.0;

}  // namespace

math::Vector Dagp::Assemble(const math::Vector& encoded_conf,
                            double datasize_gb) const {
  math::Vector x(encoded_conf.size() + 1);
  for (size_t i = 0; i < encoded_conf.size(); ++i) x[i] = encoded_conf[i];
  x[encoded_conf.size()] = datasize_gb / kDatasizeScaleGb;
  return x;
}

void Dagp::AddObservation(const math::Vector& encoded_conf,
                          double datasize_gb, double seconds,
                          std::span<const double> key) {
  assert(seconds > 0.0);
  // Row r's key is row_keys_[r * width, (r + 1) * width): the key, then
  // the data size. A linear scan over G rows is cheap next to any refit.
  const size_t width = key.size() + 1;
  assert(row_keys_.size() == x_.size() * width);
  const std::span<const double> ds(&datasize_gb, 1);
  size_t row = 0;
  while (row < x_.size()) {
    const double* k = row_keys_.data() + row * width;
    if (ValueBytes({k + key.size(), 1}) == ValueBytes(ds) &&
        ValueBytes({k, key.size()}) == ValueBytes(key)) {
      break;
    }
    ++row;
  }
  if (row == x_.size()) {
    row_keys_.insert(row_keys_.end(), key.begin(), key.end());
    row_keys_.push_back(datasize_gb);
    x_.push_back(Assemble(encoded_conf, datasize_gb));
    model_row_.push_back(kNotFitted);
    const double ds = x_.back()[encoded_conf.size()];
    if (std::find(datasizes_.begin(), datasizes_.end(), ds) ==
        datasizes_.end()) {
      datasizes_.push_back(ds);
    }
  }
  row_of_.push_back(row);
  y_.push_back(std::log(seconds));
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
        "refits");
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
  const size_t rows = idx != nullptr ? idx->size() : x_.size();
  std::vector<size_t> fit_row(x_.size(), kNotFitted);
  math::Matrix x(rows, dim);
  for (size_t k = 0; k < rows; ++k) {
    const size_t r = idx != nullptr ? (*idx)[k] : k;
    fit_row[r] = k;
    x.SetRow(k, x_[r]);
  }
  // The whole history keeps its run order; a subset takes its rows in
  // `idx` order, each row's runs in history order.
  math::Vector y;
  std::vector<size_t> run_row;
  if (idx == nullptr) {
    y = math::Vector(y_);
    run_row = row_of_;
  } else {
    std::vector<std::vector<size_t>> runs_of(x_.size());
    for (size_t i = 0; i < y_.size(); ++i) runs_of[row_of_[i]].push_back(i);
    for (size_t k = 0; k < rows; ++k) {
      for (size_t i : runs_of[(*idx)[k]]) {
        y.data().push_back(y_[i]);
        run_row.push_back(k);
      }
    }
  }
  // model_ persists across refits so its EI-MCMC chain continues; a new
  // encoding (a new Dagp) starts it cold.
  const Status status = model_.Fit(x, y, rng, run_row);
  if (status.ok()) {
    model_row_ = std::move(fit_row);
    const ml::EiMcmc::FitStats& stats = model_.last_fit_stats();
    span.Arg("n", static_cast<double>(y.size()));
    span.Arg("rows", static_cast<double>(rows));
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
  // O(G^2) per new row, hyperparameters frozen, no RNG consumed.
  obs::ScopedSpan span(tracer_, "dagp/append", "model");
  const size_t n = y_.size();
  const size_t appended = n - fitted_n_;
  for (size_t i = fitted_n_; i < n; ++i) {
    const size_t r = row_of_[i];
    // A repeat moves a fitted row's count and mean, which a bordered
    // append cannot express. The tuner's repeats are production runs
    // reported between tunes, and the ensemble is dropped between tunes,
    // so a full refit absorbs them anyway.
    if (model_row_[r] != kNotFitted) return false;
    if (!model_.AppendObservation(x_[r], y_[i]).ok()) return false;
    model_row_[r] = model_.ensemble().front().num_points() - 1;
  }
  fitted_n_ = n;
  last_refit_kind_ = RefitKind::kAppend;
  span.Arg("n", static_cast<double>(n));
  span.Arg("rows",
           static_cast<double>(model_.ensemble().front().num_points()));
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
  // Absorb the new runs into the fitted ensemble instead of re-sampling
  // the hyperparameters while the history is within
  // kFullRefitGrowthPercent of its last full fit and holds only data
  // sizes that fit saw. A failed append (a near-singular extension in
  // every member) falls through to a full refit, which rebuilds the model
  // from the history.
  const bool append =
      model_.fitted() && datasizes_.size() == last_full_fit_sizes_ &&
      100 * n < (100 + kFullRefitGrowthPercent) * last_full_fit_n_;
  if (append && AppendRows()) return Status::OK();

  // Past the cap, fit a greedy max-min subset of rows seeded at the
  // incumbent's, so the best observation is always in the active set and
  // the rest spread over the design space. O(m^3) regardless of history
  // length.
  const size_t rows = x_.size();
  const bool subset = rows > kMaxFitRows;
  std::vector<size_t> idx;
  if (subset) {
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (y_[i] < y_[best]) best = i;
    }
    math::Matrix all(rows, x_.front().size());
    for (size_t r = 0; r < rows; ++r) all.SetRow(r, x_[r]);
    idx = ml::GreedyMaxMinSubset(all, kMaxFitRows - kMaxFitRows / 6,
                                 row_of_[best]);
  }
  const Status status = FullRefit(subset ? &idx : nullptr, rng);
  if (status.ok()) {
    fitted_n_ = n;
    last_full_fit_n_ = n;
    last_full_fit_sizes_ = datasizes_.size();
    last_refit_kind_ = subset ? RefitKind::kSparse : RefitKind::kFull;
    if (subset && sparse_refits_counter_ != nullptr) {
      sparse_refits_counter_->Increment();
    }
  }
  return status;
}

math::Matrix Dagp::AssembleRows(const math::Matrix& encoded_confs,
                               const std::vector<double>& datasizes_gb) {
  assert(encoded_confs.rows() == datasizes_gb.size());
  const size_t dim = encoded_confs.cols();
  math::Matrix xs(encoded_confs.rows(), dim + 1);
  for (size_t i = 0; i < encoded_confs.rows(); ++i) {
    const double* src = encoded_confs.RowData(i);
    double* dst = xs.RowData(i);
    std::copy(src, src + dim, dst);
    dst[dim] = datasizes_gb[i] / kDatasizeScaleGb;
  }
  return xs;
}

ml::EiMcmc::Pick Dagp::PickCandidate(const math::Matrix& encoded_confs,
                                     double datasize_gb) const {
  assert(model_.fitted());
  if (encoded_confs.rows() == 0) return {};
  return model_.PickCandidate(AssembleRows(
      encoded_confs,
      std::vector<double>(encoded_confs.rows(), datasize_gb)));
}

std::vector<Dagp::Prediction> Dagp::PredictBatch(
    const math::Matrix& encoded_confs,
    const std::vector<double>& datasizes_gb) const {
  assert(model_.fitted());
  std::vector<Prediction> out(encoded_confs.rows());
  if (out.empty()) return out;
  const math::Matrix xs = AssembleRows(encoded_confs, datasizes_gb);
  const auto p = model_.PredictAveragedBatch(xs);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].seconds = std::exp(p.mean[i] + 0.5 * p.variance[i]);
    out[i].log_variance = p.variance[i];
  }
  return out;
}

}  // namespace locat::core
