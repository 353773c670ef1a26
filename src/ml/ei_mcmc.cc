#include "ml/ei_mcmc.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "math/distributions.h"
#include "math/stats.h"

namespace locat::ml {
namespace {

// Weak log-normal hyperparameter priors: means of the log lengthscale
// (~0.30 for [0,1]-normalized inputs), log signal variance and log noise
// variance (~0.01), with one shared standard deviation in log space.
constexpr double kLengthscaleLogMean = -1.2;
constexpr double kSignalLogMean = 0.0;
constexpr double kNoiseLogMean = -4.6;
constexpr double kPriorLogStd = 1.0;

/// The prior of flattened hyperparameters (GpHyperparams::Flatten's
/// layout: d log lengthscales, log signal, log noise).
double LogPrior(std::span<const double> flat) {
  const double inv_var = 1.0 / (kPriorLogStd * kPriorLogStd);
  const size_t d = flat.size() - 2;
  double lp = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double dl = flat[i] - kLengthscaleLogMean;
    lp -= 0.5 * dl * dl * inv_var;
  }
  const double ds = flat[d] - kSignalLogMean;
  lp -= 0.5 * ds * ds * inv_var;
  const double dn = flat[d + 1] - kNoiseLogMean;
  lp -= 0.5 * dn * dn * inv_var;
  return lp;
}

}  // namespace

Status EiMcmc::Fit(const math::Matrix& x, const math::Vector& y, Rng* rng,
                   std::span<const size_t> row_of) {
  if (y.size() < 2 || x.rows() == 0 ||
      !ValidRowMap(row_of, y.size(), x.rows())) {
    return Status::InvalidArgument(
        "EiMcmc::Fit needs >= 2 runs and a run on every row");
  }
  // A NaN or inf would poison every density evaluation and leave an
  // ensemble whose acquisition values are all NaN.
  const auto finite = [](double v) { return std::isfinite(v); };
  const double* x0 = x.RowData(0);
  if (!std::all_of(x0, x0 + x.rows() * x.cols(), finite) ||
      !std::all_of(y.data().begin(), y.data().end(), finite)) {
    return Status::InvalidArgument("EiMcmc::Fit needs finite samples");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  last_fit_stats_ = FitStats();
  best_observed_ = math::Min(y.data());

  const size_t dim = x.cols();

  // The previous ensemble is not needed while sampling; free it first.
  ensemble_.clear();

  // Kernel-cached density on the flat state, allocation-free once warm:
  // pair squared-distances precomputed once, one exp per moved
  // lengthscale and one per pair per proposal, and the factorization of
  // the last evaluation memoized. The sampler's last evaluation of each
  // sweep is at exactly the retained state, so the callback harvests
  // that factorization and the ensemble member adopts it instead of
  // refactoring.
  GpKernelCache cache(x, y, row_of);
  auto log_posterior = [&](const math::Vector& flat) {
    const double lml = cache.LogMarginalLikelihood(flat.data());
    if (!std::isfinite(lml)) {
      return -std::numeric_limits<double>::infinity();
    }
    return lml + LogPrior(flat.data());
  };

  // Continue the chain when its last state fits this input dimension and
  // has a finite density on the new data; that evaluation is the first
  // sweep's starting density. A continued chain runs no re-burn and draws
  // half an ensemble of new samples.
  SliceSampler::Stats& sampler_stats = last_fit_stats_.sampler;
  auto start_density = [&](const math::Vector& start) {
    ++sampler_stats.density_evals;
    return log_posterior(start);
  };
  const size_t k = static_cast<size_t>(std::max(0, options_.num_hyper_samples));
  math::Vector start;
  double start_log_f = -std::numeric_limits<double>::infinity();
  if (!chain_.empty() && chain_.back().size() == dim + 2) {
    start = chain_.back();
    start_log_f = start_density(start);
  }
  const bool continued = std::isfinite(start_log_f);
  if (!continued) {
    chain_.clear();
    start = GpHyperparams::Default(dim).Flatten();
    start_log_f = start_density(start);
  }
  const int burn = continued ? 0 : std::max(0, options_.burn_in);
  const int draws = static_cast<int>(continued ? (k + 1) / 2 : k);
  last_fit_stats_.continued = continued;
  last_fit_stats_.sweeps = burn + draws * std::max(1, options_.thin);

  SliceSampler sampler(log_posterior);
  std::vector<std::optional<GpKernelCache::Factorization>> harvested;
  auto on_sample = [&](int /*index*/, const math::Vector& state) {
    harvested.push_back(cache.TakeMemoized(state.data()));
  };
  std::vector<math::Vector> samples =
      sampler.Sample(start, start_log_f, draws, burn, options_.thin, rng,
                     &sampler_stats, on_sample);

  // The chain keeps its last k states: the newest carried ones, then the
  // fresh samples.
  const size_t carried = std::min(chain_.size(), k - samples.size());
  chain_.erase(chain_.begin(),
               chain_.end() - static_cast<std::ptrdiff_t>(carried));
  for (auto& sample : samples) chain_.push_back(std::move(sample));

  // Fit the members concurrently, one slot per kept state, then assemble
  // in chain order — results are independent of the thread count.
  // Carried states refactor on the current rows; fresh samples adopt the
  // sampler's factorization. Workers only read `cache` and write their
  // own slot; no RNG is touched.
  std::vector<std::optional<GaussianProcess>> slots(chain_.size());
  common::ThreadPool::Global()->ParallelForEach(
      chain_.size(), [&](size_t i) {
        const GpHyperparams hp = GpHyperparams::Unflatten(chain_[i].data());
        GaussianProcess gp;
        const Status s =
            i >= carried && harvested[i - carried].has_value()
                ? gp.AdoptFit(cache, hp, std::move(*harvested[i - carried]))
                : gp.Fit(cache, hp);
        if (s.ok()) slots[i].emplace(std::move(gp));
      });
  ensemble_.reserve(slots.size());
  for (auto& slot : slots) {
    if (slot.has_value()) ensemble_.push_back(std::move(*slot));
  }
  if (ensemble_.empty()) {
    // Fall back to the default hyperparameters so callers always get a
    // usable surrogate.
    GaussianProcess gp;
    LOCAT_RETURN_IF_ERROR(gp.Fit(x, y, GpHyperparams::Default(dim), row_of));
    ensemble_.push_back(std::move(gp));
    last_fit_stats_.used_fallback = true;
  }
  last_fit_stats_.ensemble_size = static_cast<int>(ensemble_.size());
  last_fit_stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return Status::OK();
}

Status EiMcmc::AppendObservation(const math::Vector& x, double y) {
  if (ensemble_.empty()) {
    return Status::FailedPrecondition(
        "AppendObservation requires a fitted model");
  }
  if (x.size() != ensemble_.front().input_dim()) {
    return Status::InvalidArgument("AppendObservation dimension mismatch");
  }
  if (!std::isfinite(y) ||
      !std::all_of(x.data().begin(), x.data().end(),
                   [](double v) { return std::isfinite(v); })) {
    return Status::InvalidArgument("AppendObservation needs a finite sample");
  }
  // Members extend independently (each owns its factor), one slot per
  // member — the surviving set and its order are thread-count invariant.
  const size_t members = ensemble_.size();
  std::vector<char> ok(members, 0);
  common::ThreadPool::Global()->ParallelForEach(members, [&](size_t k) {
    ok[k] = ensemble_[k].AppendFit(x, y).ok() ? 1 : 0;
  });
  size_t failed = 0;
  for (size_t k = 0; k < members; ++k) {
    if (!ok[k]) ++failed;
  }
  if (failed == members) {
    // AppendFit rolls back on failure, so every member still holds the
    // pre-append fit — leave the model usable and let the caller refit.
    return Status::FailedPrecondition(
        "every ensemble member failed to extend its factorization");
  }
  size_t kept = 0;
  for (size_t k = 0; k < members; ++k) {
    if (!ok[k]) continue;
    if (kept != k) ensemble_[kept] = std::move(ensemble_[k]);
    ++kept;
  }
  ensemble_.resize(kept);
  best_observed_ = std::min(best_observed_, y);
  last_fit_stats_.ensemble_size = static_cast<int>(kept);
  return Status::OK();
}

std::vector<GaussianProcess::BatchPrediction> EiMcmc::MemberPredictions(
    const math::Matrix& xs, size_t members) const {
  assert(fitted());
  // One batched prediction per ensemble member, computed concurrently.
  // Each member's result depends only on that member, so a per-candidate
  // accumulation in fixed member order is thread-count invariant.
  std::vector<GaussianProcess::BatchPrediction> preds(members);
  common::ThreadPool::Global()->ParallelForEach(
      members, [&](size_t k) { preds[k] = ensemble_[k].PredictBatch(xs); });
  return preds;
}

double EiMcmc::MemberValue(double mean, double variance) const {
  const double sd = std::sqrt(variance);
  switch (options_.acquisition) {
    case AcquisitionKind::kProbabilityOfImprovement:
      return math::ProbabilityOfImprovement(mean, sd, best_observed_);
    case AcquisitionKind::kExpectedImprovement:
      break;
  }
  return math::ExpectedImprovement(mean, sd, best_observed_);
}

math::Vector EiMcmc::AcquisitionValueBatch(const math::Matrix& xs) const {
  const std::vector<GaussianProcess::BatchPrediction> preds =
      MemberPredictions(xs, ensemble_.size());
  const size_t m = xs.rows();
  const size_t members = preds.size();

  math::Vector out(m);
  for (size_t c = 0; c < m; ++c) {
    double total = 0.0;
    for (size_t k = 0; k < members; ++k) {
      total += MemberValue(preds[k].mean[c], preds[k].variance[c]);
    }
    out[c] = total / static_cast<double>(members);
  }
  return out;
}

namespace {

// Ensemble mean and law-of-total-variance variance of candidate c.
void AverageMoments(const std::vector<GaussianProcess::BatchPrediction>& preds,
                    size_t c, double* mean, double* variance) {
  const double n = static_cast<double>(preds.size());
  double sum = 0.0;
  double second_moment = 0.0;
  for (const auto& p : preds) {
    const double mu = p.mean[c];
    sum += mu;
    second_moment += p.variance[c] + mu * mu;
  }
  *mean = sum / n;
  *variance = std::max(0.0, second_moment / n - *mean * *mean);
}

}  // namespace

GaussianProcess::BatchPrediction EiMcmc::PredictAveragedBatch(
    const math::Matrix& xs) const {
  const std::vector<GaussianProcess::BatchPrediction> preds =
      MemberPredictions(xs, ensemble_.size());
  const size_t m = xs.rows();
  GaussianProcess::BatchPrediction out;
  out.mean = math::Vector(m);
  out.variance = math::Vector(m);
  for (size_t c = 0; c < m; ++c) {
    AverageMoments(preds, c, &out.mean[c], &out.variance[c]);
  }
  return out;
}

std::vector<size_t> EiMcmc::TopRows(std::span<const double> scores,
                                    size_t keep) {
  std::vector<size_t> rows(scores.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  if (keep >= rows.size()) return rows;
  const auto ahead = [&scores](size_t a, size_t b) {
    const bool a_nan = std::isnan(scores[a]);
    if (a_nan != std::isnan(scores[b])) return !a_nan;
    if (!a_nan && scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::nth_element(rows.begin(),
                   rows.begin() + static_cast<std::ptrdiff_t>(keep), rows.end(),
                   ahead);
  rows.resize(keep);
  std::sort(rows.begin(), rows.end());
  return rows;
}

EiMcmc::Pick EiMcmc::PickCandidate(const math::Matrix& xs) const {
  assert(fitted());
  const size_t m = xs.rows();
  const size_t members = ensemble_.size();
  // `rows` are the scored rows of xs in ascending order; preds[k] holds
  // member k's predictions at them.
  std::vector<size_t> rows;
  std::vector<GaussianProcess::BatchPrediction> preds;
  if (m <= kScreenKeep || members == 1) {
    rows.resize(m);
    std::iota(rows.begin(), rows.end(), size_t{0});
    preds = MemberPredictions(xs, members);
  } else {
    // Stage 1: the newest member alone ranks the whole pool.
    const GaussianProcess::BatchPrediction newest =
        ensemble_.back().PredictBatch(xs);
    std::vector<double> score(m);
    for (size_t c = 0; c < m; ++c) {
      score[c] = MemberValue(newest.mean[c], newest.variance[c]);
    }
    rows = TopRows(score, kScreenKeep);

    // Stage 2: the other members predict the kept rows only; the newest
    // member's values at them are already known.
    math::Matrix kept(kScreenKeep, xs.cols());
    for (size_t i = 0; i < kScreenKeep; ++i) {
      std::copy(xs.RowData(rows[i]), xs.RowData(rows[i]) + xs.cols(),
                kept.RowData(i));
    }
    preds = MemberPredictions(kept, members - 1);
    GaussianProcess::BatchPrediction& last = preds.emplace_back();
    last.mean = math::Vector(kScreenKeep);
    last.variance = math::Vector(kScreenKeep);
    for (size_t i = 0; i < kScreenKeep; ++i) {
      last.mean[i] = newest.mean[rows[i]];
      last.variance[i] = newest.variance[rows[i]];
    }
  }

  // Accumulate members in member order, as AcquisitionValueBatch does;
  // the best value under TopRows' order is the first maximum in row order.
  std::vector<double> value(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    double total = 0.0;
    for (const auto& p : preds) total += MemberValue(p.mean[i], p.variance[i]);
    value[i] = total / static_cast<double>(members);
  }
  Pick pick;
  const std::vector<size_t> best = TopRows(value, 1);
  if (best.empty() || std::isnan(value[best[0]])) return pick;
  pick.row = rows[best[0]];
  pick.value = value[best[0]];
  AverageMoments(preds, best[0], &pick.mean, &pick.variance);
  return pick;
}

}  // namespace locat::ml
