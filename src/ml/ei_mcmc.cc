#include "ml/ei_mcmc.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "math/distributions.h"
#include "math/stats.h"

namespace locat::ml {

double EiMcmc::LogPrior(const GpHyperparams& hp) const {
  const double inv_var = 1.0 / (options_.prior_log_std * options_.prior_log_std);
  double lp = 0.0;
  for (size_t i = 0; i < hp.log_lengthscales.size(); ++i) {
    const double d = hp.log_lengthscales[i] - options_.lengthscale_log_mean;
    lp -= 0.5 * d * d * inv_var;
  }
  const double ds = hp.log_signal_variance - options_.signal_log_mean;
  lp -= 0.5 * ds * ds * inv_var;
  const double dn = hp.log_noise_variance - options_.noise_log_mean;
  lp -= 0.5 * dn * dn * inv_var;
  return lp;
}

Status EiMcmc::Fit(const math::Matrix& x, const math::Vector& y, Rng* rng) {
  if (x.rows() < 2 || x.rows() != y.size()) {
    return Status::InvalidArgument("EiMcmc::Fit needs >= 2 matching samples");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  last_fit_stats_ = FitStats();
  best_observed_ = math::Min(y.data());

  const size_t dim = x.cols();
  const size_t rows = x.rows();
  SliceSampler::Options sopts;
  sopts.width = 0.8;

  // The previous ensemble is not needed while sampling; free it first.
  ensemble_.clear();

  // Kernel-cached density: pair squared-distances precomputed once, one
  // exp per pair per proposal, and the factorization of every density
  // evaluation memoized. The sampler's last evaluation of each sweep is
  // at exactly the retained state, so the callback harvests that
  // factorization and the ensemble member adopts it instead of
  // refactoring.
  GpKernelCache cache(x, y);
  auto log_posterior = [&](const math::Vector& flat) {
    const GpHyperparams hp = GpHyperparams::Unflatten(flat);
    const double lml = cache.LogMarginalLikelihood(hp);
    if (!std::isfinite(lml)) {
      return -std::numeric_limits<double>::infinity();
    }
    return lml + LogPrior(hp);
  };

  // Continue the chain when its state fits this input dimension and has
  // a finite density on the new data (the check is a memo hit for the
  // first sweep's evaluation, so it costs no factorization). Re-burn one
  // sweep per row added since the chain's last fit, at most burn_in.
  const int burn_in = std::max(0, options_.burn_in);
  const bool continued =
      chain_state_.size() == dim + 2 &&
      std::isfinite(log_posterior(chain_state_));
  math::Vector initial;
  int burn = burn_in;
  if (continued) {
    initial = chain_state_;
    const size_t added = rows > chain_rows_ ? rows - chain_rows_ : 1;
    burn = static_cast<int>(
        std::min<size_t>(added, static_cast<size_t>(burn_in)));
  } else {
    initial = GpHyperparams::Default(dim).Flatten();
  }
  last_fit_stats_.continued = continued;
  last_fit_stats_.sweeps =
      burn + options_.num_hyper_samples * std::max(1, options_.thin);

  SliceSampler sampler(log_posterior, sopts);
  std::vector<std::optional<GpKernelCache::Factorization>> harvested;
  auto on_sample = [&](int /*index*/, const math::Vector& state) {
    harvested.push_back(cache.TakeMemoized(state));
  };
  const std::vector<math::Vector> samples = sampler.Sample(
      initial, options_.num_hyper_samples, burn, options_.thin, rng,
      &last_fit_stats_.sampler, on_sample);
  if (!samples.empty()) {
    chain_state_ = samples.back();
    chain_rows_ = rows;
  }

  // Fit the members concurrently, one slot per sample, then assemble in
  // sample order — results are independent of the thread count. Workers
  // only read `cache` and write their own slot; no RNG is touched.
  std::vector<std::optional<GaussianProcess>> slots(samples.size());
  common::ThreadPool::Global()->ParallelForEach(
      samples.size(), [&](size_t i) {
        const GpHyperparams hp = GpHyperparams::Unflatten(samples[i]);
        GaussianProcess gp;
        const Status s =
            harvested[i].has_value()
                ? gp.AdoptFit(cache, hp, std::move(*harvested[i]))
                : gp.Fit(cache, hp);
        if (s.ok()) slots[i].emplace(std::move(gp));
      });
  ensemble_.reserve(samples.size());
  for (auto& slot : slots) {
    if (slot.has_value()) ensemble_.push_back(std::move(*slot));
  }
  if (ensemble_.empty()) {
    // Fall back to the default hyperparameters so callers always get a
    // usable surrogate.
    GaussianProcess gp;
    LOCAT_RETURN_IF_ERROR(gp.Fit(x, y, GpHyperparams::Default(dim)));
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

double EiMcmc::AcquisitionValue(const math::Vector& x) const {
  assert(fitted());
  double total = 0.0;
  for (const auto& gp : ensemble_) {
    const auto pred = gp.Predict(x);
    const double sd = std::sqrt(pred.variance);
    switch (options_.acquisition) {
      case AcquisitionKind::kProbabilityOfImprovement:
        total += math::ProbabilityOfImprovement(pred.mean, sd, best_observed_);
        break;
      case AcquisitionKind::kUcb:
        total += math::NegativeLowerConfidenceBound(pred.mean, sd,
                                                    options_.ucb_beta);
        break;
      case AcquisitionKind::kExpectedImprovement:
        total += math::ExpectedImprovement(pred.mean, sd, best_observed_);
        break;
    }
  }
  return total / static_cast<double>(ensemble_.size());
}

math::Vector EiMcmc::AcquisitionValueBatch(const math::Matrix& xs) const {
  assert(fitted());
  const size_t m = xs.rows();
  const size_t members = ensemble_.size();
  // One batched prediction per ensemble member, computed concurrently.
  // Each member's result depends only on that member, so the per-candidate
  // accumulation below (fixed member order) is thread-count invariant.
  std::vector<GaussianProcess::BatchPrediction> preds(members);
  common::ThreadPool::Global()->ParallelForEach(members, [&](size_t k) {
    preds[k] = ensemble_[k].PredictBatch(xs);
  });

  math::Vector out(m);
  for (size_t c = 0; c < m; ++c) {
    double total = 0.0;
    for (size_t k = 0; k < members; ++k) {
      const double mean = preds[k].mean[c];
      const double sd = std::sqrt(preds[k].variance[c]);
      switch (options_.acquisition) {
        case AcquisitionKind::kProbabilityOfImprovement:
          total += math::ProbabilityOfImprovement(mean, sd, best_observed_);
          break;
        case AcquisitionKind::kUcb:
          total += math::NegativeLowerConfidenceBound(mean, sd,
                                                      options_.ucb_beta);
          break;
        case AcquisitionKind::kExpectedImprovement:
          total += math::ExpectedImprovement(mean, sd, best_observed_);
          break;
      }
    }
    out[c] = total / static_cast<double>(members);
  }
  return out;
}

GaussianProcess::Prediction EiMcmc::PredictAveraged(
    const math::Vector& x) const {
  assert(fitted());
  double mean = 0.0;
  double second_moment = 0.0;
  for (const auto& gp : ensemble_) {
    const auto pred = gp.Predict(x);
    mean += pred.mean;
    second_moment += pred.variance + pred.mean * pred.mean;
  }
  const double n = static_cast<double>(ensemble_.size());
  mean /= n;
  GaussianProcess::Prediction out;
  out.mean = mean;
  out.variance = std::max(0.0, second_moment / n - mean * mean);
  return out;
}

GaussianProcess::BatchPrediction EiMcmc::PredictAveragedBatch(
    const math::Matrix& xs) const {
  assert(fitted());
  const size_t m = xs.rows();
  const size_t members = ensemble_.size();
  std::vector<GaussianProcess::BatchPrediction> preds(members);
  common::ThreadPool::Global()->ParallelForEach(members, [&](size_t k) {
    preds[k] = ensemble_[k].PredictBatch(xs);
  });

  GaussianProcess::BatchPrediction out;
  out.mean = math::Vector(m);
  out.variance = math::Vector(m);
  const double n = static_cast<double>(members);
  for (size_t c = 0; c < m; ++c) {
    double mean = 0.0;
    double second_moment = 0.0;
    for (size_t k = 0; k < members; ++k) {
      const double mu = preds[k].mean[c];
      mean += mu;
      second_moment += preds[k].variance[c] + mu * mu;
    }
    mean /= n;
    out.mean[c] = mean;
    out.variance[c] = std::max(0.0, second_moment / n - mean * mean);
  }
  return out;
}

double EiMcmc::RelativeEi(const math::Vector& x) const {
  const double denom = std::max(std::fabs(best_observed_), 1e-12);
  return AcquisitionValue(x) / denom;
}

}  // namespace locat::ml
