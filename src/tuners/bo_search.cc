#include "tuners/bo_search.h"

#include <algorithm>
#include <cmath>

#include "ml/ei_mcmc.h"

namespace locat::tuners {
namespace {

/// Candidates scored per iteration.
constexpr size_t kCandidates = 200;
/// Refit the GP every `kRefitPeriod` evaluations (keeps the O(n^3) cost
/// manageable at baseline-scale budgets).
constexpr int kRefitPeriod = 6;
/// Only the most recent `kTrainingWindow` samples enter the GP.
constexpr size_t kTrainingWindow = 48;

/// A small EI-MCMC ensemble: 2 hyperparameter samples, 4 burn-in sweeps,
/// no thinning.
ml::EiMcmc::Options EnsembleOptions() {
  ml::EiMcmc::Options ei;
  ei.num_hyper_samples = 2;
  ei.burn_in = 4;
  ei.thin = 1;
  return ei;
}

}  // namespace

math::Vector BoSearch::FreeDims(const math::Vector& unit,
                                const std::vector<int>& free_dims) const {
  math::Vector out(free_dims.size());
  for (size_t i = 0; i < free_dims.size(); ++i) {
    out[i] = unit[static_cast<size_t>(free_dims[i])];
  }
  return out;
}

void BoSearch::Run(core::TuningSession* session, double datasize_gb,
                   const std::vector<int>& free_dims,
                   const sparksim::SparkConf& base_conf,
                   const std::vector<math::Vector>& initial_units) {
  const sparksim::ConfigSpace& space = session->space();
  const math::Vector base_unit = space.ToUnit(base_conf);
  obs::ScopedSpan run_span(obs_.tracer, "bo_search/run", "tuner");

  std::vector<math::Vector> xs;   // GP inputs (free dims only), log targets
  std::vector<double> ys;
  best_seconds_ = 0.0;
  worst_seconds_ = 0.0;
  failed_evals_ = 0;
  trajectory_.clear();

  auto evaluate = [&](const math::Vector& unit_full) {
    // Pin non-free dims to the base configuration.
    math::Vector unit = base_unit;
    for (int d : free_dims) {
      unit[static_cast<size_t>(d)] = unit_full[static_cast<size_t>(d)];
    }
    const sparksim::SparkConf conf = space.Repair(space.FromUnit(unit));
    const double meter_before = session->optimization_seconds();
    const StatusOr<core::EvalRecord> rec_or =
        session->Evaluate(conf, datasize_gb);
    if (!rec_or.ok()) return;  // nothing was charged; skip the point
    const core::EvalRecord& rec = *rec_or;
    // A killed run trains the GP with the censored penalty cost and never
    // becomes the incumbent.
    double objective = rec.app_seconds;
    if (rec.failed) {
      objective = core::CensoredObjective(worst_seconds_, rec.app_seconds, 2.0);
      ++failed_evals_;
    } else {
      worst_seconds_ = std::max(worst_seconds_, rec.app_seconds);
    }
    xs.push_back(FreeDims(space.ToUnit(conf), free_dims));
    ys.push_back(std::log(std::max(1e-6, objective)));
    if (!rec.failed &&
        (best_seconds_ <= 0.0 || rec.app_seconds < best_seconds_)) {
      best_seconds_ = rec.app_seconds;
      best_conf_ = conf;
    }
    trajectory_.push_back(best_seconds_);
    if (obs_.observer != nullptr) {
      core::EmitSimpleIteration(
          obs_.observer, tuner_name_, "bo",
          static_cast<int>(trajectory_.size()) - 1, datasize_gb,
          session->optimization_seconds() - meter_before, objective,
          best_seconds_, rec.full_app, failed_evals_);
    }
  };

  for (const auto& u : initial_units) evaluate(u);
  // Ensure at least two points before the first GP fit. Session errors
  // are deterministic (bad datasize / indices), so cap the attempts
  // instead of spinning.
  for (int guard = 0; xs.size() < 2 && guard < 64; ++guard) {
    evaluate(space.RandomValidUnit(rng_));
  }
  if (xs.size() < 2) return;

  // One model for the whole run, so each refit continues the EI-MCMC
  // chain of the previous one (see EiMcmc::Fit).
  ml::EiMcmc model(EnsembleOptions());
  int since_refit = kRefitPeriod;  // force initial fit
  const int remaining =
      options_.iterations - static_cast<int>(trajectory_.size());
  std::vector<math::Vector> pool(kCandidates);
  math::Matrix pool_free(kCandidates, free_dims.size());
  for (int it = 0; it < remaining; ++it) {
    if (since_refit >= kRefitPeriod) {
      const size_t n = std::min(xs.size(), kTrainingWindow);
      const size_t start = xs.size() - n;
      math::Matrix x(n, free_dims.size());
      math::Vector y(n);
      for (size_t i = 0; i < n; ++i) {
        x.SetRow(i, xs[start + i]);
        y[i] = ys[start + i];
      }
      if (!model.Fit(x, y, rng_).ok()) break;
      since_refit = 0;
    }
    // Candidate pool: random + perturbations of the incumbent, generated
    // whole (the RNG stream lives here) and then scored in one batch.
    const math::Vector best_unit = space.ToUnit(best_conf_);
    for (size_t c = 0; c < pool.size(); ++c) {
      math::Vector unit = base_unit;
      if (c % 3 == 0) {
        for (int d : free_dims) {
          unit[static_cast<size_t>(d)] = std::clamp(
              best_unit[static_cast<size_t>(d)] + rng_->Gaussian(0.0, 0.12),
              0.0, 1.0);
        }
      } else {
        for (int d : free_dims) {
          unit[static_cast<size_t>(d)] = rng_->NextDouble();
        }
      }
      pool[c] = space.ToUnit(space.Repair(space.FromUnit(unit)));
      pool_free.SetRow(c, FreeDims(pool[c], free_dims));
    }
    const math::Vector eis = model.AcquisitionValueBatch(pool_free);
    // Strict '>' in pool order: the first maximum wins.
    size_t winner = 0;
    double winner_ei = -1.0;
    for (size_t c = 0; c < pool.size(); ++c) {
      if (eis[c] > winner_ei) {
        winner_ei = eis[c];
        winner = c;
      }
    }
    evaluate(pool[winner]);
    ++since_refit;
  }
}

}  // namespace locat::tuners
