#include <algorithm>
#include <cmath>

#include "ml/gbrt.h"
#include "tuners/baselines.h"

namespace locat::tuners {
namespace {

// Per-coordinate mutation probability of the genetic search.
constexpr double kGaMutation = 0.15;

// Tournament selection for the genetic search.
size_t Tournament(const std::vector<double>& fitness, Rng* rng) {
  const size_t a = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(fitness.size()) - 1));
  const size_t b = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(fitness.size()) - 1));
  return fitness[a] < fitness[b] ? a : b;  // minimizing predicted time
}

}  // namespace

DacTuner::DacTuner(Options options)
    : options_(options), rng_(options.seed), free_dims_(AllParamIndices()) {}

void DacTuner::SetFreeParams(const std::vector<int>& param_indices) {
  free_dims_ = param_indices;
}

core::TuningResult DacTuner::Tune(core::TuningSession* session,
                                  double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  const sparksim::ConfigSpace& space = session->space();
  const math::Vector base_unit =
      space.ToUnit(space.Repair(space.DefaultConf()));

  core::TuningResult result;
  result.tuner_name = name();

  // --- Phase 1: collect the training set with random configurations.
  // (DAC's defining cost: it needs enough samples for an accurate
  // datasize-aware model.)
  std::vector<math::Vector> units;
  std::vector<double> seconds;
  double worst_seconds = 0.0;  // censored-cost anchor (successes only)
  {
    obs::ScopedSpan span(tracer(), "dac/sample", "tuner");
    for (int i = 0; i < options_.training_samples; ++i) {
      math::Vector unit = base_unit;
      for (int d : free_dims_) {
        unit[static_cast<size_t>(d)] = rng_.NextDouble();
      }
      const sparksim::SparkConf conf = space.Repair(space.FromUnit(unit));
      const double meter_before = session->optimization_seconds();
      const StatusOr<core::EvalRecord> rec_or =
          session->Evaluate(conf, datasize_gb);
      if (!rec_or.ok()) continue;
      const core::EvalRecord& rec = *rec_or;
      double objective = rec.app_seconds;
      if (rec.failed) {
        // Killed run: trains the model with the censored penalty, never
        // the incumbent.
        objective =
            core::CensoredObjective(worst_seconds, rec.app_seconds, 2.0);
        ++result.failed_evaluations;
      } else {
        worst_seconds = std::max(worst_seconds, rec.app_seconds);
        if (result.best_observed_seconds <= 0.0 ||
            rec.app_seconds < result.best_observed_seconds) {
          result.best_observed_seconds = rec.app_seconds;
          result.best_conf = conf;
        }
      }
      units.push_back(space.ToUnit(conf));
      seconds.push_back(objective);
      result.trajectory.push_back(result.best_observed_seconds);
      core::EmitSimpleIteration(
          observer(), result.tuner_name, "sample", i, datasize_gb,
          session->optimization_seconds() - meter_before, objective,
          result.best_observed_seconds, rec.full_app,
          result.failed_evaluations);
    }
  }
  if (units.size() < 2) {
    result.optimization_seconds =
        session->optimization_seconds() - meter_start;
    result.evaluations = session->evaluations() - evals_start;
    return result;
  }

  std::vector<math::Vector> population;
  std::vector<double> fitness;
  {
    // --- Phase 2: fit the GBRT performance model on (free dims -> log t).
    obs::ScopedSpan model_span(tracer(), "dac/model+ga", "tuner");
    math::Matrix x(units.size(), free_dims_.size());
    math::Vector y(units.size());
    for (size_t i = 0; i < units.size(); ++i) {
      for (size_t j = 0; j < free_dims_.size(); ++j) {
        x(i, j) = units[i][static_cast<size_t>(free_dims_[j])];
      }
      y[i] = std::log(std::max(1e-6, seconds[i]));
    }
    // DAC's published model reports >15% relative error (Figure 16); a
    // deliberately shallow ensemble reproduces that accuracy envelope.
    ml::Gbrt::Options gopts;
    gopts.num_trees = 60;
    gopts.tree.max_depth = 3;
    ml::Gbrt model(gopts);
    if (!model.Fit(x, y).ok()) {
      result.optimization_seconds =
          session->optimization_seconds() - meter_start;
      result.evaluations = session->evaluations() - evals_start;
      return result;
    }

    // --- Phase 3: genetic search over the model.
    for (int i = 0; i < options_.ga_population; ++i) {
      math::Vector ind(free_dims_.size());
      for (size_t j = 0; j < ind.size(); ++j) ind[j] = rng_.NextDouble();
      population.push_back(std::move(ind));
    }
    auto fitness_of = [&](const math::Vector& ind) {
      return model.Predict(ind);
    };
    fitness.resize(population.size());
    for (size_t i = 0; i < population.size(); ++i) {
      fitness[i] = fitness_of(population[i]);
    }
    for (int gen = 0; gen < options_.ga_generations; ++gen) {
      std::vector<math::Vector> next;
      next.reserve(population.size());
      // Elitism: carry the best individual over unchanged.
      const size_t best_idx = static_cast<size_t>(
          std::min_element(fitness.begin(), fitness.end()) -
          fitness.begin());
      next.push_back(population[best_idx]);
      while (next.size() < population.size()) {
        const math::Vector& pa = population[Tournament(fitness, &rng_)];
        const math::Vector& pb = population[Tournament(fitness, &rng_)];
        math::Vector child(pa.size());
        for (size_t j = 0; j < child.size(); ++j) {
          child[j] = rng_.Bernoulli(0.5) ? pa[j] : pb[j];
          if (rng_.Bernoulli(kGaMutation)) {
            child[j] =
                std::clamp(child[j] + rng_.Gaussian(0.0, 0.15), 0.0, 1.0);
          }
        }
        next.push_back(std::move(child));
      }
      population = std::move(next);
      for (size_t i = 0; i < population.size(); ++i) {
        fitness[i] = fitness_of(population[i]);
      }
    }
    model_span.Arg("training_samples", static_cast<double>(units.size()));
    model_span.Arg("generations", static_cast<double>(options_.ga_generations));
  }

  // --- Phase 4: validate the model's top candidates on the cluster.
  std::vector<size_t> order(population.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return fitness[a] < fitness[b]; });
  // DAC's output is the model's recommendation (the GA optimum), validated
  // on the cluster — not the minimum of the random training sample. The
  // model's accuracy is therefore the method's quality ceiling.
  const int validations =
      std::min<int>(options_.validation_runs,
                    static_cast<int>(population.size()));
  obs::ScopedSpan validate_span(tracer(), "dac/validate", "tuner");
  double best_validated = 0.0;
  for (int v = 0; v < validations; ++v) {
    math::Vector unit = base_unit;
    const math::Vector& ind = population[order[static_cast<size_t>(v)]];
    for (size_t j = 0; j < free_dims_.size(); ++j) {
      unit[static_cast<size_t>(free_dims_[j])] = ind[j];
    }
    const sparksim::SparkConf conf = space.Repair(space.FromUnit(unit));
    const double meter_before = session->optimization_seconds();
    const StatusOr<core::EvalRecord> rec_or =
        session->Evaluate(conf, datasize_gb);
    if (!rec_or.ok()) continue;
    const core::EvalRecord& rec = *rec_or;
    double objective = rec.app_seconds;
    if (rec.failed) {
      objective = core::CensoredObjective(worst_seconds, rec.app_seconds, 2.0);
      ++result.failed_evaluations;
    } else if (best_validated <= 0.0 || rec.app_seconds < best_validated) {
      best_validated = rec.app_seconds;
      result.best_conf = conf;
      result.best_observed_seconds = rec.app_seconds;
    }
    result.trajectory.push_back(result.best_observed_seconds);
    core::EmitSimpleIteration(
        observer(), result.tuner_name, "validate", v, datasize_gb,
        session->optimization_seconds() - meter_before, objective,
        result.best_observed_seconds, rec.full_app,
        result.failed_evaluations);
  }

  result.optimization_seconds = session->optimization_seconds() - meter_start;
  result.evaluations = session->evaluations() - evals_start;
  return result;
}

}  // namespace locat::tuners
