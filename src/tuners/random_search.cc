#include <algorithm>

#include "tuners/baselines.h"

namespace locat::tuners {

std::vector<int> AllParamIndices() {
  std::vector<int> dims(sparksim::kNumParams);
  for (int i = 0; i < sparksim::kNumParams; ++i) dims[static_cast<size_t>(i)] = i;
  return dims;
}

RandomSearchTuner::RandomSearchTuner(Options options)
    : options_(options), rng_(options.seed), free_dims_(AllParamIndices()) {}

void RandomSearchTuner::SetFreeParams(const std::vector<int>& param_indices) {
  free_dims_ = param_indices;
}

core::TuningResult RandomSearchTuner::Tune(core::TuningSession* session,
                                           double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  const sparksim::ConfigSpace& space = session->space();
  // One unit buffer per tune: the free coordinates are redrawn on every
  // step, the others keep the repaired defaults.
  math::Vector unit = space.ToUnit(space.Repair(space.DefaultConf()));

  core::TuningResult result;
  result.tuner_name = name();
  obs::ScopedSpan tune_span(tracer(), "tune", "tuner");
  tune_span.Arg("tuner", result.tuner_name);
  double worst_seconds = 0.0;  // censored-cost anchor (successes only)
  for (int i = 0; i < options_.evaluations; ++i) {
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
      // Killed run: never the incumbent; report the censored cost.
      objective = core::CensoredObjective(worst_seconds, rec.app_seconds, 2.0);
      ++result.failed_evaluations;
    } else {
      worst_seconds = std::max(worst_seconds, rec.app_seconds);
      if (result.best_observed_seconds <= 0.0 ||
          rec.app_seconds < result.best_observed_seconds) {
        result.best_observed_seconds = rec.app_seconds;
        result.best_conf = conf;
      }
    }
    result.trajectory.push_back(result.best_observed_seconds);
    core::EmitSimpleIteration(observer(), result.tuner_name, "random", i,
                              datasize_gb,
                              session->optimization_seconds() - meter_before,
                              objective, result.best_observed_seconds,
                              rec.full_app, result.failed_evaluations);
  }
  result.optimization_seconds = session->optimization_seconds() - meter_start;
  result.evaluations = session->evaluations() - evals_start;
  return result;
}

}  // namespace locat::tuners
