#include <algorithm>
#include <cmath>
#include <map>

#include "tuners/baselines.h"

namespace locat::tuners {
namespace {

// Discretization levels per parameter (the action moves one level).
constexpr int kLevelsPerParam = 5;
// Exploration rate, Q-learning step size and discount.
constexpr double kEpsilon = 0.40;
constexpr double kAlpha = 0.25;
constexpr double kGamma = 0.6;

// Coarse workload feature: dominant query category of the application
// (QTune featurizes queries; this is the tabular analogue).
int WorkloadFeature(const sparksim::SparkSqlApp& app) {
  int counts[3] = {0, 0, 0};
  for (const auto& q : app.queries) {
    counts[static_cast<int>(q.category)]++;
  }
  return static_cast<int>(std::max_element(counts, counts + 3) - counts);
}

}  // namespace

QtuneTuner::QtuneTuner(Options options)
    : options_(options), rng_(options.seed), free_dims_(AllParamIndices()) {}

void QtuneTuner::SetFreeParams(const std::vector<int>& param_indices) {
  free_dims_ = param_indices;
}

core::TuningResult QtuneTuner::Tune(core::TuningSession* session,
                                    double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  const sparksim::ConfigSpace& space = session->space();

  // State: (workload feature, performance bucket); actions: (param, +/-).
  // The Q table maps state -> per-action value.
  const int num_actions = static_cast<int>(free_dims_.size()) * 2;
  std::map<int, std::vector<double>> q_table;
  const int wf = WorkloadFeature(session->app());

  core::TuningResult result;
  result.tuner_name = name();

  // Level assignment per free parameter, starting mid-range.
  std::vector<int> level(free_dims_.size(), kLevelsPerParam / 2);
  // One unit buffer per tune: the free coordinates are rewritten on every
  // step, the others keep the repaired defaults.
  math::Vector unit = space.ToUnit(space.Repair(space.DefaultConf()));
  auto conf_from_levels = [&]() {
    for (size_t j = 0; j < free_dims_.size(); ++j) {
      unit[static_cast<size_t>(free_dims_[j])] =
          (static_cast<double>(level[j]) + 0.5) / kLevelsPerParam;
    }
    return space.Repair(space.FromUnit(unit));
  };

  obs::ScopedSpan tune_span(tracer(), "qtune/episodes", "tuner");
  int qtune_iter = 0;
  bool last_failed = false;        // last charged_evaluate run died
  double worst_seconds = 0.0;      // censored-cost anchor (successes only)
  // Returns the objective the agent learns from: the measured runtime, or
  // the censored penalty when the run died (negative reward steers the
  // policy away). Returns -1 when the session itself errored.
  auto charged_evaluate = [&](const sparksim::SparkConf& conf) {
    const double meter_before = session->optimization_seconds();
    const StatusOr<core::EvalRecord> rec_or =
        session->Evaluate(conf, datasize_gb);
    if (!rec_or.ok()) {
      last_failed = true;
      return -1.0;
    }
    const core::EvalRecord& rec = *rec_or;
    last_failed = rec.failed;
    double objective = rec.app_seconds;
    if (rec.failed) {
      objective = core::CensoredObjective(worst_seconds, rec.app_seconds, 2.0);
      ++result.failed_evaluations;
    } else {
      worst_seconds = std::max(worst_seconds, rec.app_seconds);
    }
    const double incumbent =
        (!rec.failed && (result.best_observed_seconds <= 0.0 ||
                         objective < result.best_observed_seconds))
            ? objective
            : result.best_observed_seconds;
    core::EmitSimpleIteration(
        observer(), result.tuner_name, "episode", qtune_iter++, datasize_gb,
        session->optimization_seconds() - meter_before, objective,
        incumbent, rec.full_app, result.failed_evaluations);
    return objective;
  };

  double reference_seconds = 0.0;  // first observation sets the scale
  for (int ep = 0; ep < options_.episodes; ++ep) {
    // Episodes restart from a random level assignment (exploration across
    // the space, as DRL restarts from workload states).
    for (size_t j = 0; j < level.size(); ++j) {
      level[j] = static_cast<int>(rng_.UniformInt(0, kLevelsPerParam - 1));
    }
    const sparksim::SparkConf start_conf = conf_from_levels();
    double prev_seconds = charged_evaluate(start_conf);
    if (prev_seconds < 0.0) break;  // session error — deterministic
    if (reference_seconds <= 0.0) reference_seconds = prev_seconds;
    if (!last_failed && (result.best_observed_seconds <= 0.0 ||
                         prev_seconds < result.best_observed_seconds)) {
      result.best_observed_seconds = prev_seconds;
      result.best_conf = start_conf;
    }
    result.trajectory.push_back(result.best_observed_seconds);

    for (int step = 0; step + 1 < options_.steps_per_episode; ++step) {
      // State bucket: log-ratio of current runtime to the reference.
      const int bucket = std::clamp(
          static_cast<int>(std::log2(prev_seconds / reference_seconds) * 2) +
              4,
          0, 8);
      const int state = wf * 16 + bucket;
      auto& qvals = q_table[state];
      if (qvals.empty()) qvals.assign(static_cast<size_t>(num_actions), 0.0);

      int action;
      if (rng_.Bernoulli(kEpsilon)) {
        action = static_cast<int>(rng_.UniformInt(0, num_actions - 1));
      } else {
        action = static_cast<int>(
            std::max_element(qvals.begin(), qvals.end()) - qvals.begin());
      }
      const size_t pidx = static_cast<size_t>(action / 2);
      const int direction = (action % 2 == 0) ? 1 : -1;
      level[pidx] = std::clamp(level[pidx] + direction, 0, kLevelsPerParam - 1);

      const sparksim::SparkConf conf = conf_from_levels();
      const double now_seconds = charged_evaluate(conf);
      if (now_seconds < 0.0) break;  // session error — deterministic
      const double reward = std::log(prev_seconds / now_seconds);

      // Q-learning update against the next state's best value.
      const int nbucket = std::clamp(
          static_cast<int>(std::log2(now_seconds / reference_seconds) * 2) +
              4,
          0, 8);
      auto& next_q = q_table[wf * 16 + nbucket];
      if (next_q.empty()) next_q.assign(static_cast<size_t>(num_actions), 0.0);
      const double next_best =
          *std::max_element(next_q.begin(), next_q.end());
      qvals[static_cast<size_t>(action)] +=
          kAlpha * (reward + kGamma * next_best -
                            qvals[static_cast<size_t>(action)]);

      prev_seconds = now_seconds;
      if (!last_failed && (result.best_observed_seconds <= 0.0 ||
                           now_seconds < result.best_observed_seconds)) {
        result.best_observed_seconds = now_seconds;
        result.best_conf = conf;
      }
      result.trajectory.push_back(result.best_observed_seconds);
    }
  }

  result.optimization_seconds = session->optimization_seconds() - meter_start;
  result.evaluations = session->evaluations() - evals_start;
  return result;
}

std::unique_ptr<core::Tuner> MakeBaseline(const std::string& name,
                                          uint64_t seed_salt) {
  if (name == "Tuneful") {
    TunefulTuner::Options o;
    o.seed += seed_salt;
    return std::make_unique<TunefulTuner>(o);
  }
  if (name == "DAC") {
    DacTuner::Options o;
    o.seed += seed_salt;
    return std::make_unique<DacTuner>(o);
  }
  if (name == "GBO-RL") {
    GboRlTuner::Options o;
    o.seed += seed_salt;
    return std::make_unique<GboRlTuner>(o);
  }
  if (name == "QTune") {
    QtuneTuner::Options o;
    o.seed += seed_salt;
    return std::make_unique<QtuneTuner>(o);
  }
  RandomSearchTuner::Options o;
  o.seed += seed_salt;
  return std::make_unique<RandomSearchTuner>(o);
}

}  // namespace locat::tuners
