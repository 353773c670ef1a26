#include "core/tuning.h"

#include <algorithm>

namespace locat::core {

TuningSession::TuningSession(sparksim::ClusterSimulator* simulator,
                             const sparksim::SparkSqlApp& app)
    : simulator_(simulator), app_(app), space_(simulator->cluster()) {}

StatusOr<EvalRecord> TuningSession::Evaluate(const sparksim::SparkConf& conf,
                                             double datasize_gb) {
  if (!restriction_.empty()) {
    return EvaluateSubset(conf, datasize_gb, restriction_);
  }
  std::vector<int> all(static_cast<size_t>(app_.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return EvaluateSubset(conf, datasize_gb, all);
}

void TuningSession::RestrictToQueries(std::vector<int> query_indices) {
  restriction_ = std::move(query_indices);
}

void TuningSession::SetObservability(const obs::ObsContext& obs) {
  obs_ = obs;
  if (obs_.metrics != nullptr) {
    evals_counter_ = obs_.metrics->GetCounter(
        "locat_evaluations_total",
        "Configuration evaluations charged to the optimization-time meter");
    opt_seconds_counter_ = obs_.metrics->GetCounter(
        "locat_optimization_seconds_total",
        "Simulated seconds charged to the optimization-time meter");
    eval_failures_counter_ = obs_.metrics->GetCounter(
        "locat_evaluation_failures_total",
        "Charged evaluations that ended in a fault-injected failure");
    eval_seconds_hist_ = obs_.metrics->GetHistogram(
        "locat_evaluation_seconds",
        "Simulated seconds per charged configuration evaluation",
        {10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0});
  } else {
    evals_counter_ = nullptr;
    opt_seconds_counter_ = nullptr;
    eval_failures_counter_ = nullptr;
    eval_seconds_hist_ = nullptr;
  }
}

void TuningSession::ClearQueryRestriction() { restriction_.clear(); }

StatusOr<EvalRecord> TuningSession::EvaluateSubset(
    const sparksim::SparkConf& conf, double datasize_gb,
    const std::vector<int>& query_indices) {
  obs::ScopedSpan span(obs_.tracer, "session/evaluate", "session");
  StatusOr<sparksim::AppRunResult> run_or =
      simulator_->RunAppSubset(app_, query_indices, conf, datasize_gb);
  if (!run_or.ok()) return run_or.status();
  const sparksim::AppRunResult& run = *run_or;
  span.Arg("queries", static_cast<double>(query_indices.size()));
  span.Arg("datasize_gb", datasize_gb);
  span.Arg("simulated_seconds", run.total_seconds);
  span.Arg("oom", run.any_oom ? 1.0 : 0.0);
  if (run.failed) span.Arg("failed", 1.0);

  if (evals_counter_ != nullptr) evals_counter_->Increment();
  if (opt_seconds_counter_ != nullptr) {
    opt_seconds_counter_->Increment(run.total_seconds);
  }
  if (eval_failures_counter_ != nullptr && run.failed) {
    eval_failures_counter_->Increment();
  }
  if (eval_seconds_hist_ != nullptr) {
    eval_seconds_hist_->Observe(run.total_seconds);
  }

  EvalRecord rec;
  rec.conf = conf;
  rec.unit = space_.ToUnit(conf);
  rec.datasize_gb = datasize_gb;
  rec.app_seconds = run.total_seconds;
  rec.full_app =
      static_cast<int>(query_indices.size()) == app_.num_queries();
  rec.query_indices = query_indices;
  rec.per_query_seconds.reserve(run.per_query.size());
  for (const auto& q : run.per_query) {
    rec.per_query_seconds.push_back(q.exec_seconds);
  }
  rec.gc_seconds = run.gc_seconds;
  rec.any_oom = run.any_oom;
  rec.failed = run.failed;
  rec.fail_reason = run.fail_reason;
  rec.retries = run.retries;
  rec.lost_executors = run.lost_executors;

  optimization_seconds_ += run.total_seconds;
  history_.push_back(rec);
  return rec;
}

void TuningSession::ChargePenaltySeconds(double seconds) {
  if (seconds <= 0.0) return;
  optimization_seconds_ += seconds;
  if (opt_seconds_counter_ != nullptr) {
    opt_seconds_counter_->Increment(seconds);
  }
}

sparksim::AppRunResult TuningSession::MeasureFinal(
    const sparksim::SparkConf& conf, double datasize_gb) {
  return simulator_->RunApp(app_, conf, datasize_gb);
}

void TuningSession::Reset() {
  history_.clear();
  optimization_seconds_ = 0.0;
}

double CensoredObjective(double worst_seen_seconds, double partial_seconds,
                         double margin) {
  const double base = std::max(worst_seen_seconds, partial_seconds);
  return (base > 0.0 ? base : 1.0) * margin;
}

void EmitSimpleIteration(obs::TunerObserver* observer,
                         const std::string& tuner, const char* phase,
                         int iteration, double datasize_gb,
                         double eval_seconds, double objective,
                         double incumbent, bool full_app,
                         int failed_evals) {
  if (observer == nullptr) return;
  obs::BoIterationEvent ev;
  ev.tuner = tuner;
  ev.phase = phase;
  ev.iteration = iteration;
  ev.datasize_gb = datasize_gb;
  ev.eval_seconds = eval_seconds;
  ev.objective_seconds = objective;
  ev.incumbent_seconds = incumbent;
  ev.full_app = full_app;
  ev.failed_evals = failed_evals;
  observer->OnIteration(ev);
}

}  // namespace locat::core
