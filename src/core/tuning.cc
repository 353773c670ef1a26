#include "core/tuning.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace locat::core {

TuningSession::TuningSession(sparksim::ClusterSimulator* simulator,
                             const sparksim::SparkSqlApp& app)
    : simulator_(simulator),
      app_(app),
      space_(simulator->cluster()),
      all_queries_(static_cast<size_t>(app_.num_queries())) {
  for (size_t i = 0; i < all_queries_.size(); ++i) {
    all_queries_[i] = static_cast<int>(i);
  }
}

const sparksim::AppSizeTerms& TuningSession::SizedFor(double datasize_gb) {
  if (std::bit_cast<uint64_t>(size_terms_.datasize_gb()) !=
      std::bit_cast<uint64_t>(datasize_gb)) {
    size_terms_ = simulator_->DeriveSizeTerms(app_, datasize_gb);
  }
  return size_terms_;
}

StatusOr<EvalRecord> TuningSession::Evaluate(const sparksim::SparkConf& conf,
                                             double datasize_gb) {
  return EvaluateSubset(conf, datasize_gb,
                        restriction_.empty() ? all_queries_ : restriction_);
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
      simulator_->RunAppSubset(app_, SizedFor(datasize_gb), query_indices,
                               conf);
  if (!run_or.ok()) return run_or.status();
  sparksim::AppRunResult& run = *run_or;
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

  optimization_seconds_ += run.total_seconds;
  ++evaluations_;
  return EvalRecord{
      run.total_seconds,
      static_cast<int>(query_indices.size()) == app_.num_queries(),
      run.failed, std::move(run.fail_reason), std::move(run.per_query)};
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
  return simulator_->RunApp(app_, SizedFor(datasize_gb), conf);
}

double CensoredObjective(double worst_seen_seconds, double partial_seconds,
                         double margin) {
  const double base = std::max(worst_seen_seconds, partial_seconds);
  return (base > 0.0 ? base : 1.0) * margin;
}

void EmitSimpleIteration(obs::Sink* observer, const std::string& tuner,
                         const char* phase, int iteration, double datasize_gb,
                         double eval_seconds, double objective,
                         double incumbent, bool full_app, int failed_evals) {
  if (observer == nullptr) return;
  observer->Emit(obs::Event("iteration", tuner, phase,
                            {{"iter", iteration},
                             {"datasize_gb", datasize_gb},
                             {"eval_seconds", eval_seconds},
                             {"objective_seconds", objective},
                             {"incumbent_seconds", incumbent},
                             {"relative_ei", 0.0},
                             {"candidate_pool", 0},
                             {"full_app", full_app},
                             {"dagp_fit_seconds", 0.0},
                             {"acq_seconds", 0.0},
                             {"mcmc_ensemble", 0},
                             {"mcmc_density_evals", 0},
                             {"mcmc_acceptance", 0.0},
                             {"rqa_share", 0.0},
                             {"rqa_queries", 0},
                             {"failed_evals", failed_evals},
                             {"pred_log_mean", 0.0},
                             {"pred_log_sd", 0.0}}));
}

}  // namespace locat::core
