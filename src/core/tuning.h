#ifndef LOCAT_CORE_TUNING_H_
#define LOCAT_CORE_TUNING_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/telemetry.h"
#include "sparksim/config.h"
#include "sparksim/query_profile.h"
#include "sparksim/simulator.h"

namespace locat::core {

/// What a charged evaluation returns: the run's per-query metrics, moved
/// out of the simulator's result, plus the objective. The session keeps
/// no copy (DESIGN.md "What a charged evaluation returns").
struct EvalRecord {
  double app_seconds = 0.0;     // objective actually measured (full or RQA)
  bool full_app = true;         // false when only a query subset ran
  /// Fault-injection outcome: a failed record's app_seconds is the
  /// *partial* time up to the kill (still charged to the meter — a dead
  /// run is not free) and per_query covers only what ran.
  bool failed = false;
  std::string fail_reason;
  /// One entry per query that ran, in the order of the run's query list;
  /// names view into the session's app.
  std::vector<sparksim::QueryMetrics> per_query;
};

/// Accounting wrapper every tuner evaluates configurations through.
///
/// It runs configurations on the simulator, charges their *simulated*
/// wall-clock to the optimization-time meter (this is the "optimization
/// time" every figure reports), and counts the evaluations. It keeps no
/// per-evaluation state: what a run measured goes back to the caller.
class TuningSession {
 public:
  TuningSession(sparksim::ClusterSimulator* simulator,
                const sparksim::SparkSqlApp& app);

  /// Runs the full application; charged to the optimization-time meter.
  /// Errors (bad datasize, bad indices) come back as a Status; a
  /// fault-injected app kill is ok() with record.failed set — the partial
  /// runtime is still charged, and tuners impute a censored cost.
  StatusOr<EvalRecord> Evaluate(const sparksim::SparkConf& conf,
                                double datasize_gb);

  /// Runs only the listed query indices (the RQA path); charged at the
  /// reduced cost, which is where QCSA's savings come from.
  StatusOr<EvalRecord> EvaluateSubset(const sparksim::SparkConf& conf,
                                      double datasize_gb,
                                      const std::vector<int>& query_indices);

  /// Runs the full application *without* charging optimization time; used
  /// by the harness to measure the quality of a final configuration.
  sparksim::AppRunResult MeasureFinal(const sparksim::SparkConf& conf,
                                      double datasize_gb);

  const sparksim::SparkSqlApp& app() const { return app_; }
  const sparksim::ConfigSpace& space() const { return space_; }
  sparksim::ClusterSimulator* simulator() { return simulator_; }

  /// Simulated seconds spent on all charged evaluations so far.
  double optimization_seconds() const { return optimization_seconds_; }
  int evaluations() const { return evaluations_; }

  /// Charges extra simulated seconds to the optimization-time meter
  /// without an evaluation — retry backoff after a failed run is billed
  /// through here so wasted wall clock shows up in the reported
  /// optimization time.
  void ChargePenaltySeconds(double seconds);

  /// Restricts Evaluate() to the given query subset — used by the
  /// QCSA-on-SOTA frontend (Section 5.10) so baseline tuners transparently
  /// run the RQA. EvaluateSubset and MeasureFinal are unaffected.
  void RestrictToQueries(std::vector<int> query_indices);
  void ClearQueryRestriction();
  bool restricted() const { return !restriction_.empty(); }

  /// Wires tracing/metrics sinks (any member may be null). Charged
  /// evaluations become "session/evaluate" spans and feed the
  /// locat_evaluations_total / locat_optimization_seconds_total counters.
  /// Purely observational — never alters evaluation results.
  void SetObservability(const obs::ObsContext& obs);
  const obs::ObsContext& obs() const { return obs_; }

 private:
  const sparksim::AppSizeTerms& SizedFor(double datasize_gb);

  sparksim::ClusterSimulator* simulator_;
  sparksim::SparkSqlApp app_;
  sparksim::ConfigSpace space_;
  std::vector<int> all_queries_;  // 0..num_queries-1, what Evaluate runs
  /// The app's (query, data size) cost-model terms on simulator_, for the
  /// data size of the last run; SizedFor rebuilds them when a run's size
  /// has other bits (the empty terms a session starts with are for size
  /// 0, which no valid run has). The session owns its app and is bound
  /// to one simulator, so the terms can never belong to another app.
  sparksim::AppSizeTerms size_terms_;
  std::vector<int> restriction_;
  double optimization_seconds_ = 0.0;
  int evaluations_ = 0;
  obs::ObsContext obs_;
  obs::Counter* evals_counter_ = nullptr;
  obs::Counter* opt_seconds_counter_ = nullptr;
  obs::Counter* eval_failures_counter_ = nullptr;
  obs::Histogram* eval_seconds_hist_ = nullptr;
};

/// Censored-cost imputation for a failed evaluation: the run died, so its
/// true cost is unknown but at least the partial time observed and at
/// least as bad as the worst completed run; the margin pushes the
/// surrogate away from the region. Returns margin when nothing has been
/// observed yet (both inputs non-positive).
double CensoredObjective(double worst_seen_seconds, double partial_seconds,
                         double margin);

/// Builds and sends an "iteration" event with LOCAT's keys, the model
/// fields at 0 — the shared emit path for tuners without model-specific
/// telemetry (the baselines). No-op when `observer` is null: the event is
/// not even built, so disabled telemetry allocates nothing.
void EmitSimpleIteration(obs::Sink* observer,
                         const std::string& tuner, const char* phase,
                         int iteration, double datasize_gb,
                         double eval_seconds, double objective,
                         double incumbent, bool full_app,
                         int failed_evals = 0);

/// Outcome of one tuning run.
struct TuningResult {
  std::string tuner_name;
  sparksim::SparkConf best_conf;
  /// Objective value of best_conf as observed during tuning (full app or
  /// RQA, depending on the tuner's final phase).
  double best_observed_seconds = 0.0;
  /// Simulated time the whole optimization procedure consumed.
  double optimization_seconds = 0.0;
  int evaluations = 0;
  /// Evaluations that ended in a fault-injected failure (after retries).
  /// Baselines that don't track failures leave this 0.
  int failed_evaluations = 0;
  /// Best-so-far observed objective after each evaluation.
  std::vector<double> trajectory;
};

/// Interface every tuner (LOCAT and the four baselines) implements.
///
/// Tuners may keep state across calls — LOCAT's DAGP deliberately reuses
/// its Gaussian process when Tune is called again with a different data
/// size, which is the paper's online data-size adaptation.
class Tuner {
 public:
  virtual ~Tuner() = default;

  virtual std::string name() const = 0;

  /// Finds a good configuration for the session's application at the
  /// given input data size.
  virtual TuningResult Tune(TuningSession* session, double datasize_gb) = 0;

  /// Restricts the search to the given parameter indices (others stay at
  /// their Table 2 defaults). Default implementation ignores the hint;
  /// baseline tuners honor it so IICP can be retrofitted onto them
  /// (Section 5.10).
  virtual void SetFreeParams(const std::vector<int>& /*param_indices*/) {}

  /// Wires observability sinks into the tuner. Overrides must call the
  /// base and forward the context to owned sub-components. The null
  /// context (the default) must leave tuner output byte-identical: no
  /// extra RNG draws, no behavioral branches.
  virtual void SetObservability(const obs::ObsContext& obs) { obs_ = obs; }

 protected:
  obs::Sink* observer() const { return obs_.observer; }
  obs::Tracer* tracer() const { return obs_.tracer; }
  obs::MetricsRegistry* metrics() const { return obs_.metrics; }

  obs::ObsContext obs_;
};

}  // namespace locat::core

#endif  // LOCAT_CORE_TUNING_H_
