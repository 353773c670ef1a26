#ifndef LOCAT_OBS_TELEMETRY_H_
#define LOCAT_OBS_TELEMETRY_H_

#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace locat::obs {

/// Structured record of one charged configuration evaluation inside a BO
/// loop — the per-iteration telemetry every tuner emits when an observer
/// is wired. Events from LOCAT carry the full DAGP/MCMC detail; baseline
/// tuners fill what applies and leave the rest at defaults.
struct BoIterationEvent {
  std::string tuner;           // e.g. "LOCAT", "Tuneful"
  std::string phase;           // "lhs"|"qcsa"|"reduced"|"warm"|"recommend"|...
  int iteration = 0;           // evaluation index within the tune pass
  double datasize_gb = 0.0;
  double eval_seconds = 0.0;   // simulated seconds charged to the meter
  double objective_seconds = 0.0;  // objective value of this evaluation
  double incumbent_seconds = 0.0;  // best objective after this evaluation
  double relative_ei = 0.0;    // of the chosen candidate (0 when no model)
  int candidate_pool = 0;      // unique EI candidates scored for this proposal
  bool full_app = true;        // full application vs RQA subset
  double dagp_fit_seconds = 0.0;   // wall seconds of the preceding refit
  double acq_seconds = 0.0;        // wall seconds scoring candidates for
                                   // this proposal (incumbent scan + EI);
                                   // with dagp_fit_seconds this splits the
                                   // per-iteration optimization overhead
                                   // into surrogate-fit vs acquisition
  int mcmc_ensemble = 0;           // fitted GPs in the EI-MCMC ensemble
  int64_t mcmc_density_evals = 0;  // posterior evaluations in that refit
  double mcmc_acceptance = 0.0;    // slice-sampler proposal acceptance rate
  double rqa_share = 0.0;      // estimated RQA/full-app time ratio
  int rqa_queries = 0;         // queries in the reduced application
  int failed_evals = 0;        // cumulative failed evaluations so far
};

/// Phase-level record (analysis results, summaries): a named phase plus a
/// flat bag of numeric fields, e.g. {"csq":33,"ciq":71} for QCSA.
struct PhaseEvent {
  std::string tuner;
  std::string phase;  // "qcsa" | "iicp" | "summary" | ...
  std::vector<std::pair<std::string, double>> fields;
};

/// Hook interface for per-iteration BO telemetry. A null observer (the
/// default everywhere) means telemetry is off; emitters must check for
/// null *before* building events so the disabled path allocates nothing.
class TunerObserver {
 public:
  virtual ~TunerObserver() = default;
  virtual void OnIteration(const BoIterationEvent& event) = 0;
  virtual void OnPhase(const PhaseEvent& event) = 0;
};

/// Writes one JSON object per event to a stream (JSONL). The stream must
/// outlive the observer.
class JsonlObserver : public TunerObserver {
 public:
  explicit JsonlObserver(std::ostream* os) : os_(os) {}

  void OnIteration(const BoIterationEvent& event) override;
  void OnPhase(const PhaseEvent& event) override;

 private:
  std::ostream* os_;
};

/// In-memory observer for tests: keeps every event.
class CollectingObserver : public TunerObserver {
 public:
  void OnIteration(const BoIterationEvent& event) override {
    iterations.push_back(event);
  }
  void OnPhase(const PhaseEvent& event) override { phases.push_back(event); }

  std::vector<BoIterationEvent> iterations;
  std::vector<PhaseEvent> phases;
};

/// One reparsed telemetry line: "type" plus flat string/number fields.
struct TelemetryRecord {
  std::string type;  // "iteration" | "phase"
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;  // bools parse as 0/1

  double Num(const std::string& key, double fallback = 0.0) const {
    const auto it = numbers.find(key);
    return it != numbers.end() ? it->second : fallback;
  }
  std::string Str(const std::string& key) const {
    const auto it = strings.find(key);
    return it != strings.end() ? it->second : std::string();
  }
};

/// Parses JSONL produced by JsonlObserver (flat one-level objects).
/// Returns InvalidArgument on a malformed line; empty lines are skipped.
StatusOr<std::vector<TelemetryRecord>> ParseTelemetry(const std::string& text);

/// Bundle of observability sinks threaded through the stack. All pointers
/// are borrowed and may independently be null; a default-constructed
/// context disables everything.
struct ObsContext {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  TunerObserver* observer = nullptr;

  bool any() const {
    return tracer != nullptr || metrics != nullptr || observer != nullptr;
  }
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_TELEMETRY_H_
