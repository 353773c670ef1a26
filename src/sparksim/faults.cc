#include "sparksim/faults.h"

#include <algorithm>
#include <cmath>

#include "sparksim/simulator.h"

namespace locat::sparksim {

FaultSpec FaultSpec::Off() { return FaultSpec{}; }

FaultSpec FaultSpec::Light(uint64_t seed) {
  FaultSpec s;
  s.level = FaultLevel::kLight;
  s.seed = seed;
  s.executor_loss_prob = 0.02;
  s.executor_loss_frac = 0.25;
  s.straggler_prob = 0.03;
  s.straggler_mult = 1.5;
  s.fetch_failure_prob = 0.02;
  s.kill_severity = 3.0;
  s.kill_prob = 0.3;
  return s;
}

FaultSpec FaultSpec::Heavy(uint64_t seed) {
  FaultSpec s;
  s.level = FaultLevel::kHeavy;
  s.seed = seed;
  s.executor_loss_prob = 0.10;
  s.executor_loss_frac = 0.5;
  s.straggler_prob = 0.10;
  s.straggler_mult = 2.5;
  s.fetch_failure_prob = 0.08;
  s.kill_severity = 1.2;
  s.kill_prob = 0.8;
  return s;
}

StatusOr<FaultSpec> FaultSpec::FromName(const std::string& name,
                                        uint64_t seed) {
  if (name == "off") return Off();
  if (name == "light") return Light(seed);
  if (name == "heavy") return Heavy(seed);
  return Status::InvalidArgument("unknown fault level '" + name +
                                 "' (expected off|light|heavy)");
}

void DrawRunFaults(Rng* rng, size_t num_queries, double* draws) {
  const size_t total = FaultDrawCount(num_queries);
  for (size_t i = 0; i < total; ++i) draws[i] = rng->NextDouble();
}

FaultOutcome ApplyRunFaults(const FaultSpec& spec, const double* draws,
                            int executors_requested, QueryMetrics* metrics,
                            size_t count) {
  FaultOutcome out;
  out.queries_run = count;
  if (!spec.enabled()) return out;

  // Run-level executor loss: from a deterministic point in the query
  // sequence onwards, capacity shrinks and lost tasks re-run on the
  // survivors, stretching runtime by roughly 1/(1-frac) plus a re-run tax.
  bool loss_event = draws[0] < spec.executor_loss_prob;
  double loss_factor = 1.0;
  size_t loss_from = count;
  if (loss_event && count > 0) {
    const double frac =
        std::clamp(draws[1] * spec.executor_loss_frac, 0.0, 0.9);
    loss_from = static_cast<size_t>(draws[2] * static_cast<double>(count));
    if (loss_from >= count) loss_from = count - 1;
    loss_factor = 1.0 / (1.0 - frac) * (1.0 + 0.3 * frac);
    out.lost_executors = std::max(
        1, static_cast<int>(std::lround(frac * std::max(1, executors_requested))));
    out.executor_losses = 1;
  }

  for (size_t i = 0; i < count; ++i) {
    const double* qd = draws + kFaultDrawsPerRun + kFaultDrawsPerQuery * i;
    QueryMetrics& m = metrics[i];

    if (loss_event && i >= loss_from) {
      m.exec_seconds *= loss_factor;
      m.scan_seconds *= loss_factor;
      m.shuffle_seconds *= loss_factor;
      m.gc_seconds *= loss_factor;
    }

    if (qd[2] < spec.fetch_failure_prob && m.shuffle_seconds > 0.0) {
      // Fetch failure: the wide stage is retried once.
      m.exec_seconds += m.shuffle_seconds;
      m.retries += 1;
      out.retries += 1;
      out.fetch_failures += 1;
    }

    if (qd[0] < spec.straggler_prob) {
      const double f = 1.0 + qd[1] * (spec.straggler_mult - 1.0);
      m.exec_seconds *= f;
      m.scan_seconds *= f;
      m.shuffle_seconds *= f;
      m.gc_seconds *= f;
      out.stragglers += 1;
    }

    if (m.oom_severity >= spec.kill_severity && qd[3] < spec.kill_prob) {
      m.failed = true;
      out.killed = true;
      out.killed_at = static_cast<int>(i);
      out.queries_run = i + 1;
      break;
    }
  }
  return out;
}

}  // namespace locat::sparksim
