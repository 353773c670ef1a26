#ifndef LOCAT_SPARKSIM_FAULTS_H_
#define LOCAT_SPARKSIM_FAULTS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace locat::sparksim {

struct QueryMetrics;

/// Which fault intensity a simulator injects. The presets mirror what the
/// paper's physical clusters actually exhibit: occasional executor/Yarn
/// kills ("light") up to a misbehaving busy cluster ("heavy").
enum class FaultLevel { kOff = 0, kLight = 1, kHeavy = 2 };

/// Seedable description of a deterministic fault-injection plan. The spec
/// is *static* — it fixes probabilities and magnitudes; the per-run fault
/// schedule is drawn from a dedicated RNG stream (seeded by `seed`) in
/// strict run order, so the same spec + seed reproduces the same faults
/// for any thread count.
struct FaultSpec {
  FaultLevel level = FaultLevel::kOff;
  /// Seed of the fault stream (independent of the simulator noise seed so
  /// enabling faults never perturbs the noise draws).
  uint64_t seed = 0;

  /// Per-run probability that the cluster loses executors mid-run. The
  /// shrunken capacity slows every query from a deterministic loss point
  /// onwards (lost tasks re-run on the survivors).
  double executor_loss_prob = 0.0;
  /// Maximum fraction of requested executors lost in one event.
  double executor_loss_frac = 0.0;
  /// Per-query probability of a straggler wave (a slow node stretches the
  /// whole query by up to `straggler_mult`).
  double straggler_prob = 0.0;
  double straggler_mult = 1.0;
  /// Per-query probability of a fetch failure: the wide stage re-runs
  /// once (Spark's stage retry).
  double fetch_failure_prob = 0.0;
  /// Hard app kill: a query whose OOM severity (demand/threshold
  /// overshoot, see QueryMetrics::oom_severity) reaches this bound kills
  /// the whole application with probability `kill_prob`. Queries after
  /// the kill never run.
  double kill_severity = std::numeric_limits<double>::infinity();
  double kill_prob = 0.0;

  bool enabled() const { return level != FaultLevel::kOff; }

  static FaultSpec Off();
  static FaultSpec Light(uint64_t seed);
  static FaultSpec Heavy(uint64_t seed);
  /// Parses "off" | "light" | "heavy" (InvalidArgument otherwise).
  static StatusOr<FaultSpec> FromName(const std::string& name, uint64_t seed);
};

/// Cumulative fault-event counters of one simulator (exported as
/// locat_sim_faults_* metrics by the CLI).
struct FaultStats {
  uint64_t executor_losses = 0;
  uint64_t stragglers = 0;
  uint64_t fetch_failures = 0;
  uint64_t app_kills = 0;
  uint64_t failed_runs = 0;  // runs that ended killed
};

/// Fixed number of uniform draws one run consumes: 3 run-level draws
/// (loss event, loss magnitude, loss point) plus 4 per query (straggler
/// event, straggler magnitude, fetch failure, kill). The count never
/// depends on outcomes, so the fault RNG stream is identical across
/// thread counts.
constexpr size_t kFaultDrawsPerRun = 3;
constexpr size_t kFaultDrawsPerQuery = 4;
constexpr size_t FaultDrawCount(size_t num_queries) {
  return kFaultDrawsPerRun + kFaultDrawsPerQuery * num_queries;
}

/// Fills draws[0 .. FaultDrawCount(num_queries)) from `rng` in the
/// canonical order above.
void DrawRunFaults(Rng* rng, size_t num_queries, double* draws);

/// Outcome of one run's fault schedule.
struct FaultOutcome {
  size_t queries_run = 0;  // < count when the app was killed
  bool killed = false;
  int killed_at = -1;      // index into the run's query list
  int lost_executors = 0;
  int retries = 0;         // stage retries across all queries
  uint64_t executor_losses = 0;
  uint64_t stragglers = 0;
  uint64_t fetch_failures = 0;
};

/// Applies the schedule to `metrics[0..count)` in place (after noise):
/// executor-loss capacity stretch, fetch-failure stage retries, straggler
/// multipliers, then the hard kill.
/// `executors_requested` sizes the executor-loss count.
FaultOutcome ApplyRunFaults(const FaultSpec& spec, const double* draws,
                            int executors_requested, QueryMetrics* metrics,
                            size_t count);

}  // namespace locat::sparksim

#endif  // LOCAT_SPARKSIM_FAULTS_H_
