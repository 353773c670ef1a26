#ifndef LOCAT_TESTS_TASK_SIM_H_
#define LOCAT_TESTS_TASK_SIM_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace locat::sparksim {

/// One task's schedule in a discrete-event execution.
struct TaskTrace {
  int stage = 0;
  int task = 0;
  int slot = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// A stage of parallel tasks with dependencies, as the DAG scheduler sees
/// it (Figure 1 of the paper: query -> DAG -> stages -> tasks).
struct StageSpec {
  int num_tasks = 1;
  /// Total work of the stage across all tasks, core-seconds.
  double core_seconds = 0.0;
  /// Fixed per-task cost (launch, fetch, commit), seconds.
  double per_task_overhead_s = 0.0;
  /// Straggler factor: the slowest task takes skew x the mean duration;
  /// per-task durations are spread deterministically between 1 and skew.
  double skew = 1.0;
  /// Indices of stages that must complete before this one starts.
  std::vector<int> deps;
};

/// Discrete-event, task-level executor model. The analytical
/// ClusterSimulator approximates stage time with the wave formula
/// `per_task * (waves - 1 + skew)`; this simulator actually places each
/// task on a slot with an event-driven scheduler and measures the
/// makespan. It is a test oracle: TaskSimTest checks the wave formula
/// against it.
class TaskLevelSimulator {
 public:
  struct Result {
    double makespan_s = 0.0;
    std::vector<double> stage_end_s;  // completion time per stage
    std::vector<TaskTrace> tasks;
  };

  /// `slots`: parallel task slots (executors x cores); `speed`: relative
  /// per-core throughput.
  TaskLevelSimulator(int slots, double speed);

  /// Executes the stage DAG. Stages run as soon as their dependencies
  /// complete and free slots are available (greedy, locality-free
  /// scheduling). Task durations spread linearly from fastest to
  /// `skew x` mean; `rng` (optional) shuffles which task gets which
  /// duration. Returns InvalidArgument on malformed DAGs (bad deps,
  /// non-positive tasks) and FailedPrecondition on dependency cycles.
  StatusOr<Result> Execute(const std::vector<StageSpec>& stages,
                           Rng* rng = nullptr) const;

 private:
  int slots_;
  double speed_;
};

}  // namespace locat::sparksim

#endif  // LOCAT_TESTS_TASK_SIM_H_
