#include "task_sim.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace locat::sparksim {

TaskLevelSimulator::TaskLevelSimulator(int slots, double speed)
    : slots_(std::max(1, slots)), speed_(std::max(0.05, speed)) {}

StatusOr<TaskLevelSimulator::Result> TaskLevelSimulator::Execute(
    const std::vector<StageSpec>& stages, Rng* rng) const {
  const int n = static_cast<int>(stages.size());
  for (int s = 0; s < n; ++s) {
    if (stages[static_cast<size_t>(s)].num_tasks <= 0) {
      return Status::InvalidArgument("stage with non-positive task count");
    }
    for (int d : stages[static_cast<size_t>(s)].deps) {
      if (d < 0 || d >= n) {
        return Status::InvalidArgument("dependency index out of range");
      }
    }
  }

  // Kahn's topological order over the stage DAG.
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  std::vector<std::vector<int>> dependents(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    for (int d : stages[static_cast<size_t>(s)].deps) {
      ++indegree[static_cast<size_t>(s)];
      dependents[static_cast<size_t>(d)].push_back(s);
    }
  }
  std::vector<int> order;
  std::queue<int> ready;
  for (int s = 0; s < n; ++s) {
    if (indegree[static_cast<size_t>(s)] == 0) ready.push(s);
  }
  while (!ready.empty()) {
    const int s = ready.front();
    ready.pop();
    order.push_back(s);
    for (int t : dependents[static_cast<size_t>(s)]) {
      if (--indegree[static_cast<size_t>(t)] == 0) ready.push(t);
    }
  }
  if (static_cast<int>(order.size()) != n) {
    return Status::FailedPrecondition("stage dependency cycle");
  }

  Result result;
  result.stage_end_s.assign(static_cast<size_t>(n), 0.0);

  // Event-driven slot pool: free time per slot.
  std::vector<double> slot_free(static_cast<size_t>(slots_), 0.0);

  // Scratch reused across stages (this is the innermost simulator loop;
  // per-stage allocation dominated the profile): task durations and the
  // slot min-heap, maintained with make/push/pop_heap. The heap always
  // pops the unique minimum — (time, slot) pairs are distinct — so the
  // schedule matches the former per-stage priority_queue exactly.
  std::vector<double> durations;
  std::vector<std::pair<double, int>> pool;
  pool.reserve(static_cast<size_t>(slots_) + 1);
  size_t total_tasks = 0;
  for (const StageSpec& stage : stages) {
    total_tasks += static_cast<size_t>(stage.num_tasks);
  }
  result.tasks.reserve(total_tasks);

  for (int s : order) {
    const StageSpec& stage = stages[static_cast<size_t>(s)];
    double earliest = 0.0;
    for (int d : stage.deps) {
      earliest = std::max(earliest, result.stage_end_s[static_cast<size_t>(d)]);
    }

    // Per-task durations: linear spread from (2 - skew_norm) to skew x
    // mean so the total work is preserved; an optional rng shuffles the
    // assignment (which does not change the makespan distributionally but
    // exercises the scheduler).
    const int t_count = stage.num_tasks;
    const double mean_work =
        stage.core_seconds / static_cast<double>(t_count) / speed_;
    const double skew = std::max(1.0, stage.skew);
    durations.assign(static_cast<size_t>(t_count), 0.0);
    for (int t = 0; t < t_count; ++t) {
      const double u =
          t_count == 1 ? 1.0
                       : static_cast<double>(t) / (t_count - 1);  // 0..1
      // Spread between (2 - skew) and skew, mean 1.
      const double factor =
          std::max(0.05, (2.0 - skew) + u * 2.0 * (skew - 1.0));
      durations[static_cast<size_t>(t)] =
          mean_work * factor + stage.per_task_overhead_s;
    }
    if (rng != nullptr) rng->Shuffle(&durations);

    // Greedy longest-processing-time order reduces makespan variance and
    // matches Spark's behavior of launching available tasks immediately.
    std::sort(durations.rbegin(), durations.rend());

    // Min-heap over slot free times.
    pool.clear();
    for (int k = 0; k < slots_; ++k) {
      pool.push_back(
          {std::max(slot_free[static_cast<size_t>(k)], earliest), k});
    }
    std::make_heap(pool.begin(), pool.end(), std::greater<>{});
    double stage_end = earliest;
    for (int t = 0; t < t_count; ++t) {
      std::pop_heap(pool.begin(), pool.end(), std::greater<>{});
      const auto [free_at, slot] = pool.back();
      pool.pop_back();
      TaskTrace trace;
      trace.stage = s;
      trace.task = t;
      trace.slot = slot;
      trace.start_s = free_at;
      trace.end_s = free_at + durations[static_cast<size_t>(t)];
      stage_end = std::max(stage_end, trace.end_s);
      slot_free[static_cast<size_t>(slot)] = trace.end_s;
      pool.push_back({trace.end_s, slot});
      std::push_heap(pool.begin(), pool.end(), std::greater<>{});
      result.tasks.push_back(trace);
    }
    result.stage_end_s[static_cast<size_t>(s)] = stage_end;
    result.makespan_s = std::max(result.makespan_s, stage_end);
  }
  return result;
}

}  // namespace locat::sparksim
