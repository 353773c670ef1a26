#include <algorithm>
#include <cmath>

#include "tuners/baselines.h"
#include "tuners/bo_search.h"

namespace locat::tuners {

GboRlTuner::GboRlTuner(Options options)
    : options_(options), rng_(options.seed), free_dims_(AllParamIndices()) {}

void GboRlTuner::SetFreeParams(const std::vector<int>& param_indices) {
  free_dims_ = param_indices;
}

namespace {

// GBO-RL's white-box model covers Spark's memory management, so its
// search space is the memory/resource knobs (the LOCAT paper's Section 6:
// "GBO-RL only considers memory"). Everything else stays at defaults.
std::vector<int> MemoryCentricDims(const std::vector<int>& allowed) {
  static const int kMemoryDims[] = {
      sparksim::kDriverMemory,        sparksim::kExecutorCores,
      sparksim::kExecutorInstances,   sparksim::kExecutorMemory,
      sparksim::kExecutorMemoryOverhead, sparksim::kMemoryFraction,
      sparksim::kMemoryStorageFraction,  sparksim::kMemoryOffHeapSize,
      sparksim::kMemoryOffHeapEnabled,
  };
  std::vector<int> dims;
  for (int d : kMemoryDims) {
    for (int a : allowed) {
      if (a == d) {
        dims.push_back(d);
        break;
      }
    }
  }
  return dims.empty() ? allowed : dims;
}

}  // namespace

core::TuningResult GboRlTuner::Tune(core::TuningSession* session,
                                    double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  const sparksim::ConfigSpace& space = session->space();
  const sparksim::ClusterSpec& cluster = space.cluster();

  // --- Analytical memory-model seeding: GBO-RL's distinguishing feature
  // is a white-box model of Spark's memory pools. We emit seeds that
  // balance executor memory against expected per-task working sets, which
  // is what its model optimizes.
  std::vector<math::Vector> seeds;
  for (int i = 0; i < options_.guided_seeds; ++i) {
    sparksim::SparkConf conf = space.DefaultConf();
    // Sweep executors from "few fat" to "many lean" while keeping
    // instances * memory within the cluster.
    const double t = options_.guided_seeds <= 1
                         ? 0.5
                         : static_cast<double>(i) /
                               (options_.guided_seeds - 1);
    const double heap =
        space.lo(sparksim::kExecutorMemory) +
        t * (space.hi(sparksim::kExecutorMemory) -
             space.lo(sparksim::kExecutorMemory));
    const double per_exec = heap + 2.0;
    const double instances = std::max(
        1.0, std::floor(cluster.total_memory_gb() * 0.85 / per_exec));
    conf.Set(sparksim::kExecutorMemory, std::round(heap));
    conf.Set(sparksim::kExecutorInstances, instances);
    conf.Set(sparksim::kExecutorCores,
             std::max(1.0, std::floor(cluster.total_cores() / instances)));
    conf.Set(sparksim::kMemoryFraction, 0.6 + 0.3 * t);
    conf.Set(sparksim::kSqlShufflePartitions,
             200.0 + 600.0 * rng_.NextDouble());
    seeds.push_back(space.ToUnit(space.Repair(conf)));
  }

  // --- Standard GP-BO from the guided seeds over the full space.
  BoSearch bo({options_.bo_iterations}, &rng_);
  bo.SetObservability(obs_, name());
  bo.Run(session, datasize_gb, MemoryCentricDims(free_dims_),
         space.Repair(space.DefaultConf()), seeds);

  core::TuningResult result;
  result.tuner_name = name();
  result.best_conf = bo.best_conf();
  result.best_observed_seconds = bo.best_seconds();
  result.trajectory = bo.trajectory();
  result.failed_evaluations = bo.failed_evals();
  result.optimization_seconds = session->optimization_seconds() - meter_start;
  result.evaluations = session->evaluations() - evals_start;
  return result;
}

}  // namespace locat::tuners
