#include <algorithm>

#include "tuners/baselines.h"
#include "tuners/bo_search.h"

namespace locat::tuners {
namespace {

// Random start points before the BO loop.
constexpr int kStartPoints = 3;

}  // namespace

CherryPickTuner::CherryPickTuner(Options options)
    : options_(options), rng_(options.seed), free_dims_(AllParamIndices()) {}

void CherryPickTuner::SetFreeParams(const std::vector<int>& param_indices) {
  free_dims_ = param_indices;
}

core::TuningResult CherryPickTuner::Tune(core::TuningSession* session,
                                         double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  const sparksim::ConfigSpace& space = session->space();

  // CherryPick (Alipourfard et al., NSDI'17): plain GP-BO with EI over the
  // configuration space, a few random start points, and a fixed iteration
  // budget. Crucially — no data-size input: every new input size means a
  // full re-tune (the limitation DAGP removes, Section 3.4).
  std::vector<math::Vector> starts;
  for (int i = 0; i < kStartPoints; ++i) {
    starts.push_back(space.RandomValidUnit(&rng_));
  }
  BoSearch bo({options_.bo_iterations}, &rng_);
  bo.SetObservability(obs_, name());
  bo.Run(session, datasize_gb, free_dims_,
         space.Repair(space.DefaultConf()), starts);

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
