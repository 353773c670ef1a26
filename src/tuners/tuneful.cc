#include <algorithm>
#include <cmath>
#include <numeric>

#include "tuners/baselines.h"
#include "tuners/bo_search.h"

namespace locat::tuners {

TunefulTuner::TunefulTuner(Options options)
    : options_(options), rng_(options.seed), free_dims_(AllParamIndices()) {}

void TunefulTuner::SetFreeParams(const std::vector<int>& param_indices) {
  free_dims_ = param_indices;
}

core::TuningResult TunefulTuner::Tune(core::TuningSession* session,
                                      double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  const sparksim::ConfigSpace& space = session->space();

  // Tuneful's incremental sensitivity analysis starts from the stock
  // configuration; OAT influence estimates are conditioned on that base —
  // the method's known weakness in high-dimensional spaces (Section 6 of
  // the LOCAT paper).
  const sparksim::SparkConf base_conf = space.Repair(space.DefaultConf());
  const math::Vector base_unit = space.ToUnit(base_conf);

  // --- Significance phase: one one-at-a-time probe per parameter, at the
  // high end of its range, against the base configuration's runtime.
  std::vector<double> influence(sparksim::kNumParams, 0.0);
  int failed_evals = 0;
  {
    obs::ScopedSpan oat_span(tracer(), "tuneful/oat", "tuner");
    int oat_iter = 0;
    double oat_best = 0.0;
    double oat_worst = 0.0;
    // A probe that dies reads as maximally costly (censored penalty), so
    // its parameter still registers as influential; session errors read
    // as the base runtime (no influence signal, no crash).
    auto oat_evaluate = [&](const sparksim::SparkConf& conf) {
      const double meter_before = session->optimization_seconds();
      const StatusOr<core::EvalRecord> rec_or =
          session->Evaluate(conf, datasize_gb);
      if (!rec_or.ok()) return oat_best > 0.0 ? oat_best : 1.0;
      const core::EvalRecord& rec = *rec_or;
      double objective = rec.app_seconds;
      if (rec.failed) {
        objective = core::CensoredObjective(oat_worst, rec.app_seconds, 2.0);
        ++failed_evals;
      } else {
        oat_worst = std::max(oat_worst, rec.app_seconds);
        if (oat_best <= 0.0 || rec.app_seconds < oat_best) {
          oat_best = rec.app_seconds;
        }
      }
      core::EmitSimpleIteration(
          observer(), "Tuneful", "oat", oat_iter++, datasize_gb,
          session->optimization_seconds() - meter_before, objective,
          oat_best, rec.full_app, failed_evals);
      return objective;
    };
    const double base_seconds = oat_evaluate(base_conf);
    for (int d : free_dims_) {
      math::Vector unit = base_unit;
      unit[static_cast<size_t>(d)] = 1.0;
      const double probe_seconds =
          oat_evaluate(space.Repair(space.FromUnit(unit)));
      influence[static_cast<size_t>(d)] =
          std::fabs(probe_seconds - base_seconds);
    }
    oat_span.Arg("probes", static_cast<double>(oat_iter));
  }

  // Keep the most influential parameters.
  std::vector<int> order = free_dims_;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return influence[static_cast<size_t>(a)] > influence[static_cast<size_t>(b)];
  });
  const size_t keep = std::min<size_t>(
      order.size(), static_cast<size_t>(options_.significant_params));
  std::vector<int> significant(order.begin(),
                               order.begin() + static_cast<long>(keep));
  std::sort(significant.begin(), significant.end());

  // --- GP-BO over the significant subspace.
  BoSearch bo({options_.bo_iterations}, &rng_);
  bo.SetObservability(obs_, name());
  bo.Run(session, datasize_gb, significant, base_conf, {});

  core::TuningResult result;
  result.tuner_name = name();
  result.best_conf = bo.best_conf();
  result.best_observed_seconds = bo.best_seconds();
  result.trajectory = bo.trajectory();
  result.failed_evaluations = failed_evals + bo.failed_evals();
  result.optimization_seconds = session->optimization_seconds() - meter_start;
  result.evaluations = session->evaluations() - evals_start;
  return result;
}

}  // namespace locat::tuners
