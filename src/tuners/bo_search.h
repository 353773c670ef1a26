#ifndef LOCAT_TUNERS_BO_SEARCH_H_
#define LOCAT_TUNERS_BO_SEARCH_H_

#include <vector>

#include "common/rng.h"
#include "core/tuning.h"

namespace locat::tuners {

/// Shared plain (non-datasize-aware) GP-BO loop used by the Tuneful,
/// GBO-RL and CherryPick baselines. Searches the unit cube restricted to
/// `free_dims` (others pinned to a base configuration): each iteration
/// draws a random candidate pool and scores all of it in one
/// `EiMcmc::AcquisitionValueBatch` call, as LOCAT does, then evaluates the
/// first candidate with the highest EI.
///
/// Deliberately mirrors the baselines' published methodology rather than
/// LOCAT's: no data-size input, full-application evaluations, fixed
/// iteration budget. The pool size, refit period, training window and
/// ensemble settings are fixed in bo_search.cc; the budget is the one
/// knob.
class BoSearch {
 public:
  struct Options {
    int iterations = 120;
  };

  BoSearch(Options options, Rng* rng) : options_(options), rng_(rng) {}

  /// Wires observability and the owning tuner's name into the loop so
  /// every charged evaluation emits one "iteration" event (phase "bo").
  void SetObservability(const obs::ObsContext& obs, std::string tuner_name) {
    obs_ = obs;
    tuner_name_ = std::move(tuner_name);
  }

  /// Runs the BO loop: evaluates `options.iterations` configurations on
  /// the session (charged), starting from `initial_units` (already
  /// evaluated ones may be passed via AddPrior). Returns nothing; read
  /// best via accessors.
  void Run(core::TuningSession* session, double datasize_gb,
           const std::vector<int>& free_dims,
           const sparksim::SparkConf& base_conf,
           const std::vector<math::Vector>& initial_units);

  const sparksim::SparkConf& best_conf() const { return best_conf_; }
  double best_seconds() const { return best_seconds_; }
  const std::vector<double>& trajectory() const { return trajectory_; }
  /// Evaluations of the last Run that ended in an injected failure; those
  /// runs train the GP with a censored cost and never become incumbent.
  int failed_evals() const { return failed_evals_; }

 private:
  /// Projects free dims of `unit` onto the GP input vector.
  math::Vector FreeDims(const math::Vector& unit,
                        const std::vector<int>& free_dims) const;

  Options options_;
  Rng* rng_;
  sparksim::SparkConf best_conf_;
  double best_seconds_ = 0.0;
  double worst_seconds_ = 0.0;  // censored-cost anchor (successes only)
  int failed_evals_ = 0;
  std::vector<double> trajectory_;
  obs::ObsContext obs_;
  std::string tuner_name_;
};

}  // namespace locat::tuners

#endif  // LOCAT_TUNERS_BO_SEARCH_H_
