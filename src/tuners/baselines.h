#ifndef LOCAT_TUNERS_BASELINES_H_
#define LOCAT_TUNERS_BASELINES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/tuning.h"

namespace locat::tuners {

/// Uniform random search; the weakest sensible baseline and a useful
/// control in tests and ablations.
class RandomSearchTuner : public core::Tuner {
 public:
  struct Options {
    int evaluations = 60;
    uint64_t seed = 11;

    Options() {}
  };
  explicit RandomSearchTuner(Options options = Options());

  std::string name() const override { return "Random"; }
  core::TuningResult Tune(core::TuningSession* session,
                          double datasize_gb) override;
  void SetFreeParams(const std::vector<int>& param_indices) override;

 private:
  Options options_;
  Rng rng_;
  std::vector<int> free_dims_;
};

/// Tuneful (Fekry et al. 2020): one-at-a-time significance analysis to
/// find the influential parameters, then GP-BO over that subspace.
/// Re-tunes from scratch for every data size (no datasize awareness).
class TunefulTuner : public core::Tuner {
 public:
  struct Options {
    /// Parameters kept after the significance phase.
    int significant_params = 6;
    int bo_iterations = 70;
    uint64_t seed = 21;

    Options() {}
  };
  explicit TunefulTuner(Options options = Options());

  std::string name() const override { return "Tuneful"; }
  core::TuningResult Tune(core::TuningSession* session,
                          double datasize_gb) override;
  void SetFreeParams(const std::vector<int>& param_indices) override;

 private:
  Options options_;
  Rng rng_;
  std::vector<int> free_dims_;  // externally imposed restriction
};

/// DAC (Yu et al. 2018): builds a datasize-aware performance model from a
/// large random sample set (hierarchical regression trees in the paper —
/// GBRT here), then searches the model with a genetic algorithm and
/// validates the top candidates on the cluster.
class DacTuner : public core::Tuner {
 public:
  struct Options {
    int training_samples = 190;
    int ga_population = 60;
    int ga_generations = 40;
    int validation_runs = 6;
    uint64_t seed = 31;

    Options() {}
  };
  explicit DacTuner(Options options = Options());

  std::string name() const override { return "DAC"; }
  core::TuningResult Tune(core::TuningSession* session,
                          double datasize_gb) override;
  void SetFreeParams(const std::vector<int>& param_indices) override;

 private:
  Options options_;
  Rng rng_;
  std::vector<int> free_dims_;
};

/// GBO-RL (Kunjir & Babu 2020): Guided Bayesian Optimization — BO seeded
/// by an analytical model of Spark's memory management that proposes
/// memory-balanced starting configurations; the RL (their white-box
/// tuning agent) is approximated by the guided seeding plus standard
/// GP-BO, matching its published sample budgets.
class GboRlTuner : public core::Tuner {
 public:
  struct Options {
    int guided_seeds = 8;
    int bo_iterations = 260;
    uint64_t seed = 41;

    Options() {}
  };
  explicit GboRlTuner(Options options = Options());

  std::string name() const override { return "GBO-RL"; }
  core::TuningResult Tune(core::TuningSession* session,
                          double datasize_gb) override;
  void SetFreeParams(const std::vector<int>& param_indices) override;

 private:
  Options options_;
  Rng rng_;
  std::vector<int> free_dims_;
};

/// QTune (Li et al. 2019): query-aware deep-RL database tuner,
/// approximated by a tabular actor-critic over a discretized action space
/// (increase/decrease one parameter by one level), with the workload
/// featurized by its query-category mix. Inherits DRL's appetite for
/// samples — the highest evaluation budget of the four baselines.
class QtuneTuner : public core::Tuner {
 public:
  struct Options {
    int episodes = 20;
    int steps_per_episode = 19;  // ~456 evaluations
    uint64_t seed = 51;

    Options() {}
  };
  explicit QtuneTuner(Options options = Options());

  std::string name() const override { return "QTune"; }
  core::TuningResult Tune(core::TuningSession* session,
                          double datasize_gb) override;
  void SetFreeParams(const std::vector<int>& param_indices) override;

 private:
  Options options_;
  Rng rng_;
  std::vector<int> free_dims_;
};

/// CherryPick (Alipourfard et al. 2017): plain GP-BO over the cloud/Spark
/// configuration with a handful of start points — the datasize-oblivious
/// BO baseline Section 3.4 contrasts DAGP against. Used in the
/// DAGP-vs-CherryPick ablation bench.
class CherryPickTuner : public core::Tuner {
 public:
  struct Options {
    int bo_iterations = 45;
    uint64_t seed = 71;

    Options() {}
  };
  explicit CherryPickTuner(Options options = Options());

  std::string name() const override { return "CherryPick"; }
  core::TuningResult Tune(core::TuningSession* session,
                          double datasize_gb) override;
  void SetFreeParams(const std::vector<int>& param_indices) override;

 private:
  Options options_;
  Rng rng_;
  std::vector<int> free_dims_;
};

/// All parameter indices [0, kNumParams).
std::vector<int> AllParamIndices();

/// Factory by figure-label name: "Tuneful", "DAC", "GBO-RL", "QTune",
/// "Random". Seeds are offset by `seed_salt` for repetition studies.
std::unique_ptr<core::Tuner> MakeBaseline(const std::string& name,
                                          uint64_t seed_salt = 0);

}  // namespace locat::tuners

#endif  // LOCAT_TUNERS_BASELINES_H_
