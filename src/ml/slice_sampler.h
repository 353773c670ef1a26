#ifndef LOCAT_ML_SLICE_SAMPLER_H_
#define LOCAT_ML_SLICE_SAMPLER_H_

#include <functional>

#include "common/rng.h"
#include "math/matrix.h"

namespace locat::ml {

/// Coordinate-wise slice sampler (Neal 2003) for drawing from an
/// unnormalized log density. Used to marginalize GP hyperparameters in the
/// EI-MCMC acquisition (Snoek, Larochelle & Adams 2012).
///
/// Each coordinate update is shrink-only: it draws the slice level,
/// places a bracket of constant width kWidth uniformly around the current
/// value and shrinks it until a point inside the slice is drawn. Nothing
/// is evaluated at the bracket ends and nothing steps out; Neal (2003,
/// Section 4.1) shows the update leaves the target invariant for any
/// width. Slice sampling needs no step-size tuning, which is exactly why
/// EI-MCMC "avoids external tuning of GP's hyperparameters" (Section 3.4
/// of the paper).
class SliceSampler {
 public:
  using LogDensity = std::function<double(const math::Vector&)>;

  /// Bracket width per coordinate: about three standard deviations of
  /// EI-MCMC's log-hyperparameter prior (sd 1).
  static constexpr double kWidth = 3.2;
  /// Shrink iterations before giving up and keeping the current
  /// coordinate value (guards against pathological densities).
  static constexpr int kMaxShrink = 64;

  /// Work counters accumulated across a Sample() call — the telemetry the
  /// BO loop reports as "MCMC hyperparameter acceptance stats". Purely
  /// observational: collecting them draws no random numbers and changes
  /// no sampling decision.
  struct Stats {
    /// Log-density evaluations: one per shrink and accepted proposal, and
    /// the re-evaluation of a stuck coordinate's kept value. A state's
    /// density is carried forward, never recomputed.
    int64_t density_evals = 0;
    int64_t accepted = 0;       // coordinate proposals accepted
    int64_t shrinks = 0;        // coordinate proposals rejected (shrunk)
    int64_t stuck = 0;          // coordinates kept after kMaxShrink

    /// Fraction of shrink-loop proposals that landed inside the slice.
    double acceptance_rate() const {
      const int64_t proposals = accepted + shrinks + stuck;
      return proposals > 0
                 ? static_cast<double>(accepted) /
                       static_cast<double>(proposals)
                 : 0.0;
    }
  };

  explicit SliceSampler(LogDensity log_density)
      : log_density_(std::move(log_density)) {}

  /// Invoked right after each retained sample with (sample_index, state).
  /// The density has just been evaluated at exactly `state` (the final
  /// evaluation of the sweep that produced it), which lets density
  /// implementations hand their cached factorization of that state to the
  /// caller. Must not mutate sampler state or draw random numbers.
  using SampleCallback = std::function<void(int, const math::Vector&)>;

  /// Runs `burn_in` sweeps from `initial`, whose log density the caller
  /// has evaluated as `initial_log_density`, then collects `n_samples`
  /// states, taking one sample every `thin` sweeps. A start without a
  /// finite density never moves. `stats` (optional) accumulates work
  /// counters over the whole call; `on_sample` (optional) observes each
  /// retained sample as it is produced.
  std::vector<math::Vector> Sample(const math::Vector& initial,
                                   double initial_log_density, int n_samples,
                                   int burn_in, int thin, Rng* rng,
                                   Stats* stats = nullptr,
                                   const SampleCallback& on_sample = {}) const;

 private:
  /// One sweep: each coordinate of `state` updated once, in order.
  /// `log_f` holds the density at `state` on entry and on return.
  void Sweep(math::Vector* state, double* log_f, Rng* rng,
             Stats* stats) const;

  /// Slice-samples coordinate `coord` of `state` (log density `log_f0`),
  /// leaving the new value in `state` and returning its log density.
  double SampleCoordinate(math::Vector* state, size_t coord, double log_f0,
                          Rng* rng, Stats* stats) const;

  LogDensity log_density_;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_SLICE_SAMPLER_H_
