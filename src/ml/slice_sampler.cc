#include "ml/slice_sampler.h"

#include <cmath>
#include <limits>

namespace locat::ml {

double SliceSampler::SampleCoordinate(math::Vector* state, size_t coord,
                                      double log_f0, Rng* rng,
                                      Stats* stats) const {
  const double x0 = (*state)[coord];
  // Slice level: log(u) + log f(x0), u ~ U(0,1).
  const double log_y = log_f0 + std::log(1.0 - rng->NextDouble());

  // Shrink-only bracket: width kWidth placed uniformly around x0.
  double lo = x0 - kWidth * rng->NextDouble();
  double hi = lo + kWidth;
  auto eval_at = [&](double v) {
    (*state)[coord] = v;
    if (stats != nullptr) ++stats->density_evals;
    return log_density_(*state);
  };

  // Shrink until a point inside the slice is found.
  for (int i = 0; i < kMaxShrink; ++i) {
    const double x1 = lo + (hi - lo) * rng->NextDouble();
    const double log_f1 = eval_at(x1);
    if (log_f1 > log_y) {
      if (stats != nullptr) ++stats->accepted;
      return log_f1;  // state already holds x1.
    }
    if (stats != nullptr) ++stats->shrinks;
    if (x1 < x0) {
      lo = x1;
    } else {
      hi = x1;
    }
  }
  // Pathological density; keep the original value. Evaluating there again
  // makes x0 the last state the density saw (see SampleCallback).
  if (stats != nullptr) ++stats->stuck;
  return eval_at(x0);
}

void SliceSampler::Sweep(math::Vector* state, double* log_f, Rng* rng,
                         Stats* stats) const {
  // An infeasible start never moves.
  if (!std::isfinite(*log_f)) return;
  for (size_t coord = 0; coord < state->size(); ++coord) {
    *log_f = SampleCoordinate(state, coord, *log_f, rng, stats);
  }
}

std::vector<math::Vector> SliceSampler::Sample(
    const math::Vector& initial, double initial_log_density, int n_samples,
    int burn_in, int thin, Rng* rng, Stats* stats,
    const SampleCallback& on_sample) const {
  std::vector<math::Vector> samples;
  samples.reserve(static_cast<size_t>(n_samples));
  math::Vector state = initial;
  double log_f = initial_log_density;
  for (int i = 0; i < burn_in; ++i) Sweep(&state, &log_f, rng, stats);
  for (int s = 0; s < n_samples; ++s) {
    for (int t = 0; t < std::max(1, thin); ++t) {
      Sweep(&state, &log_f, rng, stats);
    }
    samples.push_back(state);
    if (on_sample) on_sample(s, state);
  }
  return samples;
}

}  // namespace locat::ml
