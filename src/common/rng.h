#ifndef LOCAT_COMMON_RNG_H_
#define LOCAT_COMMON_RNG_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace locat {

/// Deterministic, seedable pseudo-random number generator used everywhere in
/// the library so that experiments are exactly reproducible.
///
/// The generator is xoshiro256** (Blackman & Vigna) seeded through
/// SplitMix64, which gives high-quality streams even from small integer
/// seeds. Not cryptographically secure; not thread-safe (use one Rng per
/// thread or per component).
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Equal seeds yield identical
  /// streams on all platforms.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t NextUint64() {
    const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> uniform in [0, 1).
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi; returns lo when equal.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    if (lo >= hi) return lo;
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = range * (UINT64_MAX / range);
    uint64_t v = NextUint64();
    while (v >= limit) v = NextUint64();
    return lo + static_cast<int64_t>(v % range);
  }

  /// Standard normal variate (Box–Muller with caching).
  double NextGaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Lognormal multiplicative-noise factor: exp(N(0, sigma) - sigma^2/2),
  /// which has mean exactly 1. Used for run-to-run execution-time noise.
  double LognormalNoise(double sigma);

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Returns a uniformly random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Fisher–Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (int i = static_cast<int>(values->size()) - 1; i > 0; --i) {
      int j = static_cast<int>(UniformInt(0, i));
      std::swap((*values)[i], (*values)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace locat

#endif  // LOCAT_COMMON_RNG_H_
