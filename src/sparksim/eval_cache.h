#ifndef LOCAT_SPARKSIM_EVAL_CACHE_H_
#define LOCAT_SPARKSIM_EVAL_CACHE_H_

#include <cstdint>

namespace locat::sparksim {

// The simulator has no evaluation cache: every app run derives its
// configuration terms once and simulates each query. EvalCache,
// EvalCacheStats and ClusterSimulator::set_eval_cache stay, as empty
// declarations, only until the benchmark-kind change drops perfbench's
// references to them.

/// Counters of the deleted cache; always zero.
struct EvalCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class EvalCache {};

}  // namespace locat::sparksim

#endif  // LOCAT_SPARKSIM_EVAL_CACHE_H_
