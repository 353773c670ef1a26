#ifndef LOCAT_SPARKSIM_EVAL_CACHE_H_
#define LOCAT_SPARKSIM_EVAL_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sparksim/simulator.h"

namespace locat::sparksim {

/// Canonical 64-bit fingerprints of the simulator's evaluation inputs.
///
/// The cost model is a pure function of (conf, datasize, query profile,
/// cluster spec, sim params); the run-to-run lognormal noise factor is
/// applied *after* the model (ClusterSimulator::ApplyNoise), so noise —
/// and therefore the simulator seed — is deliberately NOT part of the
/// key. That is what lets the incumbent re-measure, MeasureFinal
/// repetitions and cross-cell grid evaluations hit the cache even though
/// each of them draws a fresh noise factor.
///
/// All hashes fold the raw IEEE-754 bit patterns of the doubles, so two
/// inputs fingerprint equal only when they would compare bit-equal.
uint64_t FingerprintConf(const SparkConf& conf);
uint64_t FingerprintCluster(const ClusterSpec& cluster);
/// Excludes noise_sigma: cached metrics are noise-free by construction.
uint64_t FingerprintSimParams(const SimParams& params);
uint64_t FingerprintQuery(const QueryProfile& query);

/// Content fingerprint of a whole application: the app name folded with
/// FingerprintQuery of every query, in order. O(total queries) — callers
/// on the hot path memoize it (see ClusterSimulator::AppFingerprint).
uint64_t FingerprintApp(const SparkSqlApp& app);

/// Key of one subset run: the app content fold plus the selected (already
/// validated) query indices, in order. O(count) over plain ints, so cheap
/// enough to recompute per run once the app fold is memoized.
uint64_t CombineSubsetFingerprint(uint64_t app_fp, const int* indices,
                                  size_t count);

/// Environment fingerprint = cluster + sim params + cache format version.
uint64_t CombineEnvFingerprint(uint64_t cluster_fp, uint64_t params_fp);

/// Folds a fault-plan fingerprint (FingerprintFaultSpec) into the
/// environment fingerprint, so entries cached under one fault plan are
/// never served under another. Identity when fault_fp == 0 (faults off):
/// the pre-fault key space is preserved bit-for-bit.
uint64_t CombineFaultFingerprint(uint64_t env_fp, uint64_t fault_fp);

/// Full per-evaluation fingerprint used as the cache bucket key.
uint64_t CombineEvalFingerprint(uint64_t conf_fp, uint64_t env_fp,
                                uint64_t query_fp, double datasize_gb);

/// Counter snapshot of one EvalCache (aggregated over shards). The
/// headline counters (hits, misses, evictions, collisions, insertions,
/// entries) cover BOTH levels — per-query entries and whole-subset app
/// entries; the app_* fields break out the app-level share.
struct EvalCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t collisions = 0;  // fingerprint matched, key material did not
  uint64_t insertions = 0;
  uint64_t entries = 0;     // currently resident

  // App-level (whole subset-run vector) breakdown, included above.
  uint64_t app_hits = 0;
  uint64_t app_misses = 0;
  uint64_t app_evictions = 0;
  uint64_t app_insertions = 0;
  uint64_t app_entries = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe sharded LRU memoization of noise-free cost-model outputs,
/// at two granularities:
///
///   - app level (L1): the whole per-query metrics vector of one
///     (conf, query subset, datasize, environment) run. One lock + one
///     bulk copy serves an entire repeated app run, so the warm path
///     costs only the noise draws and the output copy;
///   - query level (L2): one QueryMetrics per (conf, query, datasize,
///     environment). Populated on L1 misses and shared across different
///     subsets of the same queries (the RQA path re-uses full-app
///     entries and vice versa).
///
/// Keyed by the CombineEvalFingerprint of (conf, datasize, query,
/// environment); on a fingerprint match the stored key material — the 38
/// raw configuration doubles plus the datasize and the query/environment
/// fingerprints — is compared for exact equality, so a 64-bit collision
/// degrades to a counted miss instead of returning wrong metrics. The
/// query/environment components stay fingerprint-compared: their spaces
/// are a few hundred fixed profiles and a handful of clusters, far below
/// any birthday bound, while conf x datasize (the high-cardinality axis)
/// is compared bit-for-bit.
///
/// Capacity is split across 16 shards (each with its own mutex and LRU
/// list), so concurrent per-query lookups from ThreadPool workers don't
/// serialize on one lock. Whether a lookup hits may depend on eviction
/// order and thus on scheduling; the *returned metrics* never do, because
/// every entry is the deterministic model output for its key.
class EvalCache {
 public:
  /// Entry budget from $LOCAT_SIM_CACHE_CAP (default 1M entries, ~250 MB
  /// worst case; a full TPC-DS tuning grid needs far less).
  static size_t CapacityFromEnv();

  explicit EvalCache(size_t capacity = CapacityFromEnv());

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Returns true and copies the memoized metrics into *out when the
  /// fingerprint is resident and the key material matches exactly.
  bool Lookup(uint64_t fingerprint, const SparkConf& conf,
              double datasize_gb, uint64_t query_fp, uint64_t env_fp,
              QueryMetrics* out);

  /// Inserts (or refreshes) the metrics for a key, evicting the shard's
  /// least-recently-used entry when over budget.
  void Insert(uint64_t fingerprint, const SparkConf& conf,
              double datasize_gb, uint64_t query_fp, uint64_t env_fp,
              const QueryMetrics& value);

  /// App-level lookup: copies the memoized noise-free metrics of a whole
  /// subset run into out[0..count) and returns true when the fingerprint
  /// is resident, the key material matches exactly, and the stored run
  /// has exactly `count` queries. `subset_fp` plays the role query_fp
  /// plays at the query level (fingerprint-compared; see above).
  bool LookupApp(uint64_t fingerprint, const SparkConf& conf,
                 double datasize_gb, uint64_t subset_fp, uint64_t env_fp,
                 size_t count, QueryMetrics* out);

  /// Inserts (or refreshes) the whole noise-free metrics vector of one
  /// subset run. App entries are budgeted by their query count — one run
  /// of n queries costs n units of the same per-shard capacity — so the
  /// configured capacity bounds resident QueryMetrics at both levels.
  void InsertApp(uint64_t fingerprint, const SparkConf& conf,
                 double datasize_gb, uint64_t subset_fp, uint64_t env_fp,
                 const QueryMetrics* values, size_t count);

  EvalCacheStats stats() const;
  size_t size() const;

  /// Publishes the counters as locat_sim_cache_* metrics.
  void ExportMetrics(obs::MetricsRegistry* metrics) const;

 private:
  static constexpr size_t kNumShards = 16;

  struct Entry {
    uint64_t fingerprint = 0;
    std::vector<double> conf_values;
    double datasize_gb = 0.0;
    uint64_t query_fp = 0;
    uint64_t env_fp = 0;
    QueryMetrics value;
  };

  struct Shard {
    mutable std::mutex mu;
    // LRU order: front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    size_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t collisions = 0;
    uint64_t insertions = 0;
  };

  struct AppEntry {
    uint64_t fingerprint = 0;
    std::vector<double> conf_values;
    double datasize_gb = 0.0;
    uint64_t subset_fp = 0;
    uint64_t env_fp = 0;
    std::vector<QueryMetrics> value;
  };

  struct AppShard {
    mutable std::mutex mu;
    // LRU order: front = most recently used.
    std::list<AppEntry> lru;
    std::unordered_map<uint64_t, std::list<AppEntry>::iterator> index;
    size_t capacity = 0;  // in QueryMetrics units, not entries
    size_t units = 0;     // sum of value.size() over resident entries
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t collisions = 0;
    uint64_t insertions = 0;
  };

  static bool MaterialMatches(const Entry& e, const SparkConf& conf,
                              double datasize_gb, uint64_t query_fp,
                              uint64_t env_fp);
  static bool AppMaterialMatches(const AppEntry& e, const SparkConf& conf,
                                 double datasize_gb, uint64_t subset_fp,
                                 uint64_t env_fp, size_t count);

  Shard& ShardFor(uint64_t fingerprint) {
    return shards_[static_cast<size_t>(fingerprint % kNumShards)];
  }
  AppShard& AppShardFor(uint64_t fingerprint) {
    return app_shards_[static_cast<size_t>(fingerprint % kNumShards)];
  }

  std::array<Shard, kNumShards> shards_;
  std::array<AppShard, kNumShards> app_shards_;
};

}  // namespace locat::sparksim

#endif  // LOCAT_SPARKSIM_EVAL_CACHE_H_
