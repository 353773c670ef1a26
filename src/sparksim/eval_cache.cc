#include "sparksim/eval_cache.h"

#include <cstdlib>
#include <cstring>

namespace locat::sparksim {
namespace {

// Bump to invalidate every fingerprint when the cost model changes shape.
constexpr uint64_t kCacheFormatVersion = 1;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t MixWord(uint64_t h, uint64_t v) {
  return (h ^ SplitMix64(v)) * 1099511628211ULL;  // 64-bit FNV prime
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return MixWord(h, bits);
}

uint64_t MixBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return SplitMix64(h);
}

}  // namespace

uint64_t FingerprintConf(const SparkConf& conf) {
  uint64_t h = SplitMix64(0x636f6e66ULL);  // "conf"
  for (double v : conf.values()) h = MixDouble(h, v);
  return h;
}

uint64_t FingerprintCluster(const ClusterSpec& cluster) {
  uint64_t h = SplitMix64(0x636c7573ULL);  // "clus"
  h = MixWord(h, static_cast<uint64_t>(cluster.worker_nodes));
  h = MixWord(h, static_cast<uint64_t>(cluster.cores_per_node));
  h = MixDouble(h, cluster.memory_per_node_gb);
  h = MixDouble(h, cluster.core_speed);
  h = MixDouble(h, cluster.network_gbps);
  h = MixDouble(h, cluster.disk_gbps);
  h = MixWord(h, static_cast<uint64_t>(cluster.container_max_cores));
  h = MixDouble(h, cluster.container_max_memory_gb);
  return h;
}

uint64_t FingerprintSimParams(const SimParams& params) {
  uint64_t h = SplitMix64(0x7061726dULL);  // "parm"
  h = MixDouble(h, params.split_gb);
  h = MixDouble(h, params.task_overhead_s);
  h = MixDouble(h, params.reduce_task_overhead_s);
  h = MixDouble(h, params.core_contention);
  h = MixWord(h, static_cast<uint64_t>(params.contention_free_cores));
  h = MixDouble(h, params.user_mem_base_gb);
  h = MixDouble(h, params.user_mem_per_core_gb);
  h = MixDouble(h, params.query_latency_s);
  h = MixDouble(h, params.app_submit_overhead_s);
  h = MixDouble(h, params.compression_ratio_l1);
  h = MixDouble(h, params.compression_level_gain);
  h = MixDouble(h, params.compression_cpu_l1);
  h = MixDouble(h, params.compression_level_cpu);
  h = MixDouble(h, params.decompression_cpu);
  h = MixDouble(h, params.map_sort_cpu);
  h = MixDouble(h, params.spill_cpu_per_gb);
  h = MixDouble(h, params.oom_threshold);
  h = MixDouble(h, params.oom_penalty);
  h = MixDouble(h, params.oom_penalty_cap);
  h = MixDouble(h, params.gc_base_s_per_gb);
  h = MixDouble(h, params.gc_pressure_coeff);
  h = MixDouble(h, params.gc_pause_s_per_gb);
  // noise_sigma intentionally excluded: the cached metrics are noise-free
  // (noise multiplies them afterwards), so runs with different sigmas can
  // share base evaluations.
  return h;
}

uint64_t FingerprintQuery(const QueryProfile& query) {
  uint64_t h = SplitMix64(0x71757279ULL);  // "qury"
  h = MixBytes(h, query.name.data(), query.name.size());
  h = MixWord(h, static_cast<uint64_t>(query.category));
  h = MixDouble(h, query.input_frac);
  h = MixDouble(h, query.cpu_per_gb);
  h = MixDouble(h, query.shuffle_ratio);
  h = MixDouble(h, query.shuffle_cpu_per_gb);
  h = MixWord(h, static_cast<uint64_t>(query.num_shuffle_stages));
  h = MixDouble(h, query.ds_exponent);
  h = MixDouble(h, query.broadcastable_mb);
  h = MixDouble(h, query.broadcast_avoid_frac);
  h = MixDouble(h, query.mem_per_task_factor);
  h = MixDouble(h, query.skew);
  h = MixWord(h, query.has_cartesian ? 1 : 0);
  h = MixDouble(h, query.rescan_frac);
  return h;
}

uint64_t FingerprintApp(const SparkSqlApp& app) {
  uint64_t h = SplitMix64(0x73716c61ULL);  // "sqla"
  h = MixBytes(h, app.name.data(), app.name.size());
  h = MixWord(h, static_cast<uint64_t>(app.queries.size()));
  for (const QueryProfile& q : app.queries) h = MixWord(h, FingerprintQuery(q));
  return h;
}

uint64_t CombineSubsetFingerprint(uint64_t app_fp, const int* indices,
                                  size_t count) {
  uint64_t h = MixWord(app_fp, 0x73756273ULL);  // "subs"
  h = MixWord(h, static_cast<uint64_t>(count));
  for (size_t i = 0; i < count; ++i) {
    h = MixWord(h, static_cast<uint64_t>(indices[i]));
  }
  return h;
}

uint64_t CombineEnvFingerprint(uint64_t cluster_fp, uint64_t params_fp) {
  uint64_t h = SplitMix64(kCacheFormatVersion);
  h = MixWord(h, cluster_fp);
  h = MixWord(h, params_fp);
  return h;
}

uint64_t CombineFaultFingerprint(uint64_t env_fp, uint64_t fault_fp) {
  if (fault_fp == 0) return env_fp;
  uint64_t h = MixWord(env_fp, 0x66617573ULL);  // "faus"
  return MixWord(h, fault_fp);
}

uint64_t CombineEvalFingerprint(uint64_t conf_fp, uint64_t env_fp,
                                uint64_t query_fp, double datasize_gb) {
  uint64_t h = MixWord(conf_fp, env_fp);
  h = MixWord(h, query_fp);
  return MixDouble(h, datasize_gb);
}

size_t EvalCache::CapacityFromEnv() {
  const char* env = std::getenv("LOCAT_SIM_CACHE_CAP");
  if (env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v >= 0) return static_cast<size_t>(v);
  }
  return 1u << 20;
}

EvalCache::EvalCache(size_t capacity) {
  // Distribute the budget so the shard capacities sum to exactly
  // `capacity` (remainder to the low shards); a zero-capacity shard
  // simply never retains entries.
  const size_t base = capacity / kNumShards;
  const size_t extra = capacity % kNumShards;
  for (size_t s = 0; s < kNumShards; ++s) {
    shards_[s].capacity = base + (s < extra ? 1 : 0);
    // App shards get the same per-shard budget, counted in QueryMetrics
    // units (an entry of n queries costs n units).
    app_shards_[s].capacity = base + (s < extra ? 1 : 0);
  }
}

bool EvalCache::MaterialMatches(const Entry& e, const SparkConf& conf,
                                double datasize_gb, uint64_t query_fp,
                                uint64_t env_fp) {
  return e.query_fp == query_fp && e.env_fp == env_fp &&
         e.datasize_gb == datasize_gb && e.conf_values == conf.values();
}

bool EvalCache::Lookup(uint64_t fingerprint, const SparkConf& conf,
                       double datasize_gb, uint64_t query_fp,
                       uint64_t env_fp, QueryMetrics* out) {
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  if (!MaterialMatches(*it->second, conf, datasize_gb, query_fp, env_fp)) {
    ++shard.collisions;
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  *out = it->second->value;
  return true;
}

void EvalCache::Insert(uint64_t fingerprint, const SparkConf& conf,
                       double datasize_gb, uint64_t query_fp,
                       uint64_t env_fp, const QueryMetrics& value) {
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it != shard.index.end()) {
    // Refresh; on a true collision the newer key takes the slot.
    Entry& e = *it->second;
    if (!MaterialMatches(e, conf, datasize_gb, query_fp, env_fp)) {
      ++shard.collisions;
      e.conf_values = conf.values();
      e.datasize_gb = datasize_gb;
      e.query_fp = query_fp;
      e.env_fp = env_fp;
    }
    e.value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.capacity == 0) return;
  while (shard.lru.size() >= shard.capacity) {
    shard.index.erase(shard.lru.back().fingerprint);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  Entry e;
  e.fingerprint = fingerprint;
  e.conf_values = conf.values();
  e.datasize_gb = datasize_gb;
  e.query_fp = query_fp;
  e.env_fp = env_fp;
  e.value = value;
  shard.lru.push_front(std::move(e));
  shard.index[fingerprint] = shard.lru.begin();
  ++shard.insertions;
}

bool EvalCache::AppMaterialMatches(const AppEntry& e, const SparkConf& conf,
                                   double datasize_gb, uint64_t subset_fp,
                                   uint64_t env_fp, size_t count) {
  return e.subset_fp == subset_fp && e.env_fp == env_fp &&
         e.datasize_gb == datasize_gb && e.value.size() == count &&
         e.conf_values == conf.values();
}

bool EvalCache::LookupApp(uint64_t fingerprint, const SparkConf& conf,
                          double datasize_gb, uint64_t subset_fp,
                          uint64_t env_fp, size_t count, QueryMetrics* out) {
  AppShard& shard = AppShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  if (!AppMaterialMatches(*it->second, conf, datasize_gb, subset_fp, env_fp,
                          count)) {
    ++shard.collisions;
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  const std::vector<QueryMetrics>& v = it->second->value;
  for (size_t i = 0; i < count; ++i) out[i] = v[i];
  return true;
}

void EvalCache::InsertApp(uint64_t fingerprint, const SparkConf& conf,
                          double datasize_gb, uint64_t subset_fp,
                          uint64_t env_fp, const QueryMetrics* values,
                          size_t count) {
  AppShard& shard = AppShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it != shard.index.end()) {
    // Refresh; on a true collision the newer key takes the slot.
    AppEntry& e = *it->second;
    if (!AppMaterialMatches(e, conf, datasize_gb, subset_fp, env_fp, count)) {
      ++shard.collisions;
      e.conf_values = conf.values();
      e.datasize_gb = datasize_gb;
      e.subset_fp = subset_fp;
      e.env_fp = env_fp;
    }
    shard.units = shard.units - e.value.size() + count;
    e.value.assign(values, values + count);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (count > shard.capacity) return;  // would never fit, even alone
  while (!shard.lru.empty() && shard.units + count > shard.capacity) {
    shard.units -= shard.lru.back().value.size();
    shard.index.erase(shard.lru.back().fingerprint);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  AppEntry e;
  e.fingerprint = fingerprint;
  e.conf_values = conf.values();
  e.datasize_gb = datasize_gb;
  e.subset_fp = subset_fp;
  e.env_fp = env_fp;
  e.value.assign(values, values + count);
  shard.lru.push_front(std::move(e));
  shard.index[fingerprint] = shard.lru.begin();
  shard.units += count;
  ++shard.insertions;
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
    s.collisions += shard.collisions;
    s.insertions += shard.insertions;
    s.entries += shard.lru.size();
  }
  for (const AppShard& shard : app_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.app_hits += shard.hits;
    s.app_misses += shard.misses;
    s.app_evictions += shard.evictions;
    s.app_insertions += shard.insertions;
    s.app_entries += shard.lru.size();
    // Fold the app level into the headline counters.
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
    s.collisions += shard.collisions;
    s.insertions += shard.insertions;
    s.entries += shard.lru.size();
  }
  return s;
}

size_t EvalCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.lru.size();
  }
  for (const AppShard& shard : app_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.lru.size();
  }
  return n;
}

void EvalCache::ExportMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  const EvalCacheStats s = stats();
  metrics
      ->GetCounter("locat_sim_cache_hits_total",
                   "Simulator eval-cache lookups served from memory")
      ->Increment(static_cast<double>(s.hits));
  metrics
      ->GetCounter("locat_sim_cache_misses_total",
                   "Simulator eval-cache lookups that ran the cost model")
      ->Increment(static_cast<double>(s.misses));
  metrics
      ->GetCounter("locat_sim_cache_evictions_total",
                   "Simulator eval-cache LRU evictions")
      ->Increment(static_cast<double>(s.evictions));
  metrics
      ->GetCounter("locat_sim_cache_collisions_total",
                   "Fingerprint collisions caught by the equality fallback")
      ->Increment(static_cast<double>(s.collisions));
  metrics
      ->GetCounter("locat_sim_cache_insertions_total",
                   "Simulator eval-cache entries inserted")
      ->Increment(static_cast<double>(s.insertions));
  metrics
      ->GetGauge("locat_sim_cache_entries",
                 "Simulator eval-cache entries currently resident")
      ->Set(static_cast<double>(s.entries));
  metrics
      ->GetCounter("locat_sim_cache_app_hits_total",
                   "Whole-subset (app-level) lookups served from memory")
      ->Increment(static_cast<double>(s.app_hits));
  metrics
      ->GetCounter("locat_sim_cache_app_misses_total",
                   "Whole-subset (app-level) lookups that fell through")
      ->Increment(static_cast<double>(s.app_misses));
}

}  // namespace locat::sparksim
