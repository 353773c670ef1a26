// Tests for the evaluation fast path: config fingerprints, the sharded
// LRU eval cache, batched app runs, and the end-to-end guarantee that the
// cache and the batching only change wall-clock — never results.
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "sparksim/cluster.h"
#include "sparksim/config.h"
#include "sparksim/eval_cache.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat::sparksim {
namespace {

SparkConf SomeConf(const ConfigSpace& space, uint64_t seed) {
  Rng rng(seed);
  return space.RandomValid(&rng);
}

// ---------------------------------------------------------- fingerprints

TEST(FingerprintTest, ConfFingerprintIsStableAndSensitive) {
  ConfigSpace space(ArmCluster());
  const SparkConf a = SomeConf(space, 1);
  SparkConf b = a;
  EXPECT_EQ(FingerprintConf(a), FingerprintConf(b));
  b.Set(kExecutorCores, a.Get(kExecutorCores) + 1);
  EXPECT_NE(FingerprintConf(a), FingerprintConf(b));
}

TEST(FingerprintTest, SimParamsFingerprintIgnoresNoiseSigma) {
  SimParams a;
  SimParams b;
  b.noise_sigma = 0.0;  // cached metrics are noise-free by construction
  EXPECT_EQ(FingerprintSimParams(a), FingerprintSimParams(b));
  b.split_gb = 0.256;
  EXPECT_NE(FingerprintSimParams(a), FingerprintSimParams(b));
}

TEST(FingerprintTest, ClusterAndQueryFingerprintsDiffer) {
  EXPECT_NE(FingerprintCluster(ArmCluster()), FingerprintCluster(X86Cluster()));
  const auto app = workloads::TpcH();
  EXPECT_NE(FingerprintQuery(app.queries[0]), FingerprintQuery(app.queries[1]));
}

TEST(FingerprintTest, EvalFingerprintSensitiveToDatasize) {
  const uint64_t a = CombineEvalFingerprint(1, 2, 3, 100.0);
  const uint64_t b = CombineEvalFingerprint(1, 2, 3, 200.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, CombineEvalFingerprint(1, 2, 3, 100.0));
}

// -------------------------------------------------------------- EvalCache

TEST(EvalCacheTest, LookupReturnsExactStoredMetrics) {
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 2);
  EvalCache cache(64);
  QueryMetrics m;
  m.name = "q1";
  m.exec_seconds = 123.456789;
  m.gc_seconds = 7.5;
  cache.Insert(42, conf, 100.0, 3, 4, m);
  QueryMetrics out;
  ASSERT_TRUE(cache.Lookup(42, conf, 100.0, 3, 4, &out));
  EXPECT_EQ(out.exec_seconds, m.exec_seconds);  // exact, not approximate
  EXPECT_EQ(out.gc_seconds, m.gc_seconds);
  EXPECT_EQ(out.name, m.name);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(EvalCacheTest, CollisionFallbackMissesInsteadOfReturningWrongValue) {
  ConfigSpace space(ArmCluster());
  const SparkConf a = SomeConf(space, 3);
  const SparkConf b = SomeConf(space, 4);
  EvalCache cache(64);
  QueryMetrics m;
  m.exec_seconds = 1.0;
  // Same fabricated fingerprint, different key material: the lookup must
  // detect the mismatch and report a (counted) collision miss.
  cache.Insert(7, a, 100.0, 1, 2, m);
  QueryMetrics out;
  EXPECT_FALSE(cache.Lookup(7, b, 100.0, 1, 2, &out));
  EXPECT_FALSE(cache.Lookup(7, a, 200.0, 1, 2, &out));
  EXPECT_FALSE(cache.Lookup(7, a, 100.0, 9, 2, &out));
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.collisions, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  // The original key still hits.
  EXPECT_TRUE(cache.Lookup(7, a, 100.0, 1, 2, &out));
}

TEST(EvalCacheTest, LruEvictionBoundsResidentEntries) {
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 5);
  // A multiple of the shard count, so every shard has nonzero capacity
  // and all 100 inserts land (smaller caps leave some shards at zero).
  const size_t cap = 32;
  EvalCache cache(cap);
  QueryMetrics m;
  for (uint64_t i = 0; i < 100; ++i) {
    m.exec_seconds = static_cast<double>(i);
    cache.Insert(i, conf, 100.0 + static_cast<double>(i), 1, 2, m);
  }
  EXPECT_LE(cache.size(), cap);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 100u);
  EXPECT_GE(stats.evictions, 100u - cap);
  EXPECT_EQ(stats.entries, cache.size());
}

TEST(EvalCacheTest, ZeroCapacityCacheNeverRetains) {
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 6);
  EvalCache cache(0);
  QueryMetrics m;
  cache.Insert(1, conf, 100.0, 1, 2, m);
  EXPECT_EQ(cache.size(), 0u);
  QueryMetrics out;
  EXPECT_FALSE(cache.Lookup(1, conf, 100.0, 1, 2, &out));
}

// ------------------------------------------- app-level (L1) entries

TEST(EvalCacheTest, AppLevelCollisionFallbackMisses) {
  ConfigSpace space(ArmCluster());
  const SparkConf a = SomeConf(space, 8);
  const SparkConf b = SomeConf(space, 9);
  EvalCache cache(64);
  std::vector<QueryMetrics> run(3);
  run[1].exec_seconds = 2.5;
  cache.InsertApp(7, a, 100.0, 11, 22, run.data(), run.size());
  std::vector<QueryMetrics> out(3);
  // Same fabricated fingerprint, different key material or query count.
  EXPECT_FALSE(cache.LookupApp(7, b, 100.0, 11, 22, 3, out.data()));
  EXPECT_FALSE(cache.LookupApp(7, a, 200.0, 11, 22, 3, out.data()));
  EXPECT_FALSE(cache.LookupApp(7, a, 100.0, 12, 22, 3, out.data()));
  EXPECT_FALSE(cache.LookupApp(7, a, 100.0, 11, 22, 2, out.data()));
  ASSERT_TRUE(cache.LookupApp(7, a, 100.0, 11, 22, 3, out.data()));
  EXPECT_EQ(out[1].exec_seconds, 2.5);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.app_misses, 4u);
  EXPECT_EQ(stats.app_hits, 1u);
  EXPECT_EQ(stats.collisions, 4u);
}

TEST(EvalCacheTest, AppEntriesBudgetedByQueryCount) {
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 10);
  // 32 QueryMetrics units across 16 shards: 2 units per shard, so a
  // 2-query run fits per shard but a second one evicts the first.
  EvalCache cache(32);
  std::vector<QueryMetrics> run(2);
  for (uint64_t i = 0; i < 50; ++i) {
    cache.InsertApp(i, conf, 100.0 + static_cast<double>(i), 1, 2, run.data(),
                    run.size());
  }
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.app_insertions, 50u);
  EXPECT_LE(stats.app_entries, 16u);  // one 2-unit entry per 2-unit shard
  EXPECT_GE(stats.app_evictions, 50u - 16u);
  // A run bigger than a whole shard budget is never retained.
  std::vector<QueryMetrics> big(3);
  cache.InsertApp(1000, conf, 999.0, 1, 2, big.data(), big.size());
  std::vector<QueryMetrics> out(3);
  EXPECT_FALSE(cache.LookupApp(1000, conf, 999.0, 1, 2, 3, out.data()));
}

// ------------------------------------------------- simulator + cache

TEST(SimCacheTest, CachedRunsAreBitIdenticalToUncached) {
  const auto app = workloads::TpcH();
  ConfigSpace space(ArmCluster());
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);

  EvalCache cache(1 << 16);
  ClusterSimulator plain(ArmCluster(), 99);
  ClusterSimulator cached(ArmCluster(), 99);
  cached.set_eval_cache(&cache);

  // Repeat configurations so the cached simulator takes both the miss and
  // the hit path; noise draws advance identically on both sides.
  for (uint64_t s = 0; s < 4; ++s) {
    const SparkConf conf = SomeConf(space, 10 + s % 2);
    const AppRunResult a = *plain.RunAppSubset(app, all, conf, 100.0);
    const AppRunResult b = *cached.RunAppSubset(app, all, conf, 100.0);
    ASSERT_EQ(a.per_query.size(), b.per_query.size());
    EXPECT_EQ(a.total_seconds, b.total_seconds);  // exact double equality
    EXPECT_EQ(a.gc_seconds, b.gc_seconds);
    EXPECT_EQ(a.shuffle_gb, b.shuffle_gb);
    EXPECT_EQ(a.any_oom, b.any_oom);
    for (size_t q = 0; q < a.per_query.size(); ++q) {
      EXPECT_EQ(a.per_query[q].exec_seconds, b.per_query[q].exec_seconds);
      EXPECT_EQ(a.per_query[q].scan_seconds, b.per_query[q].scan_seconds);
      EXPECT_EQ(a.per_query[q].shuffle_seconds,
                b.per_query[q].shuffle_seconds);
      EXPECT_EQ(a.per_query[q].gc_seconds, b.per_query[q].gc_seconds);
    }
  }
  const EvalCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);  // the repeated confs + noise-free keys hit
  EXPECT_EQ(plain.runs_performed(), cached.runs_performed());
}

TEST(SimCacheTest, HitsOccurAcrossSimulatorSeeds) {
  // The noise factor lives outside the memoized computation, so a second
  // simulator with a *different* seed re-uses the first one's entries.
  const auto app = workloads::HiBenchJoin();
  ConfigSpace space(ArmCluster());
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  const SparkConf conf = SomeConf(space, 11);

  EvalCache cache(1 << 16);
  ClusterSimulator sim_a(ArmCluster(), 1);
  sim_a.set_eval_cache(&cache);
  (void)sim_a.RunAppSubset(app, all, conf, 100.0);
  const uint64_t misses_after_first = cache.stats().misses;

  ClusterSimulator sim_b(ArmCluster(), 2);
  sim_b.set_eval_cache(&cache);
  (void)sim_b.RunAppSubset(app, all, conf, 100.0);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, misses_after_first);  // all hits on the 2nd run
  EXPECT_GE(stats.hits, static_cast<uint64_t>(app.num_queries()));
}

TEST(SimCacheTest, RepeatedSubsetRunServedByOneAppLevelHit) {
  const auto app = workloads::TpcH();
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 13);
  std::vector<int> subset = {1, 3, 5};

  EvalCache cache(1 << 16);
  ClusterSimulator sim(ArmCluster(), 4);
  sim.set_eval_cache(&cache);
  (void)sim.RunAppSubset(app, subset, conf, 100.0);
  EXPECT_EQ(cache.stats().app_hits, 0u);
  (void)sim.RunAppSubset(app, subset, conf, 100.0);
  const EvalCacheStats stats = cache.stats();
  // The whole repeat is one app-level hit; the per-query level is not
  // consulted at all on the warm path.
  EXPECT_EQ(stats.app_hits, 1u);
}

TEST(SimCacheTest, SubsetRunsShareQueryLevelEntries) {
  const auto app = workloads::TpcH();
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 14);
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);

  EvalCache cache(1 << 16);
  ClusterSimulator sim(ArmCluster(), 4);
  sim.set_eval_cache(&cache);
  (void)sim.RunAppSubset(app, all, conf, 100.0);
  const EvalCacheStats before = cache.stats();
  // A different subset misses at the app level but every query of it is
  // already resident at the query level (the RQA sharing path).
  std::vector<int> subset = {0, 2, 7};
  (void)sim.RunAppSubset(app, subset, conf, 100.0);
  const EvalCacheStats after = cache.stats();
  EXPECT_EQ(after.app_hits, before.app_hits);
  EXPECT_EQ(after.hits - after.app_hits,
            before.hits - before.app_hits + subset.size());
}

TEST(SimCacheTest, MutatedSingleQueryAppIsReFingerprinted) {
  // Rebuilding an app in place must not serve stale app-level entries:
  // the memoized app fingerprint re-validates against the query contents.
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 15);
  SparkSqlApp app = workloads::HiBenchScan();
  ASSERT_EQ(app.num_queries(), 1);
  std::vector<int> all = {0};

  SimParams quiet;
  quiet.noise_sigma = 0.0;  // compare pure model outputs
  EvalCache cache(1 << 16);
  ClusterSimulator sim(ArmCluster(), 4, quiet);
  sim.set_eval_cache(&cache);
  const double first = sim.RunAppSubset(app, all, conf, 100.0)->total_seconds;

  app.queries[0].input_frac *= 2.0;
  const double heavier = sim.RunAppSubset(app, all, conf, 100.0)->total_seconds;
  EXPECT_GT(heavier, first);

  ClusterSimulator plain(ArmCluster(), 4, quiet);
  EXPECT_EQ(heavier, plain.RunAppSubset(app, all, conf, 100.0)->total_seconds);
}

TEST(SimCacheTest, DifferentEnvironmentsDoNotShareEntries) {
  const auto app = workloads::HiBenchJoin();
  ConfigSpace space(ArmCluster());
  const SparkConf conf = SomeConf(space, 12);
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);

  EvalCache cache(1 << 16);
  ClusterSimulator arm(ArmCluster(), 1);
  arm.set_eval_cache(&cache);
  ClusterSimulator x86(X86Cluster(), 1);
  x86.set_eval_cache(&cache);
  (void)arm.RunAppSubset(app, all, conf, 100.0);
  const uint64_t hits_before = cache.stats().hits;
  (void)x86.RunAppSubset(app, all, conf, 100.0);
  // The x86 run must not hit the arm entries.
  EXPECT_EQ(cache.stats().hits, hits_before);
}

}  // namespace
}  // namespace locat::sparksim

// ------------------------------------------- end-to-end tuner identity

namespace locat {
namespace {

core::TuningResult TuneOnce(bool with_cache, int threads) {
  common::ThreadPool::SetGlobalThreads(threads);
  sparksim::EvalCache cache(1 << 18);
  sparksim::ClusterSimulator sim(sparksim::ArmCluster(), 5);
  if (with_cache) sim.set_eval_cache(&cache);
  core::TuningSession session(&sim, workloads::HiBenchAggregation());
  core::LocatTuner::Options opts;
  opts.seed = 3;
  opts.n_qcsa = 12;
  opts.n_iicp = 10;
  opts.min_iterations = 4;
  opts.max_iterations = 6;
  core::LocatTuner tuner(opts);
  core::TuningResult result = tuner.Tune(&session, 100.0);
  common::ThreadPool::SetGlobalThreads(0);  // restore default
  return result;
}

TEST(TunerSimCacheTest, OutputBitIdenticalCacheOnOffAcrossThreads) {
  const core::TuningResult reference = TuneOnce(/*with_cache=*/false, 1);
  for (bool with_cache : {false, true}) {
    for (int threads : {1, 4}) {
      if (!with_cache && threads == 1) continue;  // the reference itself
      const core::TuningResult got = TuneOnce(with_cache, threads);
      EXPECT_EQ(got.best_observed_seconds, reference.best_observed_seconds);
      EXPECT_EQ(got.optimization_seconds, reference.optimization_seconds);
      EXPECT_EQ(got.evaluations, reference.evaluations);
      ASSERT_EQ(got.trajectory.size(), reference.trajectory.size());
      for (size_t i = 0; i < got.trajectory.size(); ++i) {
        EXPECT_EQ(got.trajectory[i], reference.trajectory[i]);
      }
      for (int p = 0; p < sparksim::kNumParams; ++p) {
        EXPECT_EQ(got.best_conf.Get(static_cast<sparksim::ParamId>(p)),
                  reference.best_conf.Get(static_cast<sparksim::ParamId>(p)));
      }
    }
  }
}

}  // namespace
}  // namespace locat
