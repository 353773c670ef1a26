#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparksim/cluster.h"
#include "sparksim/config.h"
#include "sparksim/query_profile.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat::sparksim {
namespace {

QueryProfile ShuffleHeavyQuery() {
  QueryProfile q;
  q.name = "heavy";
  q.category = QueryCategory::kJoin;
  q.input_frac = 0.5;
  q.cpu_per_gb = 5.0;
  q.shuffle_ratio = 0.8;
  q.shuffle_cpu_per_gb = 50.0;
  q.num_shuffle_stages = 2;
  q.mem_per_task_factor = 10.0;
  q.skew = 1.8;
  return q;
}

QueryProfile ScanOnlyQuery() {
  QueryProfile q;
  q.name = "scan";
  q.category = QueryCategory::kSelection;
  q.input_frac = 0.4;
  q.cpu_per_gb = 4.5;
  q.shuffle_ratio = 0.0;
  q.num_shuffle_stages = 0;
  return q;
}

SparkConf DecentConf(const ConfigSpace& space) {
  SparkConf conf = space.DefaultConf();
  conf.Set(kExecutorInstances, 30);
  conf.Set(kExecutorCores, 4);
  conf.Set(kExecutorMemory, 12);
  conf.Set(kExecutorMemoryOverhead, 2048);
  conf.Set(kSqlShufflePartitions, 600);
  return space.Repair(conf);
}

// ----------------------------------------------------------- Table 2

TEST(ParamCatalogTest, Has38ParamsInTableOrder) {
  const auto& catalog = ParamCatalog();
  ASSERT_EQ(catalog.size(), static_cast<size_t>(kNumParams));
  EXPECT_EQ(kNumParams, 38);
  EXPECT_EQ(catalog[kBroadcastBlockSize].name, "spark.broadcast.blockSize");
  EXPECT_EQ(catalog[kSqlShufflePartitions].name,
            "spark.sql.shuffle.partitions");
  EXPECT_EQ(catalog[kSqlSortEnableRadixSort].name,
            "spark.sql.sort.enableRadixSort");
}

TEST(ParamCatalogTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : ParamCatalog()) names.insert(spec.name);
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumParams));
}

TEST(ParamCatalogTest, ElevenBooleansAfterNumerics) {
  const auto& catalog = ParamCatalog();
  int booleans = 0;
  for (const auto& spec : catalog) {
    if (spec.kind == ParamKind::kBool) ++booleans;
  }
  EXPECT_EQ(booleans, 11);
  // All booleans come after the numeric block (Table 2 layout).
  for (int i = kBroadcastCompress; i < kNumParams; ++i) {
    EXPECT_EQ(catalog[static_cast<size_t>(i)].kind, ParamKind::kBool);
  }
}

TEST(ParamCatalogTest, ResourceParamsMarked) {
  const auto& catalog = ParamCatalog();
  EXPECT_TRUE(catalog[kExecutorMemory].is_resource);
  EXPECT_TRUE(catalog[kDriverCores].is_resource);
  EXPECT_FALSE(catalog[kSqlShufflePartitions].is_resource);
}

TEST(ClusterTest, PaperClusterShapes) {
  const ClusterSpec arm = ArmCluster();
  EXPECT_EQ(arm.total_cores(), 384);          // 3 workers x 128 cores
  EXPECT_EQ(arm.total_memory_gb(), 1536.0);   // 3 x 512 GB
  EXPECT_EQ(arm.range_column, RangeColumn::kRangeA);
  const ClusterSpec x86 = X86Cluster();
  EXPECT_EQ(x86.total_cores(), 140);          // 7 workers x 20 cores
  EXPECT_EQ(x86.total_memory_gb(), 448.0);    // 7 x 64 GB
  EXPECT_EQ(x86.range_column, RangeColumn::kRangeB);
}

TEST(ConfigSpaceTest, RangesFollowCluster) {
  ConfigSpace arm(ArmCluster());
  ConfigSpace x86(X86Cluster());
  // Table 2: executor.instances 48-384 (A) vs 9-112 (B).
  EXPECT_DOUBLE_EQ(arm.lo(kExecutorInstances), 48.0);
  EXPECT_DOUBLE_EQ(arm.hi(kExecutorInstances), 384.0);
  EXPECT_DOUBLE_EQ(x86.lo(kExecutorInstances), 9.0);
  EXPECT_DOUBLE_EQ(x86.hi(kExecutorInstances), 112.0);
  // executor.memory 4-32 (A) vs 4-48 (B).
  EXPECT_DOUBLE_EQ(arm.hi(kExecutorMemory), 32.0);
  EXPECT_DOUBLE_EQ(x86.hi(kExecutorMemory), 48.0);
}

TEST(ConfigSpaceTest, IndexOfFindsEveryParam) {
  ConfigSpace space(X86Cluster());
  for (int i = 0; i < kNumParams; ++i) {
    EXPECT_EQ(space.IndexOf(space.spec(i).name), i);
  }
  EXPECT_EQ(space.IndexOf("spark.unknown"), -1);
}

TEST(ConfigSpaceTest, DefaultConfMatchesTable2) {
  ConfigSpace space(X86Cluster());
  SparkConf conf = space.DefaultConf();
  EXPECT_EQ(conf.GetInt(kSqlShufflePartitions), 200);
  EXPECT_EQ(conf.GetInt(kExecutorInstances), 2);
  EXPECT_DOUBLE_EQ(conf.Get(kMemoryFraction), 0.6);
  EXPECT_TRUE(conf.GetBool(kShuffleCompress));
  // "#": derived from the cluster.
  EXPECT_EQ(conf.GetInt(kDefaultParallelism), 140);
}

class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, UnitRoundTripIsIdentityOnValidConfs) {
  ConfigSpace space(GetParam() % 2 == 0 ? X86Cluster() : ArmCluster());
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const SparkConf conf = space.RandomValid(&rng);
  const SparkConf back = space.FromUnit(space.ToUnit(conf));
  for (int i = 0; i < kNumParams; ++i) {
    EXPECT_NEAR(back.Get(static_cast<ParamId>(i)),
                conf.Get(static_cast<ParamId>(i)), 1e-6)
        << space.spec(i).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest, ::testing::Range(0, 12));

class RandomValidTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomValidTest, RandomValidAlwaysValidates) {
  ConfigSpace space(GetParam() % 2 == 0 ? X86Cluster() : ArmCluster());
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  for (int i = 0; i < 20; ++i) {
    const SparkConf conf = space.RandomValid(&rng);
    EXPECT_TRUE(space.Validate(conf).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomValidTest, ::testing::Range(0, 10));

TEST(ConfigSpaceTest, ValidateRejectsSection512Violations) {
  ConfigSpace space(X86Cluster());
  SparkConf conf = space.RandomValid(
      [] {
        static Rng rng(99);
        return &rng;
      }());

  SparkConf over_cores = conf;
  over_cores.Set(kExecutorCores, 17);  // container cap is 16
  EXPECT_FALSE(space.Validate(over_cores).ok());

  SparkConf over_container_mem = conf;
  over_container_mem.Set(kExecutorMemory, 48);
  over_container_mem.Set(kExecutorMemoryOverhead, 49152);
  over_container_mem.Set(kMemoryOffHeapSize, 49152);
  EXPECT_FALSE(space.Validate(over_container_mem).ok());

  SparkConf over_cluster = conf;
  over_cluster.Set(kExecutorCores, 16);
  over_cluster.Set(kExecutorInstances, 112);  // 112*16 > 140 cores
  EXPECT_FALSE(space.Validate(over_cluster).ok());
}

TEST(ConfigSpaceTest, RepairFixesArbitraryConf) {
  ConfigSpace space(X86Cluster());
  SparkConf wild;
  for (int i = 0; i < kNumParams; ++i) {
    wild.Set(static_cast<ParamId>(i), 1e9);
  }
  const SparkConf repaired = space.Repair(wild);
  EXPECT_TRUE(space.Validate(repaired).ok());
}

TEST(SparkConfTest, ToStringContainsEveryParam) {
  ConfigSpace space(X86Cluster());
  const std::string s = space.DefaultConf().ToString();
  for (int i = 0; i < kNumParams; ++i) {
    EXPECT_NE(s.find(space.spec(i).name), std::string::npos);
  }
}

// -------------------------------------------------------------- Queries

TEST(QueryProfileTest, SubsetAndIndexOf) {
  SparkSqlApp app;
  app.name = "test";
  app.queries = {ScanOnlyQuery(), ShuffleHeavyQuery()};
  EXPECT_EQ(app.IndexOf("heavy"), 1);
  EXPECT_EQ(app.IndexOf("nope"), -1);
  // A reduced query application runs only the queries it names.
  ClusterSimulator sim(X86Cluster(), 1);
  ConfigSpace space(sim.cluster());
  const auto rqa =
      sim.RunAppSubset(app, {1}, space.Repair(space.DefaultConf()), 100.0);
  ASSERT_TRUE(rqa.ok());
  ASSERT_EQ(rqa->per_query.size(), 1u);
  EXPECT_EQ(rqa->per_query[0].name, "heavy");
}

// Per-query names view the app's queries in query_indices order, on the
// one-shot path and on the size-term path alike.
TEST(QueryProfileTest, SubsetNamesFollowQueryIndices) {
  SparkSqlApp app;
  app.name = "test";
  app.queries = {ScanOnlyQuery(), ShuffleHeavyQuery()};
  ClusterSimulator sim(X86Cluster(), 1);
  ConfigSpace space(sim.cluster());
  const SparkConf conf = space.Repair(space.DefaultConf());
  const std::vector<int> order = {1, 0, 1};
  const AppSizeTerms sized = sim.DeriveSizeTerms(app, 100.0);
  for (const StatusOr<AppRunResult>& run :
       {sim.RunAppSubset(app, order, conf, 100.0),
        sim.RunAppSubset(app, sized, order, conf)}) {
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->per_query.size(), order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(run->per_query[i].name,
                app.queries[static_cast<size_t>(order[i])].name);
      EXPECT_EQ(run->per_query[i].name.data(),
                app.queries[static_cast<size_t>(order[i])].name.data());
    }
  }
  // Size terms for another number of queries, or derived by another
  // simulator, are refused, not read out of bounds.
  SparkSqlApp one = app;
  one.queries.pop_back();
  const StatusOr<AppRunResult> wrong = sim.RunAppSubset(
      app, sim.DeriveSizeTerms(one, 100.0), std::vector<int>{0}, conf);
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  ClusterSimulator other(ArmCluster(), 1);
  const StatusOr<AppRunResult> foreign = sim.RunAppSubset(
      app, other.DeriveSizeTerms(app, 100.0), std::vector<int>{0}, conf);
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ Simulator

TEST(SimulatorTest, DeterministicForSameSeed) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  const SparkConf conf = DecentConf(space);
  ClusterSimulator a(cluster, 42);
  ClusterSimulator b(cluster, 42);
  const QueryMetrics ma = a.RunQuery(ShuffleHeavyQuery(), conf, 200.0);
  const QueryMetrics mb = b.RunQuery(ShuffleHeavyQuery(), conf, 200.0);
  EXPECT_DOUBLE_EQ(ma.exec_seconds, mb.exec_seconds);
  EXPECT_DOUBLE_EQ(ma.gc_seconds, mb.gc_seconds);
}

TEST(SimulatorTest, NoiselessRunsRepeatExactly) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  const SparkConf conf = DecentConf(space);
  const double t1 = sim.RunQuery(ShuffleHeavyQuery(), conf, 100.0).exec_seconds;
  const double t2 = sim.RunQuery(ShuffleHeavyQuery(), conf, 100.0).exec_seconds;
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(SimulatorTest, MetricsComponentsAreConsistent) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  const QueryMetrics m =
      sim.RunQuery(ShuffleHeavyQuery(), DecentConf(space), 200.0);
  EXPECT_GT(m.exec_seconds, 0.0);
  EXPECT_GE(m.exec_seconds,
            m.scan_seconds + m.shuffle_seconds + m.gc_seconds - 1e-9);
  EXPECT_GT(m.shuffle_gb, 0.0);
}

TEST(SimulatorTest, TimeGrowsWithDataSize) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  const SparkConf conf = DecentConf(space);
  const double t100 =
      sim.RunQuery(ShuffleHeavyQuery(), conf, 100.0).exec_seconds;
  const double t400 =
      sim.RunQuery(ShuffleHeavyQuery(), conf, 400.0).exec_seconds;
  EXPECT_GT(t400, 2.0 * t100);
}

TEST(SimulatorTest, ScanQueryInsensitiveToShufflePartitions) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkConf a = DecentConf(space);
  SparkConf b = a;
  b.Set(kSqlShufflePartitions, 1000);
  const double ta = sim.RunQuery(ScanOnlyQuery(), a, 300.0).exec_seconds;
  const double tb = sim.RunQuery(ScanOnlyQuery(), b, 300.0).exec_seconds;
  EXPECT_NEAR(ta, tb, 0.05 * ta);
}

TEST(SimulatorTest, TinyMemoryTriggersOomOnHeavyQuery) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkConf bad = DecentConf(space);
  bad.Set(kExecutorMemory, 4);
  bad.Set(kExecutorCores, 16);
  bad.Set(kSqlShufflePartitions, 100);
  bad.Set(kMemoryOffHeapSize, 0);
  bad = space.Repair(bad);
  const QueryMetrics m = sim.RunQuery(ShuffleHeavyQuery(), bad, 300.0);
  EXPECT_TRUE(m.oom);
  const QueryMetrics good =
      sim.RunQuery(ShuffleHeavyQuery(), DecentConf(space), 300.0);
  EXPECT_GT(m.exec_seconds, 2.0 * good.exec_seconds);
}

TEST(SimulatorTest, MoreMemoryNeverOomsWhenDecentConfDoesnt) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkConf big = DecentConf(space);
  big.Set(kExecutorMemory, 40);
  big.Set(kExecutorCores, 2);
  big = space.Repair(big);
  EXPECT_FALSE(sim.RunQuery(ShuffleHeavyQuery(), big, 100.0).oom);
}

TEST(SimulatorTest, BroadcastThresholdFlipsJoinStrategy) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  QueryProfile q = ShuffleHeavyQuery();
  q.broadcastable_mb = 5.0;  // 5 MB dimension table at 100 GB
  SparkConf no_bcast = DecentConf(space);
  no_bcast.Set(kSqlAutoBroadcastJoinThreshold, 1024);  // 1 MB: too small
  SparkConf bcast = no_bcast;
  bcast.Set(kSqlAutoBroadcastJoinThreshold, 8192);  // 8 MB: broadcasts
  const QueryMetrics m_no = sim.RunQuery(q, no_bcast, 100.0);
  const QueryMetrics m_yes = sim.RunQuery(q, bcast, 100.0);
  EXPECT_LT(m_yes.shuffle_gb, m_no.shuffle_gb);
  EXPECT_LT(m_yes.exec_seconds, m_no.exec_seconds);
}

TEST(SimulatorTest, ShuffleCompressionReducesNetworkTime) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkConf on = DecentConf(space);
  on.Set(kShuffleCompress, 1.0);
  SparkConf off = on;
  off.Set(kShuffleCompress, 0.0);
  // Large shuffle: compression wins despite CPU cost.
  const double t_on = sim.RunQuery(ShuffleHeavyQuery(), on, 400.0).exec_seconds;
  const double t_off =
      sim.RunQuery(ShuffleHeavyQuery(), off, 400.0).exec_seconds;
  EXPECT_LT(t_on, t_off);
}

TEST(SimulatorTest, GcRespondsToHeapPressure) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkConf tight = DecentConf(space);
  tight.Set(kExecutorMemory, 4);
  tight.Set(kExecutorCores, 8);
  tight = space.Repair(tight);
  const double gc_tight =
      sim.RunQuery(ShuffleHeavyQuery(), tight, 300.0).gc_seconds;
  const double gc_decent =
      sim.RunQuery(ShuffleHeavyQuery(), DecentConf(space), 300.0).gc_seconds;
  EXPECT_GT(gc_tight, gc_decent);
}

TEST(SimulatorTest, RunAppAggregatesQueries) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkSqlApp app;
  app.name = "two";
  app.queries = {ScanOnlyQuery(), ShuffleHeavyQuery()};
  const AppRunResult result = sim.RunApp(app, DecentConf(space), 100.0);
  ASSERT_EQ(result.per_query.size(), 2u);
  double sum = 0.0;
  for (const auto& q : result.per_query) sum += q.exec_seconds;
  EXPECT_GT(result.total_seconds, sum);  // includes submit overhead
  EXPECT_LT(result.total_seconds, sum + 60.0);
}

TEST(SimulatorTest, RunAppSubsetIsCheaper) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkSqlApp app;
  app.queries = {ScanOnlyQuery(), ShuffleHeavyQuery()};
  const SparkConf conf = DecentConf(space);
  const double full = sim.RunApp(app, conf, 200.0).total_seconds;
  const double subset = sim.RunAppSubset(app, {0}, conf, 200.0)->total_seconds;
  EXPECT_LT(subset, full);
}

TEST(SimulatorTest, RunCounterAdvances) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  ClusterSimulator sim(cluster, 1);
  SparkSqlApp app;
  app.queries = {ScanOnlyQuery(), ShuffleHeavyQuery()};
  sim.RunApp(app, DecentConf(space), 100.0);
  EXPECT_EQ(sim.runs_performed(), 2);
}

TEST(SimulatorTest, OverheadStarvationSlowsShuffles) {
  const ClusterSpec cluster = X86Cluster();
  ConfigSpace space(cluster);
  SimParams params;
  params.noise_sigma = 0.0;
  ClusterSimulator sim(cluster, 1, params);
  SparkConf skimpy = DecentConf(space);
  skimpy.Set(kExecutorMemory, 40);
  skimpy.Set(kExecutorMemoryOverhead, 0);
  skimpy = space.Repair(skimpy);
  SparkConf ample = skimpy;
  ample.Set(kExecutorMemoryOverhead, 6144);
  ample = space.Repair(ample);
  const double t_skimpy =
      sim.RunQuery(ShuffleHeavyQuery(), skimpy, 300.0).exec_seconds;
  const double t_ample =
      sim.RunQuery(ShuffleHeavyQuery(), ample, 300.0).exec_seconds;
  EXPECT_GT(t_skimpy, 1.2 * t_ample);
}

class ClusterParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterParityTest, AllQueriesFinitePositive) {
  const ClusterSpec cluster =
      std::string(GetParam()) == "arm" ? ArmCluster() : X86Cluster();
  ConfigSpace space(cluster);
  ClusterSimulator sim(cluster, 3);
  Rng rng(8);
  for (int i = 0; i < 5; ++i) {
    const SparkConf conf = space.RandomValid(&rng);
    for (const auto& q : {ScanOnlyQuery(), ShuffleHeavyQuery()}) {
      const QueryMetrics m = sim.RunQuery(q, conf, 250.0);
      EXPECT_GT(m.exec_seconds, 0.0);
      EXPECT_TRUE(std::isfinite(m.exec_seconds));
      EXPECT_GE(m.gc_seconds, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Clusters, ClusterParityTest,
                         ::testing::Values("arm", "x86"));

// ------------------------------------------------- cost-model pin

// FNV-1a over 64-bit words.
uint64_t FoldWord(uint64_t h, uint64_t word) {
  return (h ^ word) * 0x100000001b3ULL;
}

uint64_t FoldMetrics(uint64_t h, const QueryMetrics& m) {
  for (const char c : m.name) h = FoldWord(h, static_cast<unsigned char>(c));
  for (const double v : {m.exec_seconds, m.gc_seconds, m.scan_seconds,
                         m.shuffle_seconds, m.shuffle_gb, m.spill_gb,
                         m.scan_tasks, m.task_waves, m.oom_severity}) {
    h = FoldWord(h, std::bit_cast<uint64_t>(v));
  }
  h = FoldWord(h, m.oom ? 1 : 0);
  h = FoldWord(h, m.failed ? 1 : 0);
  return FoldWord(h, static_cast<uint64_t>(m.retries));
}

// Spark defaults, seeded random configurations and hand-built edge cases
// that reach every branch of the cost model: each zstd level, off-heap
// on and off, shuffle/spill compression on and off, and a starved heap
// that spills and climbs the OOM ramp.
std::vector<SparkConf> PinConfs(const ConfigSpace& space) {
  std::vector<SparkConf> confs = {space.DefaultConf()};
  Rng rng(2024);
  for (int i = 0; i < 40; ++i) confs.push_back(space.RandomValid(&rng));
  const SparkConf decent = DecentConf(space);
  for (int level = 1; level <= 5; ++level) {
    SparkConf c = decent;
    c.Set(kZstdLevel, level);
    confs.push_back(c);
  }
  for (const bool offheap : {false, true}) {
    SparkConf c = decent;
    c.Set(kMemoryOffHeapEnabled, offheap ? 1.0 : 0.0);
    c.Set(kMemoryOffHeapSize, 2048);
    confs.push_back(c);
  }
  for (const bool shuffle : {false, true}) {
    for (const bool spill : {false, true}) {
      SparkConf c = decent;
      c.Set(kShuffleCompress, shuffle ? 1.0 : 0.0);
      c.Set(kShuffleSpillCompress, spill ? 1.0 : 0.0);
      c.Set(kZstdLevel, 4);
      confs.push_back(c);
    }
  }
  SparkConf starved = decent;
  starved.Set(kExecutorMemory, 1);
  starved.Set(kExecutorCores, 8);
  starved.Set(kExecutorMemoryOverhead, 384);
  starved.Set(kMemoryFraction, 0.9);
  starved.Set(kSqlShufflePartitions, 50);
  starved.Set(kSqlCodegenMaxFields, 60);
  confs.push_back(starved);
  starved.Set(kShuffleSpillCompress, 0.0);
  starved.Set(kMemoryOffHeapEnabled, 1.0);
  starved.Set(kMemoryOffHeapSize, 512);
  confs.push_back(starved);
  return confs;
}

void ExpectSameBits(const QueryMetrics& a, const QueryMetrics& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(FoldMetrics(0, a), FoldMetrics(0, b)) << a.name;
}

// Every QueryMetrics bit of the noise-free cost model, folded over the
// five benchmark apps x both clusters x three data sizes x the PinConfs
// grid. A change that moves any simulated time moves this hash; a pure
// speed-up must leave it equal.
TEST(SimulatorCostModelTest, OutputsPinnedAcrossConfigSpace) {
  SimParams params;
  params.noise_sigma = 0.0;
  uint64_t h = 0xcbf29ce484222325ULL;
  bool saw_spill = false;
  bool saw_oom_ramp = false;
  for (const ClusterSpec& cluster : {ArmCluster(), X86Cluster()}) {
    const ConfigSpace space(cluster);
    const std::vector<SparkConf> confs = PinConfs(space);
    ClusterSimulator sim(cluster, 7, params);
    for (const SparkSqlApp& app : workloads::AllBenchmarks()) {
      std::vector<int> all(app.queries.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
      for (const double ds : {100.0, 300.0, 1000.0}) {
        for (const SparkConf& conf : confs) {
          const StatusOr<AppRunResult> run =
              sim.RunAppSubset(app, all, conf, ds);
          ASSERT_TRUE(run.ok());
          ASSERT_EQ(run->per_query.size(), app.queries.size());
          for (size_t i = 0; i < app.queries.size(); ++i) {
            const QueryMetrics& m = run->per_query[i];
            ExpectSameBits(m, sim.RunQuery(app.queries[i], conf, ds));
            saw_spill = saw_spill || m.spill_gb > 0.0;
            saw_oom_ramp = saw_oom_ramp || m.oom_severity > 1.0;
            h = FoldMetrics(h, m);
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_spill);
  EXPECT_TRUE(saw_oom_ramp);
  EXPECT_EQ(h, 0xe75291a7f8f37475ULL);
}

}  // namespace
}  // namespace locat::sparksim
