#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiments.h"

namespace locat::harness {
namespace {

std::string TempCachePath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("locat_test_cache_" + tag + ".csv"))
      .string();
}

TEST(CellResultTest, SerializeRoundTrip) {
  CellResult r;
  r.optimization_seconds = 1234.5;
  r.best_app_seconds = 678.9;
  r.default_app_seconds = 9999.0;
  r.gc_seconds = 12.5;
  r.csq_seconds = 400.0;
  r.ciq_seconds = 278.9;
  r.evaluations = 42;
  CellResult back;
  ASSERT_TRUE(CellResult::Deserialize(r.Serialize(), &back));
  EXPECT_DOUBLE_EQ(back.optimization_seconds, 1234.5);
  EXPECT_DOUBLE_EQ(back.best_app_seconds, 678.9);
  EXPECT_DOUBLE_EQ(back.ciq_seconds, 278.9);
  EXPECT_EQ(back.evaluations, 42);
}

TEST(CellResultTest, DeserializeRejectsGarbage) {
  CellResult out;
  EXPECT_FALSE(CellResult::Deserialize("not,a,result", &out));
}

TEST(CellSpecTest, KeyIncludesEveryField) {
  CellSpec a{"LOCAT", "TPC-DS", "x86", 300.0, 0};
  CellSpec b = a;
  EXPECT_EQ(a.Key(), b.Key());
  b.datasize_gb = 400.0;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.tuner = "DAC";
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.seed = 1;
  EXPECT_NE(a.Key(), b.Key());
}

TEST(MakeTunerTest, SupportsAllNames) {
  EXPECT_EQ(MakeTuner("LOCAT", 0)->name(), "LOCAT");
  EXPECT_EQ(MakeTuner("LOCAT-AP", 0)->name(), "LOCAT-AP");
  EXPECT_EQ(MakeTuner("Tuneful", 0)->name(), "Tuneful");
  EXPECT_EQ(MakeTuner("DAC+QIT", 0)->name(), "DAC+QIT");
  EXPECT_EQ(MakeTuner("QTune+QCSA", 0)->name(), "QTune+QCSA");
  EXPECT_EQ(MakeTuner("GBO-RL+IICP", 0)->name(), "GBO-RL+IICP");
}

TEST(MakeAppClusterTest, Factories) {
  EXPECT_EQ(MakeApp("TPC-DS").num_queries(), 104);
  EXPECT_EQ(MakeApp("Scan").num_queries(), 1);
  EXPECT_EQ(MakeCluster("arm").name, "arm4");
  EXPECT_EQ(MakeCluster("x86").name, "x86_8");
  EXPECT_EQ(SotaTunerNames().size(), 4u);
}

TEST(ExperimentRunnerTest, CanonicalCsqMatchesPaperForTpcDs) {
  ExperimentRunner runner(TempCachePath("csq"));
  const std::vector<int> csq = runner.CanonicalCsq("TPC-DS", "x86");
  // The paper keeps 23 of 104 queries (Section 5.2); allow small slack for
  // the stochastic tertile boundary.
  EXPECT_GE(csq.size(), 18u);
  EXPECT_LE(csq.size(), 30u);
  // Q72 must be in the configuration-sensitive set.
  const auto app = MakeApp("TPC-DS");
  const int q72 = app.IndexOf("q72");
  EXPECT_NE(std::find(csq.begin(), csq.end(), q72), csq.end());
  // Q04 (long but insensitive) must not.
  const int q04 = app.IndexOf("q04");
  EXPECT_EQ(std::find(csq.begin(), csq.end(), q04), csq.end());
}

TEST(ExperimentRunnerTest, CachePersistsAcrossInstances) {
  const std::string path = TempCachePath("persist");
  std::remove(path.c_str());
  CellSpec spec{"Random", "Scan", "x86", 100.0, 0};
  CellResult first;
  {
    ExperimentRunner runner(path);
    first = runner.Run(spec);
    runner.Save();
  }
  ExperimentRunner reloaded(path);
  const CellResult second = reloaded.Run(spec);
  EXPECT_DOUBLE_EQ(first.optimization_seconds, second.optimization_seconds);
  EXPECT_DOUBLE_EQ(first.best_app_seconds, second.best_app_seconds);
  std::remove(path.c_str());
}

TEST(ExperimentRunnerTest, RunAllReturnsInInputOrder) {
  const std::string path = TempCachePath("order");
  std::remove(path.c_str());
  ExperimentRunner runner(path);
  std::vector<CellSpec> specs = {
      {"Random", "Scan", "x86", 100.0, 0},
      {"Random", "Scan", "x86", 200.0, 0},
  };
  const auto results = runner.RunAll(specs, 2);
  ASSERT_EQ(results.size(), 2u);
  // The 200 GB cell takes longer in simulated time than the 100 GB one.
  EXPECT_GT(results[1].default_app_seconds, results[0].default_app_seconds);
  // Re-running hits the cache and returns identical numbers.
  const auto again = runner.RunAll(specs, 1);
  EXPECT_DOUBLE_EQ(again[0].best_app_seconds, results[0].best_app_seconds);
  std::remove(path.c_str());
}

TEST(ExperimentRunnerTest, CellResultFieldsAreConsistent) {
  const std::string path = TempCachePath("fields");
  std::remove(path.c_str());
  ExperimentRunner runner(path);
  const CellResult r = runner.Run({"Random", "TPC-H", "x86", 100.0, 0});
  EXPECT_GT(r.optimization_seconds, 0.0);
  EXPECT_GT(r.best_app_seconds, 0.0);
  EXPECT_GT(r.default_app_seconds, r.best_app_seconds);
  EXPECT_GT(r.evaluations, 0);
  // CSQ + CIQ is the per-query total (no submit overhead), so below the
  // full app time.
  EXPECT_LE(r.csq_seconds + r.ciq_seconds, r.best_app_seconds * 1.3);
  EXPECT_GT(r.csq_seconds, 0.0);
  std::remove(path.c_str());
}

TEST(ExperimentRunnerTest, FindAndInsertResult) {
  const std::string path = TempCachePath("findinsert");
  std::remove(path.c_str());
  ExperimentRunner runner(path);
  CellSpec spec{"Random", "Scan", "x86", 100.0, 7};
  EXPECT_FALSE(runner.Find(spec, nullptr));
  CellResult result;
  result.best_app_seconds = 123.0;
  runner.InsertResult(spec, result);
  CellResult out;
  ASSERT_TRUE(runner.Find(spec, &out));
  EXPECT_DOUBLE_EQ(out.best_app_seconds, 123.0);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(ExperimentRunnerTest, StaleCacheRowsAreNotServed) {
  // Before the results cache was versioned apart from the cell key, a
  // row's key was the bare spec.Key(). Such a row holds a previous
  // tuner version's result and must be recomputed, not served.
  const std::string path = TempCachePath("stale");
  std::remove(path.c_str());
  CellSpec spec{"Random", "Scan", "x86", 100.0, 5};
  CellResult stale;
  stale.best_app_seconds = 1.0;
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\t%s\n", spec.Key().c_str(),
                 stale.Serialize().c_str());
    std::fclose(f);
  }
  {
    ExperimentRunner runner(path);
    EXPECT_FALSE(runner.Find(spec, nullptr));
    EXPECT_NE(runner.Run(spec).best_app_seconds, 1.0);
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(ExperimentRunnerTest, ConcurrentSavesMergeWithoutLosingRows) {
  // Two runners share one results.csv: each computes a different cell and
  // saves concurrently. The advisory lock + merge + atomic rename must
  // preserve both rows regardless of who wins the race.
  const std::string path = TempCachePath("race");
  std::remove(path.c_str());
  const CellSpec spec_a{"Random", "Scan", "x86", 100.0, 0};
  const CellSpec spec_b{"Random", "Scan", "x86", 100.0, 1};
  CellResult ra;
  CellResult rb;
  {
    ExperimentRunner a(path);
    ExperimentRunner b(path);  // loaded before either wrote anything
    std::thread ta([&] {
      ra = a.Run(spec_a);
      a.Save();
    });
    std::thread tb([&] {
      rb = b.Run(spec_b);
      b.Save();
    });
    ta.join();
    tb.join();
  }
  ExperimentRunner reloaded(path);
  CellResult out;
  ASSERT_TRUE(reloaded.Find(spec_a, &out));
  EXPECT_DOUBLE_EQ(out.best_app_seconds, ra.best_app_seconds);
  ASSERT_TRUE(reloaded.Find(spec_b, &out));
  EXPECT_DOUBLE_EQ(out.best_app_seconds, rb.best_app_seconds);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(ExperimentRunnerTest, RunAllMatchesSerialRunAcrossThreadCounts) {
  // Deliberately imbalanced: the few slow QTune TPC-DS cells come first,
  // then many fast Random Scan cells. Whichever worker claims each cell,
  // every slot must hold exactly what a serial Run computes for it.
  std::vector<CellSpec> specs;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    specs.push_back({"QTune", "TPC-DS", "x86", 100.0, seed});
  }
  for (uint64_t seed = 0; seed < 16; ++seed) {
    specs.push_back({"Random", "Scan", seed % 2 ? "arm" : "x86",
                     100.0 + 100.0 * static_cast<double>(seed % 3), seed});
  }

  std::vector<std::string> expected;
  {
    const std::string path = TempCachePath("serial");
    std::remove(path.c_str());
    ExperimentRunner runner(path);
    for (const auto& spec : specs) {
      expected.push_back(runner.Run(spec).Serialize());
    }
    std::remove(path.c_str());
  }

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string path = TempCachePath("threads" + std::to_string(threads));
    std::remove(path.c_str());
    {
      ExperimentRunner runner(path);
      const std::vector<CellResult> results = runner.RunAll(specs, threads);
      ASSERT_EQ(results.size(), specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].Serialize(), expected[i]) << specs[i].Key();
        CellResult found;
        ASSERT_TRUE(runner.Find(specs[i], &found)) << specs[i].Key();
        EXPECT_EQ(found.Serialize(), expected[i]) << specs[i].Key();
      }
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
  }
}

TEST(WarmSequenceTest, AdaptsAcrossDataSizes) {
  const WarmSequenceResult result =
      RunLocatWarmSequence("Aggregation", "x86", {100.0, 200.0});
  ASSERT_EQ(result.datasizes_gb.size(), 2u);
  // The warm (second) tuning pass costs less than the cold one.
  EXPECT_LT(result.incremental_optimization_seconds[1],
            result.incremental_optimization_seconds[0]);
  EXPECT_GT(result.best_app_seconds[0], 0.0);
}

}  // namespace
}  // namespace locat::harness
