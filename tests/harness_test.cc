#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiments.h"

namespace locat::harness {
namespace {

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
  ExperimentRunner runner;
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

TEST(ExperimentRunnerTest, RunAllReturnsInInputOrder) {
  // The constructor's path argument is ignored: running cells and
  // destroying the runner writes nothing there.
  const std::string path =
      (std::filesystem::temp_directory_path() / "locat_test_ignored_path")
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
  std::vector<CellSpec> specs = {
      {"Random", "Scan", "x86", 100.0, 0},
      {"Random", "Scan", "x86", 200.0, 0},
  };
  {
    ExperimentRunner runner(path);
    const auto results = runner.RunAll(specs, 2);
    ASSERT_EQ(results.size(), 2u);
    // The 200 GB cell takes longer in simulated time than the 100 GB one.
    EXPECT_GT(results[1].default_app_seconds, results[0].default_app_seconds);
    // Re-running recomputes every cell to the same bits.
    const auto again = runner.RunAll(specs, 1);
    ASSERT_EQ(again.size(), 2u);
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(again[i].Serialize(), results[i].Serialize()) << i;
    }
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".lock"));
}

TEST(ExperimentRunnerTest, CellResultFieldsAreConsistent) {
  ExperimentRunner runner;
  const CellResult r = runner.Run({"Random", "TPC-H", "x86", 100.0, 0});
  EXPECT_GT(r.optimization_seconds, 0.0);
  EXPECT_GT(r.best_app_seconds, 0.0);
  EXPECT_GT(r.default_app_seconds, r.best_app_seconds);
  EXPECT_GT(r.evaluations, 0);
  // CSQ + CIQ is the per-query total (no submit overhead), so below the
  // full app time.
  EXPECT_LE(r.csq_seconds + r.ciq_seconds, r.best_app_seconds * 1.3);
  EXPECT_GT(r.csq_seconds, 0.0);
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
    ExperimentRunner runner;
    for (const auto& spec : specs) {
      expected.push_back(runner.Run(spec).Serialize());
    }
  }

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExperimentRunner runner;
    const std::vector<CellResult> results = runner.RunAll(specs, threads);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(results[i].Serialize(), expected[i]) << specs[i].Key();
    }
  }
}

TEST(PaperGridTest, ListsEveryFigureCellOnceAndLooksThemUpByIdentity) {
  const std::vector<CellSpec> specs = PaperGridSpecs();
  EXPECT_EQ(specs.size(), 267u);
  std::set<std::string> keys;
  std::set<std::string> tuners;
  for (const CellSpec& spec : specs) {
    EXPECT_TRUE(keys.insert(spec.Key()).second) << spec.Key();
    tuners.insert(spec.tuner);
  }
  // MakeTuner falls back to a baseline of another name for an unknown one.
  for (const std::string& tuner : tuners) {
    EXPECT_EQ(MakeTuner(tuner, 0)->name(), tuner);
  }
  // Figures 11-14: every compared tuner x app x size, on both clusters.
  for (const char* cluster : {"arm", "x86"}) {
    for (const std::string& app : AppNames()) {
      for (double ds : GridSizesGb()) {
        for (const std::string& tuner : ComparedTunerNames()) {
          EXPECT_EQ(keys.count(CellSpec{tuner, app, cluster, ds}.Key()), 1u)
              << tuner << " " << app << " " << cluster << " " << ds;
        }
      }
    }
  }

  // Placeholder results, one distinct value per cell: nothing is tuned.
  std::vector<CellResult> results(specs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    results[i].evaluations = static_cast<int>(i);
  }
  const GridResults grid(specs, results);
  for (size_t i = 0; i < specs.size(); ++i) {
    const CellSpec& s = specs[i];
    EXPECT_EQ(grid.At(s.tuner, s.app, s.cluster, s.datasize_gb).evaluations,
              static_cast<int>(i));
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(grid.At("LOCAT", "TPC-DS", "x86", 250.0), "not in the grid");
  EXPECT_DEATH(grid.At("Random", "Scan", "arm", 100.0), "not in the grid");
  EXPECT_DEATH(grid.At("LOCAT-AP", "TPC-DS", "arm", 100.0), "not in the grid");
  EXPECT_DEATH(GridResults({specs[0], specs[0]}, {CellResult{}, CellResult{}}),
               "listed twice");
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
