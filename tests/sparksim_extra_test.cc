#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparksim/properties_io.h"
#include "sparksim/simulator.h"
#include "task_sim.h"

namespace locat::sparksim {
namespace {

// --------------------------------------------------- TaskLevelSimulator

TEST(TaskSimTest, SingleSlotSerializesAllWork) {
  TaskLevelSimulator sim(/*slots=*/1, /*speed=*/1.0);
  StageSpec stage;
  stage.num_tasks = 4;
  stage.core_seconds = 8.0;  // 2 s per task
  auto result = sim.Execute({stage});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->makespan_s, 8.0, 1e-9);
  EXPECT_EQ(result->tasks.size(), 4u);
}

TEST(TaskSimTest, PerfectParallelismWithEnoughSlots) {
  TaskLevelSimulator sim(8, 1.0);
  StageSpec stage;
  stage.num_tasks = 8;
  stage.core_seconds = 16.0;  // 2 s per task, one wave
  auto result = sim.Execute({stage});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->makespan_s, 2.0, 1e-9);
}

TEST(TaskSimTest, MakespanBoundedBelowByWorkConservation) {
  Rng rng(3);
  TaskLevelSimulator sim(6, 1.0);
  StageSpec stage;
  stage.num_tasks = 23;
  stage.core_seconds = 57.0;
  stage.skew = 1.7;
  auto result = sim.Execute({stage}, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->makespan_s, stage.core_seconds / 6.0 - 1e-9);
  // Work conservation: total task time equals the stage work.
  double total = 0.0;
  for (const auto& t : result->tasks) total += t.end_s - t.start_s;
  EXPECT_NEAR(total, 57.0, 1e-6);
}

TEST(TaskSimTest, NoSlotRunsTwoTasksAtOnce) {
  Rng rng(5);
  TaskLevelSimulator sim(3, 1.0);
  StageSpec stage;
  stage.num_tasks = 11;
  stage.core_seconds = 20.0;
  stage.skew = 2.0;
  auto result = sim.Execute({stage}, &rng);
  ASSERT_TRUE(result.ok());
  for (size_t a = 0; a < result->tasks.size(); ++a) {
    for (size_t b = a + 1; b < result->tasks.size(); ++b) {
      const auto& ta = result->tasks[a];
      const auto& tb = result->tasks[b];
      if (ta.slot != tb.slot) continue;
      const bool disjoint =
          ta.end_s <= tb.start_s + 1e-9 || tb.end_s <= ta.start_s + 1e-9;
      EXPECT_TRUE(disjoint);
    }
  }
}

TEST(TaskSimTest, DependenciesSequenceStages) {
  TaskLevelSimulator sim(4, 1.0);
  StageSpec a;
  a.num_tasks = 4;
  a.core_seconds = 4.0;
  StageSpec b = a;
  b.deps = {0};
  auto result = sim.Execute({a, b});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->stage_end_s[0], 1.0, 1e-9);
  EXPECT_NEAR(result->stage_end_s[1], 2.0, 1e-9);
  // Every stage-1 task starts after stage 0 completed.
  for (const auto& t : result->tasks) {
    if (t.stage == 1) {
      EXPECT_GE(t.start_s, result->stage_end_s[0] - 1e-9);
    }
  }
}

TEST(TaskSimTest, DetectsCycleAndBadInput) {
  TaskLevelSimulator sim(2, 1.0);
  StageSpec a;
  a.num_tasks = 1;
  a.core_seconds = 1.0;
  a.deps = {1};
  StageSpec b = a;
  b.deps = {0};
  EXPECT_FALSE(sim.Execute({a, b}).ok());

  StageSpec bad;
  bad.num_tasks = 0;
  EXPECT_FALSE(sim.Execute({bad}).ok());
  StageSpec oob;
  oob.num_tasks = 1;
  oob.deps = {7};
  EXPECT_FALSE(sim.Execute({oob}).ok());
}

TEST(TaskSimTest, WaveFormulaApproximatesEventSimulation) {
  // The analytical model's stage time, per_task * (waves - 1 + skew),
  // should track the discrete-event makespan within ~20% over a range of
  // shapes.
  Rng rng(7);
  for (int tasks : {40, 130, 611}) {
    for (double skew : {1.0, 1.5, 2.2}) {
      const int slots = 100;
      StageSpec stage;
      stage.num_tasks = tasks;
      stage.core_seconds = 300.0;
      stage.skew = skew;
      TaskLevelSimulator sim(slots, 1.0);
      auto result = sim.Execute({stage}, &rng);
      ASSERT_TRUE(result.ok());
      const double per_task = stage.core_seconds / tasks;
      const double waves = std::ceil(static_cast<double>(tasks) / slots);
      const double analytical = per_task * (waves - 1.0 + skew);
      // The wave formula is a (deliberately pessimistic) upper envelope:
      // LPT packing overlaps stragglers with the partial last wave, so
      // the event-driven makespan is at most ~10% above it and never
      // below half of it.
      EXPECT_LE(result->makespan_s, 1.10 * analytical)
          << "tasks=" << tasks << " skew=" << skew;
      EXPECT_GE(result->makespan_s, 0.50 * analytical)
          << "tasks=" << tasks << " skew=" << skew;
    }
  }
}

// ---------------------------------------------------------- PropertiesIo

TEST(PropertiesIoTest, RoundTripsRandomConfs) {
  ConfigSpace space(X86Cluster());
  Rng rng(13);
  for (int i = 0; i < 5; ++i) {
    const SparkConf conf = space.RandomValid(&rng);
    const auto back =
        ParseSparkProperties(SparkPropertiesToString(conf), space.DefaultConf());
    ASSERT_TRUE(back.ok());
    for (int p = 0; p < kNumParams; ++p) {
      EXPECT_NEAR(back->Get(static_cast<ParamId>(p)),
                  conf.Get(static_cast<ParamId>(p)), 1e-6)
          << space.spec(p).name;
    }
  }
}

TEST(PropertiesIoTest, UnitSuffixConversions) {
  ConfigSpace space(X86Cluster());
  const SparkConf base = space.DefaultConf();
  // 12288m on a GB-valued parameter -> 12 GB.
  auto conf = ParseSparkProperties("spark.executor.memory 12288m\n", base);
  ASSERT_TRUE(conf.ok());
  EXPECT_EQ(conf->GetInt(kExecutorMemory), 12);
  // 2g on an MB-valued parameter -> 2048 MB.
  conf = ParseSparkProperties("spark.executor.memoryOverhead=2g\n", base);
  ASSERT_TRUE(conf.ok());
  EXPECT_EQ(conf->GetInt(kExecutorMemoryOverhead), 2048);
  // 65536k on an MB-valued parameter -> 64 MB.
  conf = ParseSparkProperties("spark.kryoserializer.buffer.max 65536k\n",
                              base);
  ASSERT_TRUE(conf.ok());
  EXPECT_EQ(conf->GetInt(kKryoBufferMax), 64);
  // Seconds suffix.
  conf = ParseSparkProperties("spark.locality.wait 5s\n", base);
  ASSERT_TRUE(conf.ok());
  EXPECT_EQ(conf->GetInt(kLocalityWait), 5);
}

TEST(PropertiesIoTest, CommentsAndBlanksIgnored) {
  ConfigSpace space(X86Cluster());
  const auto conf = ParseSparkProperties(
      "# a comment\n\n  spark.shuffle.compress   false  # trailing\n",
      space.DefaultConf());
  ASSERT_TRUE(conf.ok());
  EXPECT_FALSE(conf->GetBool(kShuffleCompress));
}

TEST(PropertiesIoTest, RejectsBadInput) {
  ConfigSpace space(X86Cluster());
  const SparkConf base = space.DefaultConf();
  EXPECT_FALSE(ParseSparkProperties("spark.made.up 3\n", base).ok());
  EXPECT_FALSE(ParseSparkProperties("spark.executor.memory\n", base).ok());
  EXPECT_FALSE(
      ParseSparkProperties("spark.executor.memory twelve\n", base).ok());
  EXPECT_FALSE(
      ParseSparkProperties("spark.shuffle.compress maybe\n", base).ok());
  EXPECT_FALSE(
      ParseSparkProperties("spark.sql.shuffle.partitions 200g\n", base).ok());
}

}  // namespace
}  // namespace locat::sparksim
