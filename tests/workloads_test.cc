#include <set>

#include <gtest/gtest.h>

#include "workloads/workloads.h"

namespace locat::workloads {
namespace {

using sparksim::QueryCategory;
using sparksim::SparkSqlApp;

TEST(TpcDsTest, Has104QueriesWithVariants) {
  const SparkSqlApp app = TpcDs();
  EXPECT_EQ(app.num_queries(), 104);
  // a/b variants for 14, 23, 24, 39, 64.
  for (const char* name : {"q14a", "q14b", "q23a", "q23b", "q24a", "q24b",
                           "q39a", "q39b", "q64a", "q64b"}) {
    EXPECT_GE(app.IndexOf(name), 0) << name;
  }
  EXPECT_GE(app.IndexOf("q01"), 0);
  EXPECT_GE(app.IndexOf("q99"), 0);
  EXPECT_EQ(app.IndexOf("q14"), -1);  // replaced by variants
}

TEST(TpcDsTest, QueryNamesUnique) {
  const SparkSqlApp app = TpcDs();
  std::set<std::string> names;
  for (const auto& q : app.queries) names.insert(q.name);
  EXPECT_EQ(names.size(), 104u);
}

TEST(TpcDsTest, PaperCalibratedFacts) {
  const SparkSqlApp app = TpcDs();
  // Q72 shuffles ~52 GB per 100 GB of input (Section 5.11).
  const auto& q72 = app.queries[static_cast<size_t>(app.IndexOf("q72"))];
  EXPECT_NEAR(q72.input_frac * q72.shuffle_ratio * 100.0, 52.0, 2.0);
  // Q08 shuffles only a few MB.
  const auto& q08 = app.queries[static_cast<size_t>(app.IndexOf("q08"))];
  EXPECT_LT(q08.input_frac * q08.shuffle_ratio * 100.0, 0.05);
  // Q04 is a huge scan with little shuffle (long but insensitive).
  const auto& q04 = app.queries[static_cast<size_t>(app.IndexOf("q04"))];
  EXPECT_GT(q04.input_frac, 0.8);
  EXPECT_LT(q04.shuffle_ratio, 0.1);
}

TEST(TpcDsTest, SelectionQueriesOfSection511AreSelectionCategory) {
  const SparkSqlApp app = TpcDs();
  for (const char* name : {"q09", "q13", "q16", "q28", "q32", "q38", "q48",
                           "q61", "q84", "q87", "q88", "q94", "q96"}) {
    const int idx = app.IndexOf(name);
    ASSERT_GE(idx, 0) << name;
    EXPECT_EQ(app.queries[static_cast<size_t>(idx)].category,
              QueryCategory::kSelection)
        << name;
  }
}

TEST(TpcDsTest, SensitiveQueriesHaveHeavyShuffles) {
  const SparkSqlApp app = TpcDs();
  // The paper's 23 configuration-sensitive queries (Section 5.2).
  for (const char* name :
       {"q72", "q29", "q14b", "q43", "q41", "q99", "q57", "q33", "q14a",
        "q69", "q40", "q64a", "q50", "q21", "q70", "q95", "q54", "q23a",
        "q23b", "q15", "q58", "q62", "q20"}) {
    const int idx = app.IndexOf(name);
    ASSERT_GE(idx, 0) << name;
    const auto& q = app.queries[static_cast<size_t>(idx)];
    EXPECT_GT(q.shuffle_ratio, 0.4) << name;
    EXPECT_GT(q.mem_per_task_factor, 5.0) << name;
  }
}

TEST(TpcDsTest, DeterministicConstruction) {
  const SparkSqlApp a = TpcDs();
  const SparkSqlApp b = TpcDs();
  ASSERT_EQ(a.num_queries(), b.num_queries());
  for (int i = 0; i < a.num_queries(); ++i) {
    EXPECT_EQ(a.queries[static_cast<size_t>(i)].name,
              b.queries[static_cast<size_t>(i)].name);
    EXPECT_DOUBLE_EQ(a.queries[static_cast<size_t>(i)].shuffle_ratio,
                     b.queries[static_cast<size_t>(i)].shuffle_ratio);
  }
}

TEST(TpcHTest, Has22Queries) {
  const SparkSqlApp app = TpcH();
  EXPECT_EQ(app.num_queries(), 22);
  EXPECT_GE(app.IndexOf("q9"), 0);
  EXPECT_GE(app.IndexOf("q22"), 0);
}

TEST(TpcHTest, JoinHeavyQueriesAreSensitive) {
  const SparkSqlApp app = TpcH();
  for (const char* name : {"q5", "q7", "q9", "q21"}) {
    const int idx = app.IndexOf(name);
    ASSERT_GE(idx, 0);
    EXPECT_GT(app.queries[static_cast<size_t>(idx)].mem_per_task_factor, 5.0);
  }
}

TEST(HiBenchTest, ThreeSingleQueryBenchmarks) {
  EXPECT_EQ(HiBenchJoin().num_queries(), 1);
  EXPECT_EQ(HiBenchScan().num_queries(), 1);
  EXPECT_EQ(HiBenchAggregation().num_queries(), 1);
  // Scan is Map-only: no shuffle stage (Section 4.2).
  EXPECT_EQ(HiBenchScan().queries[0].num_shuffle_stages, 0);
  EXPECT_EQ(HiBenchScan().queries[0].category, QueryCategory::kSelection);
  EXPECT_EQ(HiBenchJoin().queries[0].category, QueryCategory::kJoin);
  EXPECT_EQ(HiBenchAggregation().queries[0].category,
            QueryCategory::kAggregation);
}

TEST(Table1Test, FiveBenchmarks) {
  const auto apps = AllBenchmarks();
  ASSERT_EQ(apps.size(), 5u);
  EXPECT_EQ(apps[0].name, "TPC-DS");
  EXPECT_EQ(apps[1].name, "TPC-H");
  EXPECT_EQ(apps[2].name, "Join");
  EXPECT_EQ(apps[3].name, "Scan");
  EXPECT_EQ(apps[4].name, "Aggregation");
}

class ProfileSanityTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfileSanityTest, AllProfilesInSaneRanges) {
  const auto apps = AllBenchmarks();
  const auto& app = apps[static_cast<size_t>(GetParam())];
  for (const auto& q : app.queries) {
    EXPECT_FALSE(q.name.empty());
    EXPECT_GT(q.input_frac, 0.0) << q.name;
    EXPECT_LE(q.input_frac, 1.0) << q.name;
    EXPECT_GT(q.cpu_per_gb, 0.0) << q.name;
    EXPECT_GE(q.shuffle_ratio, 0.0) << q.name;
    EXPECT_LE(q.shuffle_ratio, 1.0) << q.name;
    EXPECT_GE(q.num_shuffle_stages, 0) << q.name;
    EXPECT_LE(q.num_shuffle_stages, 5) << q.name;
    EXPECT_GE(q.skew, 1.0) << q.name;
    EXPECT_GE(q.mem_per_task_factor, 0.0) << q.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, ProfileSanityTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace locat::workloads
