// Determinism sweeps: every tuner must produce bit-identical results for
// identical seeds — the property that makes every figure in this repo
// exactly reproducible.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/tuning.h"
#include "harness/experiments.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat {
namespace {

class TunerDeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TunerDeterminismTest, IdenticalSeedsIdenticalResults) {
  const std::string name = GetParam();
  auto run_once = [&]() {
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 777);
    core::TuningSession session(&sim, workloads::HiBenchAggregation());
    auto tuner = harness::MakeTuner(name, /*seed_salt=*/0);
    return tuner->Tune(&session, 150.0);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.evaluations, b.evaluations) << name;
  EXPECT_DOUBLE_EQ(a.optimization_seconds, b.optimization_seconds) << name;
  EXPECT_DOUBLE_EQ(a.best_observed_seconds, b.best_observed_seconds) << name;
  EXPECT_TRUE(a.best_conf == b.best_conf) << name;
}

// "Random" exercises the base Tuner plumbing; the composites exercise the
// frontend path end to end.
INSTANTIATE_TEST_SUITE_P(AllTuners, TunerDeterminismTest,
                         ::testing::Values("Random", "Tuneful", "DAC",
                                           "GBO-RL", "QTune", "LOCAT",
                                           "DAC+QIT"));

// std::string, not const char*: inside a tuple gtest prints a char pointer's
// address, which would make the generated test names vary from run to run.
class SimulatorClusterDsTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(SimulatorClusterDsTest, AppRunInvariantsHold) {
  const auto [cluster_name, ds] = GetParam();
  const auto cluster = harness::MakeCluster(cluster_name);
  sparksim::SimParams params;
  params.noise_sigma = 0.0;
  sparksim::ClusterSimulator sim(cluster, 55, params);
  sparksim::ConfigSpace space(cluster);
  Rng rng(56);
  const auto app = workloads::TpcH();
  const auto run = sim.RunApp(app, space.RandomValid(&rng), ds);

  ASSERT_EQ(run.per_query.size(), 22u);
  double query_sum = 0.0;
  double gc_sum = 0.0;
  for (const auto& q : run.per_query) {
    EXPECT_GT(q.exec_seconds, 0.0) << q.name;
    EXPECT_GE(q.gc_seconds, 0.0) << q.name;
    EXPECT_LE(q.gc_seconds, q.exec_seconds) << q.name;
    query_sum += q.exec_seconds;
    gc_sum += q.gc_seconds;
  }
  // Total = queries + submit overhead (bounded).
  EXPECT_GE(run.total_seconds, query_sum);
  EXPECT_LE(run.total_seconds, query_sum + 120.0);
  EXPECT_NEAR(run.gc_seconds, gc_sum, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimulatorClusterDsTest,
    ::testing::Combine(::testing::Values("arm", "x86"),
                       ::testing::Values(100.0, 300.0, 500.0, 1000.0)));

}  // namespace
}  // namespace locat
