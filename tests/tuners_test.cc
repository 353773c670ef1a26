#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/tuning.h"
#include "sparksim/simulator.h"
#include "tuners/baselines.h"
#include "tuners/bo_search.h"
#include "tuners/frontend.h"
#include "workloads/workloads.h"

namespace locat::tuners {
namespace {

core::TuningSession MakeSession(sparksim::ClusterSimulator* sim,
                                const std::string& app_name) {
  if (app_name == "TPC-H") {
    return core::TuningSession(sim, workloads::TpcH());
  }
  if (app_name == "Aggregation") {
    return core::TuningSession(sim, workloads::HiBenchAggregation());
  }
  return core::TuningSession(sim, workloads::HiBenchJoin());
}

double DefaultSeconds(core::TuningSession* session, double ds) {
  return session
      ->MeasureFinal(session->space().Repair(session->space().DefaultConf()),
                     ds)
      .total_seconds;
}

TEST(RandomSearchTest, ImprovesOverDefault) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 1);
  auto session = MakeSession(&sim, "Join");
  RandomSearchTuner::Options opts;
  opts.evaluations = 20;
  RandomSearchTuner tuner(opts);
  const auto result = tuner.Tune(&session, 200.0);
  EXPECT_EQ(result.evaluations, 20);
  EXPECT_LT(result.best_observed_seconds, DefaultSeconds(&session, 200.0));
  EXPECT_EQ(result.trajectory.size(), 20u);
  // Best-so-far trajectory is non-increasing.
  for (size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
}

TEST(RandomSearchTest, FreeParamRestrictionPinsOthers) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 2);
  auto session = MakeSession(&sim, "Join");
  RandomSearchTuner::Options opts;
  opts.evaluations = 6;
  RandomSearchTuner tuner(opts);
  tuner.SetFreeParams({sparksim::kExecutorMemory});
  const auto result = tuner.Tune(&session, 100.0);
  const sparksim::SparkConf base =
      session.space().Repair(session.space().DefaultConf());
  // Everything except memory (and repair-coupled resource params) stays at
  // the default.
  EXPECT_EQ(result.best_conf.GetInt(sparksim::kSqlShufflePartitions),
            base.GetInt(sparksim::kSqlShufflePartitions));
  EXPECT_EQ(result.best_conf.GetInt(sparksim::kLocalityWait),
            base.GetInt(sparksim::kLocalityWait));
}

class BaselineSmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineSmokeTest, RunsAndBeatsDefaultOnTinyBudget) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 3);
  auto session = MakeSession(&sim, "Aggregation");
  std::unique_ptr<core::Tuner> tuner;
  const std::string name = GetParam();
  if (name == "Tuneful") {
    TunefulTuner::Options o;
    o.bo_iterations = 8;
    o.significant_params = 5;
    tuner = std::make_unique<TunefulTuner>(o);
  } else if (name == "DAC") {
    DacTuner::Options o;
    o.training_samples = 15;
    o.ga_generations = 5;
    o.ga_population = 20;
    o.validation_runs = 3;
    tuner = std::make_unique<DacTuner>(o);
  } else if (name == "GBO-RL") {
    GboRlTuner::Options o;
    o.bo_iterations = 8;
    o.guided_seeds = 3;
    tuner = std::make_unique<GboRlTuner>(o);
  } else {
    QtuneTuner::Options o;
    o.episodes = 3;
    o.steps_per_episode = 6;
    tuner = std::make_unique<QtuneTuner>(o);
  }
  EXPECT_EQ(tuner->name(), name);
  const auto result = tuner->Tune(&session, 150.0);
  EXPECT_GT(result.evaluations, 5);
  EXPECT_GT(result.optimization_seconds, 0.0);
  EXPECT_LT(result.best_observed_seconds, DefaultSeconds(&session, 150.0));
  EXPECT_TRUE(session.space().Validate(result.best_conf).ok());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineSmokeTest,
                         ::testing::Values("Tuneful", "DAC", "GBO-RL",
                                           "QTune"));

TEST(CherryPickTest, PlainBoImprovesOverDefault) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 12);
  auto session = MakeSession(&sim, "Join");
  CherryPickTuner::Options opts;
  opts.bo_iterations = 10;
  CherryPickTuner tuner(opts);
  EXPECT_EQ(tuner.name(), "CherryPick");
  const auto result = tuner.Tune(&session, 200.0);
  EXPECT_GE(result.evaluations, 10);
  EXPECT_LT(result.best_observed_seconds, DefaultSeconds(&session, 200.0));
}

TEST(MakeBaselineTest, FactoryNames) {
  EXPECT_EQ(MakeBaseline("Tuneful")->name(), "Tuneful");
  EXPECT_EQ(MakeBaseline("DAC")->name(), "DAC");
  EXPECT_EQ(MakeBaseline("GBO-RL")->name(), "GBO-RL");
  EXPECT_EQ(MakeBaseline("QTune")->name(), "QTune");
  EXPECT_EQ(MakeBaseline("anything-else")->name(), "Random");
}

TEST(BoSearchTest, FindsBetterThanInitialPoints) {
  // Each iteration's pool is scored by one AcquisitionValueBatch, which
  // fans out over the ensemble members on the global thread pool: the
  // search must not depend on the thread count.
  struct Outcome {
    double best_seconds;
    double default_seconds;
    std::vector<double> trajectory;
    sparksim::SparkConf best_conf;
  };
  auto run = [](int threads) {
    common::ThreadPool::SetGlobalThreads(threads);
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 5);
    auto session = MakeSession(&sim, "Join");
    Rng rng(5);
    BoSearch bo({12}, &rng);
    const sparksim::SparkConf base =
        session.space().Repair(session.space().DefaultConf());
    bo.Run(&session, 150.0, AllParamIndices(), base, {});
    return Outcome{bo.best_seconds(), DefaultSeconds(&session, 150.0),
                   bo.trajectory(), bo.best_conf()};
  };
  const Outcome one = run(1);
  const Outcome four = run(4);
  common::ThreadPool::SetGlobalThreads(0);  // restore default
  EXPECT_GT(one.best_seconds, 0.0);
  EXPECT_LT(one.best_seconds, one.default_seconds);
  EXPECT_EQ(one.trajectory.size(), 12u);
  EXPECT_EQ(one.trajectory, four.trajectory);
  EXPECT_TRUE(one.best_conf == four.best_conf);
}

TEST(FrontendTest, NamesReflectMode) {
  QcsaIicpFrontend::Options both;
  EXPECT_EQ(QcsaIicpFrontend(MakeBaseline("DAC"), both).name(), "DAC+QIT");
  QcsaIicpFrontend::Options qcsa_only;
  qcsa_only.apply_iicp = false;
  EXPECT_EQ(QcsaIicpFrontend(MakeBaseline("DAC"), qcsa_only).name(),
            "DAC+QCSA");
  QcsaIicpFrontend::Options iicp_only;
  iicp_only.apply_qcsa = false;
  EXPECT_EQ(QcsaIicpFrontend(MakeBaseline("DAC"), iicp_only).name(),
            "DAC+IICP");
}

TEST(FrontendTest, QitReducesInnerTunerCost) {
  // The same inner tuner with QCSA+IICP retrofitted should spend less
  // simulated time than alone (Section 5.10's core claim), because the
  // inner tuner runs only the RQA.
  const auto app = workloads::TpcH();

  sparksim::ClusterSimulator sim_plain(sparksim::X86Cluster(), 6);
  core::TuningSession plain_session(&sim_plain, app);
  RandomSearchTuner::Options ropts;
  ropts.evaluations = 25;
  RandomSearchTuner plain(ropts);
  const auto plain_result = plain.Tune(&plain_session, 100.0);

  sparksim::ClusterSimulator sim_qit(sparksim::X86Cluster(), 6);
  core::TuningSession qit_session(&sim_qit, app);
  QcsaIicpFrontend::Options fopts;
  fopts.n_qcsa = 10;
  fopts.n_iicp = 8;
  QcsaIicpFrontend qit(std::make_unique<RandomSearchTuner>(ropts), fopts);
  const auto qit_result = qit.Tune(&qit_session, 100.0);

  ASSERT_NE(qit.qcsa_result(), nullptr);
  ASSERT_NE(qit.iicp_result(), nullptr);
  // 10 sample-collection runs + 25 RQA runs still cost less than 25 full
  // runs only when QCSA removes enough queries; verify the restriction
  // actually kicked in and the session was unrestricted afterwards.
  EXPECT_LT(qit.qcsa_result()->csq_indices.size(), 22u);
  EXPECT_FALSE(qit_session.restricted());
  EXPECT_GT(qit_result.evaluations, plain_result.evaluations);
}

TEST(FrontendTest, IicpRestrictsInnerSearchSpace) {
  const auto app = workloads::HiBenchJoin();
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 7);
  core::TuningSession session(&sim, app);
  RandomSearchTuner::Options ropts;
  ropts.evaluations = 10;
  QcsaIicpFrontend::Options fopts;
  fopts.apply_qcsa = false;
  fopts.n_iicp = 10;
  QcsaIicpFrontend frontend(std::make_unique<RandomSearchTuner>(ropts),
                            fopts);
  const auto result = frontend.Tune(&session, 150.0);
  ASSERT_NE(frontend.iicp_result(), nullptr);
  EXPECT_GT(result.evaluations, 10);  // sample collection + inner runs
}

}  // namespace
}  // namespace locat::tuners
