#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dagp.h"
#include "core/iicp.h"
#include "core/locat_tuner.h"
#include "core/qcsa.h"
#include "core/tuning.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat::core {
namespace {

using math::Matrix;
using math::Vector;

// ------------------------------------------------------------------ QCSA

TEST(QcsaTest, TertileRuleMatchesEquation4) {
  // Query 0: CV 0; query 1: tiny CV; query 2: huge CV.
  std::vector<std::vector<double>> times = {
      {10, 10, 10, 10},
      {10, 11, 10, 11},
      {10, 50, 10, 90},
  };
  auto result = AnalyzeQuerySensitivity(times);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->min_cv, 0.0);
  EXPECT_NEAR(result->threshold,
              result->min_cv + (result->max_cv - result->min_cv) / 3.0,
              1e-12);
  EXPECT_EQ(result->csq_indices, std::vector<int>({2}));
  EXPECT_EQ(result->ciq_indices, std::vector<int>({0, 1}));
}

TEST(QcsaTest, CvMatchesDefinition) {
  std::vector<std::vector<double>> times = {{2, 4, 4, 4, 5, 5, 7, 9}};
  auto result = AnalyzeQuerySensitivity(times);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cv[0], 0.4);  // sd 2 / mean 5
}

TEST(QcsaTest, AllEqualCvKeepsEveryQuery) {
  std::vector<std::vector<double>> times = {{10, 20}, {1, 2}};
  auto result = AnalyzeQuerySensitivity(times);
  ASSERT_TRUE(result.ok());
  // Identical CVs: degenerate range; nothing should be dropped.
  EXPECT_EQ(result->csq_indices.size(), 2u);
  EXPECT_TRUE(result->ciq_indices.empty());
}

TEST(QcsaTest, InputValidation) {
  EXPECT_FALSE(AnalyzeQuerySensitivity({}).ok());
  EXPECT_FALSE(AnalyzeQuerySensitivity({{1.0}}).ok());
  EXPECT_FALSE(AnalyzeQuerySensitivity({{1, 2}, {1, 2, 3}}).ok());
}

// ------------------------------------------------------------------ IICP

TEST(IicpTest, CpsKeepsInformativeDimensions) {
  Rng rng(5);
  const int n = 40;
  Matrix confs(n, sparksim::kNumParams);
  std::vector<double> times(n);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < sparksim::kNumParams; ++d) {
      confs(static_cast<size_t>(i), static_cast<size_t>(d)) =
          rng.NextDouble();
    }
    // Runtime depends strongly on dims 0 and 5 only.
    times[static_cast<size_t>(i)] =
        100.0 - 50.0 * confs(static_cast<size_t>(i), 0) +
        30.0 * confs(static_cast<size_t>(i), 5);
  }
  auto result = Iicp::Run(confs, times);
  ASSERT_TRUE(result.ok());
  const auto& selected = result->selected_params();
  EXPECT_NE(std::find(selected.begin(), selected.end(), 0), selected.end());
  EXPECT_NE(std::find(selected.begin(), selected.end(), 5), selected.end());
  // SCC of the causal dimensions should dominate.
  EXPECT_GT(result->spearman_abs()[0], 0.7);
  EXPECT_GT(result->spearman_abs()[5], 0.4);
  EXPECT_GE(result->latent_dim(), 1);
}

TEST(IicpTest, EncodeDimensionMatchesLatent) {
  Rng rng(7);
  const int n = 20;
  Matrix confs(n, sparksim::kNumParams);
  std::vector<double> times(n);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < sparksim::kNumParams; ++d) {
      confs(static_cast<size_t>(i), static_cast<size_t>(d)) = rng.NextDouble();
    }
    times[static_cast<size_t>(i)] = rng.Uniform(50, 500);
  }
  auto result = Iicp::Run(confs, times);
  ASSERT_TRUE(result.ok());
  Vector unit(sparksim::kNumParams, 0.5);
  EXPECT_EQ(result->Encode(unit).size(),
            static_cast<size_t>(result->latent_dim()));
  EXPECT_EQ(result->SelectDims(unit).size(),
            result->selected_params().size());
}

TEST(IicpTest, DecodeSelectedStaysInUnitRange) {
  Rng rng(11);
  const int n = 24;
  Matrix confs(n, sparksim::kNumParams);
  std::vector<double> times(n);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < sparksim::kNumParams; ++d) {
      confs(static_cast<size_t>(i), static_cast<size_t>(d)) = rng.NextDouble();
    }
    times[static_cast<size_t>(i)] =
        100.0 + 80.0 * confs(static_cast<size_t>(i), 3);
  }
  auto result = Iicp::Run(confs, times);
  ASSERT_TRUE(result.ok());
  auto decoded = result->DecodeSelected(result->Encode(confs.Row(0)));
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < decoded->size(); ++i) {
    EXPECT_GE((*decoded)[i], 0.0);
    EXPECT_LE((*decoded)[i], 1.0);
  }
}

TEST(IicpTest, NeverReturnsEmptySelection) {
  Rng rng(13);
  const int n = 20;
  Matrix confs(n, sparksim::kNumParams);
  std::vector<double> times(n, 100.0);  // constant runtime: no correlation
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < sparksim::kNumParams; ++d) {
      confs(static_cast<size_t>(i), static_cast<size_t>(d)) = rng.NextDouble();
    }
  }
  auto result = Iicp::Run(confs, times);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->selected_params().size(), 3u);
}

TEST(IicpTest, RejectsTooFewSamples) {
  EXPECT_FALSE(Iicp::Run(Matrix(2, sparksim::kNumParams), {1.0, 2.0}).ok());
}

// ------------------------------------------------------------------ DAGP

TEST(DagpTest, LearnsDatasizeTrend) {
  Rng rng(17);
  Dagp dagp;
  // Runtime = 10 * ds_normalized, independent of conf.
  for (int i = 0; i < 18; ++i) {
    Vector conf(3);
    for (size_t j = 0; j < 3; ++j) conf[j] = rng.NextDouble();
    const double ds = 100.0 + (i % 5) * 100.0;
    dagp.AddObservation(conf, ds, 10.0 * ds / 1000.0 * 100.0);
  }
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  const Vector probe(3, 0.5);
  const auto preds = dagp.PredictBatch({probe, probe}, {100.0, 500.0});
  EXPECT_GT(preds[1].seconds, 2.0 * preds[0].seconds);
}

TEST(DagpTest, EiNonNegativeAndBestTracksMinimum) {
  Rng rng(19);
  Dagp dagp;
  dagp.AddObservation(Vector{0.2}, 100.0, 120.0);
  dagp.AddObservation(Vector{0.8}, 100.0, 60.0);
  dagp.AddObservation(Vector{0.5}, 100.0, 90.0);
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  EXPECT_DOUBLE_EQ(dagp.best_seconds(), 60.0);
  const Vector ei = dagp.ExpectedImprovementBatch({Vector{0.9}}, 100.0);
  ASSERT_EQ(ei.size(), 1u);
  EXPECT_TRUE(std::isfinite(ei[0]));
  EXPECT_GE(ei[0], 0.0);
}

TEST(DagpTest, ClearResetsState) {
  Rng rng(23);
  Dagp dagp;
  dagp.AddObservation(Vector{0.5}, 100.0, 50.0);
  dagp.Clear();
  EXPECT_EQ(dagp.num_observations(), 0);
  EXPECT_FALSE(dagp.Refit(&rng).ok());
}

// --------------------------------------------------------- TuningSession

TEST(TuningSessionTest, ChargesSimulatedTime) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 1);
  const auto app = workloads::HiBenchScan();
  TuningSession session(&sim, app);
  const sparksim::SparkConf conf =
      session.space().Repair(session.space().DefaultConf());
  const EvalRecord rec = *session.Evaluate(conf, 100.0);
  EXPECT_GT(rec.app_seconds, 0.0);
  EXPECT_DOUBLE_EQ(session.optimization_seconds(), rec.app_seconds);
  EXPECT_EQ(session.evaluations(), 1);
  session.Evaluate(conf, 100.0);
  EXPECT_EQ(session.evaluations(), 2);
  session.Reset();
  EXPECT_EQ(session.evaluations(), 0);
  EXPECT_DOUBLE_EQ(session.optimization_seconds(), 0.0);
}

TEST(TuningSessionTest, MeasureFinalIsNotCharged) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 1);
  const auto app = workloads::HiBenchScan();
  TuningSession session(&sim, app);
  session.MeasureFinal(session.space().Repair(session.space().DefaultConf()),
                       100.0);
  EXPECT_DOUBLE_EQ(session.optimization_seconds(), 0.0);
}

TEST(TuningSessionTest, QueryRestrictionAppliesToEvaluate) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 1);
  const auto app = workloads::TpcH();
  TuningSession session(&sim, app);
  const sparksim::SparkConf conf =
      session.space().Repair(session.space().DefaultConf());
  session.RestrictToQueries({0, 1, 2});
  EXPECT_TRUE(session.restricted());
  const EvalRecord rec = *session.Evaluate(conf, 100.0);
  EXPECT_EQ(rec.per_query_seconds.size(), 3u);
  EXPECT_FALSE(rec.full_app);
  session.ClearQueryRestriction();
  const EvalRecord full = *session.Evaluate(conf, 100.0);
  EXPECT_EQ(full.per_query_seconds.size(), 22u);
  EXPECT_TRUE(full.full_app);
}

// ------------------------------------------------------------ LocatTuner

LocatTuner::Options TinyLocatOptions() {
  LocatTuner::Options opts;
  opts.n_qcsa = 8;
  opts.n_iicp = 6;
  opts.lhs_init = 2;
  opts.min_iterations = 3;
  opts.max_iterations = 6;
  opts.warm_iterations = 3;
  opts.candidates = 60;
  opts.seed = 9;
  return opts;
}

TEST(LocatTunerTest, ColdStartProducesAllStages) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 77);
  const auto app = workloads::TpcH();
  TuningSession session(&sim, app);
  LocatTuner tuner(TinyLocatOptions());
  const TuningResult result = tuner.Tune(&session, 100.0);

  EXPECT_EQ(result.tuner_name, "LOCAT");
  EXPECT_GT(result.evaluations, 8);
  EXPECT_GT(result.optimization_seconds, 0.0);
  EXPECT_GT(result.best_observed_seconds, 0.0);
  ASSERT_NE(tuner.qcsa_result(), nullptr);
  ASSERT_NE(tuner.iicp_result(), nullptr);
  // QCSA removed at least one insensitive query from TPC-H.
  EXPECT_LT(tuner.rqa_indices().size(), 22u);
  EXPECT_GE(tuner.rqa_indices().size(), 1u);
  // The tuned configuration is valid.
  EXPECT_TRUE(session.space().Validate(result.best_conf).ok());
}

TEST(LocatTunerTest, BeatsDefaultConfiguration) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 78);
  const auto app = workloads::HiBenchJoin();
  TuningSession session(&sim, app);
  LocatTuner tuner(TinyLocatOptions());
  const TuningResult result = tuner.Tune(&session, 200.0);
  const double tuned = session.MeasureFinal(result.best_conf, 200.0)
                           .total_seconds;
  const double dflt =
      session
          .MeasureFinal(session.space().Repair(session.space().DefaultConf()),
                        200.0)
          .total_seconds;
  EXPECT_LT(tuned, dflt);
}

TEST(LocatTunerTest, WarmStartUsesFewerEvaluationsThanCold) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 79);
  const auto app = workloads::TpcH();
  TuningSession session(&sim, app);
  LocatTuner tuner(TinyLocatOptions());
  const TuningResult cold = tuner.Tune(&session, 100.0);
  const TuningResult warm = tuner.Tune(&session, 300.0);
  EXPECT_LT(warm.evaluations, cold.evaluations);
}

TEST(LocatTunerTest, DeterministicGivenSeeds) {
  const auto cluster = sparksim::X86Cluster();
  const auto app = workloads::HiBenchAggregation();
  auto run = [&]() {
    sparksim::ClusterSimulator sim(cluster, 80);
    TuningSession session(&sim, app);
    LocatTuner tuner(TinyLocatOptions());
    return tuner.Tune(&session, 200.0);
  };
  const TuningResult a = run();
  const TuningResult b = run();
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_DOUBLE_EQ(a.best_observed_seconds, b.best_observed_seconds);
  EXPECT_TRUE(a.best_conf == b.best_conf);
}

TEST(LocatTunerTest, ApVariantSkipsIicp) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 81);
  const auto app = workloads::HiBenchAggregation();
  TuningSession session(&sim, app);
  LocatTuner::Options opts = TinyLocatOptions();
  opts.enable_iicp = false;
  LocatTuner tuner(opts);
  EXPECT_EQ(tuner.name(), "LOCAT-AP");
  tuner.Tune(&session, 100.0);
  EXPECT_EQ(tuner.iicp_result(), nullptr);
  EXPECT_NE(tuner.qcsa_result(), nullptr);
}

TEST(LocatTunerTest, QcsaDisabledKeepsAllQueries) {
  const auto cluster = sparksim::X86Cluster();
  sparksim::ClusterSimulator sim(cluster, 82);
  const auto app = workloads::TpcH();
  TuningSession session(&sim, app);
  LocatTuner::Options opts = TinyLocatOptions();
  opts.enable_qcsa = false;
  LocatTuner tuner(opts);
  tuner.Tune(&session, 100.0);
  EXPECT_EQ(tuner.rqa_indices().size(), 22u);
}

}  // namespace
}  // namespace locat::core
