#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/candidate_screen.h"
#include "core/dagp.h"
#include "core/iicp.h"
#include "core/locat_tuner.h"
#include "core/qcsa.h"
#include "core/tuning.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
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
  // The batched encoding gives every row Encode's bits.
  const Matrix encoded = result->EncodeRows(confs);
  ASSERT_EQ(encoded.rows(), confs.rows());
  ASSERT_EQ(encoded.cols(), static_cast<size_t>(result->latent_dim()));
  for (size_t i = 0; i < confs.rows(); ++i) {
    const Vector ref = result->Encode(confs.Row(i));
    for (size_t j = 0; j < ref.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(encoded(i, j)),
                std::bit_cast<uint64_t>(ref[j]))
          << "row " << i << " component " << j;
    }
  }
}

TEST(IicpTest, EncodeRowsIsRowIndependent) {
  // The tuner encodes only the distinct units of its history and fans the
  // results out, which is exact only if a row's encoding depends on that
  // row alone: not on its position, its neighbours or the batch size.
  Rng rng(11);
  const size_t n = 20;
  Matrix confs(n, sparksim::kNumParams);
  std::vector<double> times(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < confs.cols(); ++d) confs(i, d) = rng.NextDouble();
    times[i] = rng.Uniform(50, 500);
  }
  auto result = Iicp::Run(confs, times);
  ASSERT_TRUE(result.ok());
  const Matrix base = result->EncodeRows(confs);
  // 150 rows (three 64-row blocks, the last partial) drawn with
  // repetition from `confs` in a shuffled order.
  const size_t m = 150;
  Matrix mixed(m, confs.cols());
  std::vector<size_t> src(m);
  for (size_t r = 0; r < m; ++r) {
    src[r] = static_cast<size_t>(rng.UniformInt(0, n - 1));
    mixed.SetRow(r, confs.Row(src[r]));
  }
  const Matrix encoded = result->EncodeRows(mixed);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < base.cols(); ++j) {
      ASSERT_EQ(std::bit_cast<uint64_t>(encoded(r, j)),
                std::bit_cast<uint64_t>(base(src[r], j)))
          << "row " << r << " component " << j;
    }
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
    dagp.AddObservation(conf, ds, 10.0 * ds / 1000.0 * 100.0, conf.data());
  }
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  const Matrix probes(2, 3, 0.5);
  const auto preds = dagp.PredictBatch(probes, {100.0, 500.0});
  EXPECT_GT(preds[1].seconds, 2.0 * preds[0].seconds);
}

TEST(DagpTest, EiNonNegativeAndBestTracksMinimum) {
  Rng rng(19);
  Dagp dagp;
  const Vector confs[] = {Vector{0.2}, Vector{0.8}, Vector{0.5}};
  dagp.AddObservation(confs[0], 100.0, 120.0, confs[0].data());
  dagp.AddObservation(confs[1], 100.0, 60.0, confs[1].data());
  dagp.AddObservation(confs[2], 100.0, 90.0, confs[2].data());
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  EXPECT_DOUBLE_EQ(std::exp(dagp.model().best_observed()), 60.0);
  const ml::EiMcmc::Pick pick = dagp.PickCandidate(Matrix{{0.9}}, 100.0);
  ASSERT_EQ(pick.row, 0u);
  EXPECT_TRUE(std::isfinite(pick.value));
  EXPECT_GE(pick.value, 0.0);
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
  EXPECT_EQ(rec.per_query.size(), 3u);
  EXPECT_FALSE(rec.full_app);
  session.ClearQueryRestriction();
  const EvalRecord full = *session.Evaluate(conf, 100.0);
  EXPECT_EQ(full.per_query.size(), 22u);
  EXPECT_TRUE(full.full_app);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// A session derives its app's (query, data size) cost-model terms once
// and rebuilds them when a run's data size changes. One simulator serves
// a session per app at interleaved sizes, so stale terms (from the
// previous size or the previous app) would show as different bits from
// a twin simulator, same seed, that runs every call one-shot.
TEST(TuningSessionSizeTermsTest, MatchOneShotRunsAtInterleavedSizes) {
  for (const sparksim::ClusterSpec& cluster :
       {sparksim::X86Cluster(), sparksim::ArmCluster()}) {
    sparksim::ClusterSimulator sim(cluster, 17);
    sparksim::ClusterSimulator twin(cluster, 17);
    const sparksim::ConfigSpace space(cluster);
    Rng rng(5);
    for (const sparksim::SparkSqlApp& app : workloads::AllBenchmarks()) {
      TuningSession session(&sim, app);
      std::vector<int> all(app.queries.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
      const std::vector<int> subset = {app.num_queries() - 1, 0};
      for (const double ds : {100.0, 300.0, 100.0, 1000.0}) {
        const sparksim::SparkConf conf = space.RandomValid(&rng);
        const EvalRecord full = *session.Evaluate(conf, ds);
        const EvalRecord part = *session.EvaluateSubset(conf, ds, subset);
        const sparksim::AppRunResult judged = session.MeasureFinal(conf, ds);
        const auto want_full = twin.RunAppSubset(app, all, conf, ds);
        const auto want_part = twin.RunAppSubset(app, subset, conf, ds);
        const auto want_judged = twin.RunAppSubset(app, all, conf, ds);
        ASSERT_TRUE(want_full.ok() && want_part.ok() && want_judged.ok());
        for (const auto& [rec, want] :
             {std::pair{&full, &*want_full}, std::pair{&part, &*want_part}}) {
          EXPECT_EQ(Bits(rec->app_seconds), Bits(want->total_seconds))
              << app.name << " @ " << ds;
          ASSERT_EQ(rec->per_query.size(), want->per_query.size());
          double gc_seconds = 0.0;  // summed in run order, as the run is
          for (size_t q = 0; q < want->per_query.size(); ++q) {
            EXPECT_EQ(rec->per_query[q].name, want->per_query[q].name);
            EXPECT_EQ(Bits(rec->per_query[q].exec_seconds),
                      Bits(want->per_query[q].exec_seconds));
            EXPECT_EQ(Bits(rec->per_query[q].gc_seconds),
                      Bits(want->per_query[q].gc_seconds));
            gc_seconds += rec->per_query[q].gc_seconds;
          }
          EXPECT_EQ(Bits(gc_seconds), Bits(want->gc_seconds));
        }
        ASSERT_EQ(judged.per_query.size(), want_judged->per_query.size());
        EXPECT_EQ(Bits(judged.total_seconds), Bits(want_judged->total_seconds));
        for (size_t q = 0; q < judged.per_query.size(); ++q) {
          const sparksim::QueryMetrics& a = judged.per_query[q];
          const sparksim::QueryMetrics& b = want_judged->per_query[q];
          EXPECT_EQ(a.name, b.name);
          for (const auto& [x, y] :
               {std::pair{a.exec_seconds, b.exec_seconds},
                std::pair{a.gc_seconds, b.gc_seconds},
                std::pair{a.scan_seconds, b.scan_seconds},
                std::pair{a.shuffle_seconds, b.shuffle_seconds},
                std::pair{a.shuffle_gb, b.shuffle_gb},
                std::pair{a.spill_gb, b.spill_gb},
                std::pair{a.scan_tasks, b.scan_tasks},
                std::pair{a.task_waves, b.task_waves},
                std::pair{a.oom_severity, b.oom_severity}}) {
            EXPECT_EQ(Bits(x), Bits(y)) << app.name << " q" << q << " @ " << ds;
          }
          EXPECT_EQ(a.oom, b.oom);
        }
      }
    }
    EXPECT_EQ(sim.runs_performed(), twin.runs_performed());
  }
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

// The near-duplicate scan compares squared distances against
// kNearDuplicateSq instead of taking sqrt(d2) < 0.05: a pair at exactly
// that squared distance is kept, one at its predecessor is dropped, and
// the two tests agree on every value around the boundary. The naive
// 0.05 * 0.05 is one ulp higher and would drop the kept pair.
TEST(LocatTunerTest, NearDuplicateThresholdMatchesSqrtTest) {
  const double t = kNearDuplicateSq;
  EXPECT_FALSE(std::sqrt(t) < 0.05);
  EXPECT_TRUE(std::sqrt(std::nextafter(t, 0.0)) < 0.05);
  EXPECT_LT(t, 0.05 * 0.05);
  double d2 = t;
  for (int i = 0; i < 64; ++i) d2 = std::nextafter(d2, 0.0);
  for (int i = 0; i < 128; ++i, d2 = std::nextafter(d2, 1.0)) {
    EXPECT_EQ(d2 < t, std::sqrt(d2) < 0.05) << d2;
  }
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

// ------------------------------------------------------ Transfer hint

/// What a tuned TPC-H app exports for a warm start: its best-spread
/// observations and its CSQ + IICP hint.
struct DonorExport {
  std::vector<LocatTuner::PriorObservation> priors;
  LocatTuner::TransferHint hint;
};

DonorExport TuneDonor() {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 84);
  TuningSession session(&sim, workloads::TpcH());
  LocatTuner donor(TinyLocatOptions());
  donor.Tune(&session, 100.0);
  return {donor.ExportObservations(12), donor.ExportTransferHint()};
}

/// One warm-started Join tune seeded with `priors` (and `hint`, when
/// set), with the observables the transfer-hint tests compare.
struct RecipientRun {
  TuningResult result;
  std::shared_ptr<const IicpResult> iicp;
  /// GP input dimension of each DAGP refit after the QCSA/IICP rebuild.
  std::vector<int> refit_dims;
  int phase_a_evals = 0;
  /// The "iicp" phase event's `transferred` field; -1 without the event.
  double transferred = -1.0;
};

RecipientRun TuneRecipient(int n_qcsa,
                           std::vector<LocatTuner::PriorObservation> priors,
                           std::optional<LocatTuner::TransferHint> hint) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 85);
  TuningSession session(&sim, workloads::HiBenchJoin());
  LocatTuner::Options opts = TinyLocatOptions();
  opts.n_qcsa = n_qcsa;
  LocatTuner tuner(opts);
  obs::CollectingSink collector;
  obs::Tracer tracer;
  obs::ObsContext ctx;
  ctx.observer = &collector;
  ctx.tracer = &tracer;
  tuner.SetObservability(ctx);
  tuner.SeedPriorObservations(std::move(priors));
  if (hint) tuner.SeedTransferHint(std::move(*hint));
  EXPECT_TRUE(tuner.warm_started());

  RecipientRun run;
  run.result = tuner.Tune(&session, 200.0);
  run.iicp = tuner.ExportTransferHint().iicp;
  bool after_analyze = false;
  const std::regex dim_re("\"dim\":([0-9]+)");
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    if (ev.name == "tune/analyze") after_analyze = true;
    std::smatch m;
    if (after_analyze && ev.name == "dagp/refit" &&
        std::regex_search(ev.args, m, dim_re)) {
      run.refit_dims.push_back(std::stoi(m[1]));
    }
  }
  for (const auto& ev : collector.events) {
    if (ev.type == "iteration" && (ev.name == "lhs" || ev.name == "qcsa")) {
      ++run.phase_a_evals;
    }
    if (ev.type == "phase" && ev.name == "iicp") {
      run.transferred = ev.Num("transferred");
    }
  }
  return run;
}

void ExpectSameTune(const TuningResult& a, const TuningResult& b) {
  EXPECT_TRUE(a.best_conf == b.best_conf);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.best_observed_seconds),
            std::bit_cast<uint64_t>(b.best_observed_seconds));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.optimization_seconds),
            std::bit_cast<uint64_t>(b.optimization_seconds));
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.failed_evaluations, b.failed_evaluations);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.trajectory[i]),
              std::bit_cast<uint64_t>(b.trajectory[i]))
        << "trajectory[" << i << "]";
  }
}

// A warm start's third-of-budget schedule (8 / 3 -> 2 own samples) is
// below IICP's 4-sample floor: the hinted reduction is adopted as is and
// the DAGP is rebuilt in its latent space.
TEST(TransferHintTest, ShortWarmStartAdoptsHintedReduction) {
  DonorExport donor = TuneDonor();
  ASSERT_NE(donor.hint.iicp, nullptr);
  const RecipientRun run = TuneRecipient(8, donor.priors, donor.hint);
  EXPECT_EQ(run.phase_a_evals, 2);
  ASSERT_NE(run.iicp, nullptr);
  EXPECT_EQ(run.iicp, donor.hint.iicp) << "one shared object, not a copy";
  EXPECT_EQ(run.iicp->selected_params(), donor.hint.iicp->selected_params());
  ASSERT_FALSE(run.refit_dims.empty());
  for (int dim : run.refit_dims) {
    EXPECT_EQ(dim, donor.hint.iicp->latent_dim() + 1);
  }
  EXPECT_EQ(run.transferred, 1.0);
}

// With enough own samples (15 / 3 -> 5) the local IICP run succeeds and
// the hinted reduction changes nothing, bit for bit.
TEST(TransferHintTest, LocalIicpWinsOverHint) {
  DonorExport donor = TuneDonor();
  ASSERT_NE(donor.hint.iicp, nullptr);
  LocatTuner::TransferHint csq_only = donor.hint;
  csq_only.iicp = nullptr;
  const RecipientRun with = TuneRecipient(15, donor.priors, donor.hint);
  const RecipientRun without = TuneRecipient(15, donor.priors, csq_only);
  ASSERT_NE(with.iicp, nullptr);
  EXPECT_NE(with.iicp, donor.hint.iicp);
  EXPECT_EQ(with.transferred, 0.0);
  EXPECT_EQ(with.refit_dims, without.refit_dims);
  ExpectSameTune(with.result, without.result);
}

// Without a hinted reduction a short warm start keeps the 38-dimensional
// fallback, and seeding an empty hint is the same as seeding none.
TEST(TransferHintTest, NoHintKeepsFullSpaceFallback) {
  DonorExport donor = TuneDonor();
  const RecipientRun empty_hint =
      TuneRecipient(8, donor.priors, LocatTuner::TransferHint{});
  const RecipientRun no_hint = TuneRecipient(8, donor.priors, std::nullopt);
  EXPECT_EQ(empty_hint.iicp, nullptr);
  EXPECT_EQ(empty_hint.transferred, -1.0) << "no reduction, no iicp event";
  ASSERT_FALSE(empty_hint.refit_dims.empty());
  for (int dim : empty_hint.refit_dims) {
    EXPECT_EQ(dim, sparksim::kNumParams + 1);
  }
  EXPECT_EQ(empty_hint.refit_dims, no_hint.refit_dims);
  ExpectSameTune(empty_hint.result, no_hint.result);
}

// ------------------------------------------------- EI-MCMC ensemble cap

/// Ensemble sizes the iteration events of one tiny TPC-H tune report per
/// phase, in order (only events that follow an MCMC refit carry one).
std::map<std::string, std::vector<int>> EnsembleSizesByPhase(
    LocatTuner::Options opts) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 83);
  TuningSession session(&sim, workloads::TpcH());
  LocatTuner tuner(opts);
  obs::CollectingSink collector;
  obs::ObsContext ctx;
  ctx.observer = &collector;
  tuner.SetObservability(ctx);
  tuner.Tune(&session, 300.0);
  EXPECT_NE(tuner.iicp_result(), nullptr);
  std::map<std::string, std::vector<int>> sizes;
  for (const auto& ev : collector.events) {
    const int ensemble = static_cast<int>(ev.Num("mcmc_ensemble"));
    if (ev.type == "iteration" && ensemble > 0) {
      sizes[ev.name].push_back(ensemble);
    }
  }
  return sizes;
}

// The cap reaches both phases' ensembles: the default keeps 6 GPs before
// IICP and 10 after it, a cap of 1 a single GP in both.
TEST(HyperSampleCapTest, CapReachesBothPhases) {
  struct Case {
    int cap;
    int qcsa;
    int reduced;
  };
  const int default_cap = LocatTuner::Options().max_hyper_samples;
  for (const Case c : {Case{default_cap, 6, 10}, Case{1, 1, 1}}) {
    LocatTuner::Options opts = TinyLocatOptions();
    opts.max_hyper_samples = c.cap;
    const auto sizes = EnsembleSizesByPhase(opts);
    ASSERT_EQ(sizes.count("qcsa"), 1u) << "cap " << c.cap;
    ASSERT_EQ(sizes.count("reduced"), 1u) << "cap " << c.cap;
    for (int size : sizes.at("qcsa")) EXPECT_EQ(size, c.qcsa) << c.cap;
    for (int size : sizes.at("reduced")) EXPECT_EQ(size, c.reduced) << c.cap;
  }
}

// ------------------------------------------------ Proposal telemetry

// Each acquisition is stamped on the evaluation it produced: every
// reduced-phase run reports its own proposal's pool and wall time, and
// the recommend ranking pass's time rides on the first re-run only.
TEST(ProposalTelemetryTest, AcquisitionTimeIsStampedOnce) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 83);
  TuningSession session(&sim, workloads::TpcH());
  LocatTuner tuner(TinyLocatOptions());
  obs::CollectingSink collector;
  obs::ObsContext ctx;
  ctx.observer = &collector;
  tuner.SetObservability(ctx);
  tuner.Tune(&session, 300.0);
  int reduced = 0;
  int reruns = 0;
  int stamped_reruns = 0;
  for (const auto& ev : collector.events) {
    if (ev.type != "iteration") continue;
    if (ev.name == "reduced") {
      ++reduced;
      EXPECT_GT(ev.Num("candidate_pool"), 0) << "iteration " << ev.Num("iter");
      EXPECT_GT(ev.Num("acq_seconds"), 0.0) << "iteration " << ev.Num("iter");
    } else if (ev.name == "recommend") {
      ++reruns;
      if (ev.Num("acq_seconds") > 0.0) ++stamped_reruns;
    }
  }
  EXPECT_GT(reduced, 0);
  ASSERT_GE(reruns, 2);
  EXPECT_EQ(stamped_reruns, 1);
}

}  // namespace
}  // namespace locat::core
