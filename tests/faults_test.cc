// Fault-injection tests: the deterministic fault schedule, the
// censored-cost machinery, and the failure-aware tuner end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "ml/lhs.h"
#include "obs/trace.h"
#include "sparksim/cluster.h"
#include "sparksim/config.h"
#include "sparksim/faults.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat::sparksim {
namespace {

SparkConf SweepConf(const ConfigSpace& space, uint64_t salt) {
  Rng rng(salt);
  return space.RandomValid(&rng);
}

/// A plan that kills every run at its first query: severity bound 0 is
/// always reached and the kill coin always lands. Used to probe the
/// failed-run paths without depending on preset probabilities.
FaultSpec KillCertainSpec(uint64_t seed) {
  FaultSpec spec;
  spec.level = FaultLevel::kLight;  // any non-off level enables the plan
  spec.seed = seed;
  spec.kill_severity = 0.0;
  spec.kill_prob = 1.0;
  return spec;
}

// ------------------------------------------------------------- FaultSpec

TEST(FaultSpecTest, PresetsAndFromName) {
  EXPECT_FALSE(FaultSpec::Off().enabled());
  EXPECT_TRUE(FaultSpec::Light(1).enabled());
  EXPECT_TRUE(FaultSpec::Heavy(1).enabled());
  // Heavy is strictly more hostile than light on every axis it shares.
  const FaultSpec light = FaultSpec::Light(0);
  const FaultSpec heavy = FaultSpec::Heavy(0);
  EXPECT_GT(heavy.executor_loss_prob, light.executor_loss_prob);
  EXPECT_GT(heavy.straggler_prob, light.straggler_prob);
  EXPECT_GT(heavy.fetch_failure_prob, light.fetch_failure_prob);
  EXPECT_LT(heavy.kill_severity, light.kill_severity);

  EXPECT_TRUE(FaultSpec::FromName("off", 3).ok());
  EXPECT_FALSE(FaultSpec::FromName("off", 3)->enabled());
  EXPECT_EQ(FaultSpec::FromName("light", 3)->seed, 3u);
  EXPECT_EQ(FaultSpec::FromName("heavy", 3)->level, FaultLevel::kHeavy);
  EXPECT_EQ(FaultSpec::FromName("bogus", 3).status().code(),
            StatusCode::kInvalidArgument);
}

// The FaultSpec::FromName plumbing the CLI uses yields the same plan as
// the preset constructor.
TEST(FaultSpecTest, FromNameHeavy) {
  auto spec = FaultSpec::FromName("heavy", 9);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const FaultSpec want = FaultSpec::Heavy(9);
  EXPECT_EQ(spec->level, want.level);
  EXPECT_EQ(spec->seed, want.seed);
  EXPECT_EQ(spec->executor_loss_prob, want.executor_loss_prob);
  EXPECT_EQ(spec->executor_loss_frac, want.executor_loss_frac);
  EXPECT_EQ(spec->straggler_prob, want.straggler_prob);
  EXPECT_EQ(spec->straggler_mult, want.straggler_mult);
  EXPECT_EQ(spec->fetch_failure_prob, want.fetch_failure_prob);
  EXPECT_EQ(spec->kill_severity, want.kill_severity);
  EXPECT_EQ(spec->kill_prob, want.kill_prob);
}

TEST(FaultSpecTest, DrawCountIsOutcomeIndependent) {
  // The draws consumed per run depend only on the query count.
  EXPECT_EQ(FaultDrawCount(0), kFaultDrawsPerRun);
  EXPECT_EQ(FaultDrawCount(5), kFaultDrawsPerRun + 5 * kFaultDrawsPerQuery);
  Rng a(7), b(7);
  std::vector<double> d1(FaultDrawCount(4)), d2(FaultDrawCount(4));
  DrawRunFaults(&a, 4, d1.data());
  DrawRunFaults(&b, 4, d2.data());
  EXPECT_EQ(d1, d2);
}

TEST(CensoredObjectiveTest, ImputesWorstSeenTimesMargin) {
  // Nothing observed yet: the margin alone keeps the cost positive.
  EXPECT_DOUBLE_EQ(core::CensoredObjective(0.0, 0.0, 2.0), 2.0);
  // The censored cost is at least the partial time and at least the worst
  // completed run, scaled by the margin.
  EXPECT_DOUBLE_EQ(core::CensoredObjective(100.0, 0.0, 2.0), 200.0);
  EXPECT_DOUBLE_EQ(core::CensoredObjective(100.0, 150.0, 2.0), 300.0);
  EXPECT_DOUBLE_EQ(core::CensoredObjective(100.0, 40.0, 1.5), 150.0);
}

// ----------------------------------------------- deterministic schedule

TEST(FaultDeterminismTest, SameSeedSameScheduleAcrossThreads) {
  const auto app = workloads::TpcH();
  ConfigSpace space(X86Cluster());
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  // The whole app and an RQA-style subset; every run alternates between
  // them so the fault stream sees both draw counts.
  const std::vector<std::vector<int>> subsets = {all, {0, 2, 4, 5, 9}};

  // Reference: single-threaded.
  std::vector<AppRunResult> expected;
  FaultStats expected_stats;
  int64_t expected_runs = 0;
  {
    common::ThreadPool::SetGlobalThreads(1);
    ClusterSimulator sim(X86Cluster(), 42);
    sim.set_faults(FaultSpec::Heavy(7));
    for (uint64_t s = 0; s < 10; ++s) {
      expected.push_back(*sim.RunAppSubset(app, subsets[s % 2],
                                           SweepConf(space, s), 200.0));
    }
    expected_stats = sim.fault_stats();
    expected_runs = sim.runs_performed();
  }
  ASSERT_EQ(expected.size(), 10u);

  for (int threads : {1, 4, 8}) {
    common::ThreadPool::SetGlobalThreads(threads);
    ClusterSimulator sim(X86Cluster(), 42);
    sim.set_faults(FaultSpec::Heavy(7));
    for (uint64_t s = 0; s < 10; ++s) {
      const AppRunResult got = *sim.RunAppSubset(app, subsets[s % 2],
                                                 SweepConf(space, s), 200.0);
      const AppRunResult& want = expected[s];
      ASSERT_EQ(got.failed, want.failed)
          << "threads=" << threads << " run=" << s;
      EXPECT_EQ(got.failed_at_query, want.failed_at_query);
      EXPECT_EQ(got.fail_reason, want.fail_reason);
      EXPECT_EQ(got.retries, want.retries);
      EXPECT_EQ(got.lost_executors, want.lost_executors);
      EXPECT_EQ(got.total_seconds, want.total_seconds);  // bit-identical
      EXPECT_EQ(got.gc_seconds, want.gc_seconds);
      ASSERT_EQ(got.per_query.size(), want.per_query.size());
      for (size_t q = 0; q < got.per_query.size(); ++q) {
        EXPECT_EQ(got.per_query[q].exec_seconds,
                  want.per_query[q].exec_seconds);
        EXPECT_EQ(got.per_query[q].failed, want.per_query[q].failed);
        EXPECT_EQ(got.per_query[q].retries, want.per_query[q].retries);
      }
    }
    EXPECT_EQ(sim.runs_performed(), expected_runs);
    const FaultStats& fs = sim.fault_stats();
    EXPECT_EQ(fs.executor_losses, expected_stats.executor_losses);
    EXPECT_EQ(fs.stragglers, expected_stats.stragglers);
    EXPECT_EQ(fs.fetch_failures, expected_stats.fetch_failures);
    EXPECT_EQ(fs.app_kills, expected_stats.app_kills);
    EXPECT_EQ(fs.failed_runs, expected_stats.failed_runs);
  }
  common::ThreadPool::SetGlobalThreads(0);  // restore default
}

TEST(FaultDeterminismTest, HeavyPlanActuallyInjectsAndKills) {
  const auto app = workloads::TpcH();
  ConfigSpace space(X86Cluster());
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  ClusterSimulator sim(X86Cluster(), 42);
  sim.set_faults(FaultSpec::Heavy(7));
  int failed = 0;
  for (uint64_t s = 0; s < 40; ++s) {
    const AppRunResult run =
        *sim.RunAppSubset(app, all, SweepConf(space, s), 200.0);
    if (run.failed) {
      ++failed;
      EXPECT_EQ(run.fail_reason, "oom_kill");
      EXPECT_GE(run.failed_at_query, 0);
      ASSERT_FALSE(run.per_query.empty());
      EXPECT_TRUE(run.per_query.back().failed);
    }
  }
  const FaultStats& fs = sim.fault_stats();
  EXPECT_EQ(fs.failed_runs, static_cast<uint64_t>(failed));
  EXPECT_EQ(fs.app_kills, static_cast<uint64_t>(failed));
  // A heavy plan over 40 random confs must visibly perturb the cluster.
  EXPECT_GT(fs.executor_losses + fs.stragglers + fs.fetch_failures, 0u);
}

TEST(FaultDeterminismTest, FaultsOffIsByteIdenticalToNoFaultSetup) {
  const auto app = workloads::HiBenchJoin();
  ConfigSpace space(ArmCluster());
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);

  ClusterSimulator plain(ArmCluster(), 5);
  ClusterSimulator off(ArmCluster(), 5);
  off.set_faults(FaultSpec::Off());
  for (uint64_t s = 0; s < 5; ++s) {
    const SparkConf conf = SweepConf(space, 100 + s);
    const AppRunResult a = *plain.RunAppSubset(app, all, conf, 150.0);
    const AppRunResult b = *off.RunAppSubset(app, all, conf, 150.0);
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.gc_seconds, b.gc_seconds);
    EXPECT_FALSE(b.failed);
  }
  EXPECT_EQ(off.fault_stats().failed_runs, 0u);
}

// -------------------------------------------------- failure-aware tuning

core::LocatTuner::Options TinyTunerOptions() {
  core::LocatTuner::Options opts;
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

TEST(FailureAwareTuningTest, EvaluateReturnsFailureAndChargesPartialTime) {
  const auto app = workloads::TpcH();
  ClusterSimulator sim(X86Cluster(), 12);
  sim.set_faults(KillCertainSpec(5));
  core::TuningSession session(&sim, app);
  const SparkConf conf =
      session.space().Repair(session.space().DefaultConf());
  const StatusOr<core::EvalRecord> rec = session.Evaluate(conf, 100.0);
  ASSERT_TRUE(rec.ok());  // a kill is a result, not a Status error
  EXPECT_TRUE(rec->failed);
  EXPECT_EQ(rec->fail_reason, "oom_kill");
  EXPECT_GT(rec->app_seconds, 0.0);  // partial time is still charged
  EXPECT_DOUBLE_EQ(session.optimization_seconds(), rec->app_seconds);
}

TEST(FailureAwareTuningTest, InvalidArgumentsComeBackAsStatus) {
  const auto app = workloads::TpcH();
  ClusterSimulator sim(X86Cluster(), 13);
  core::TuningSession session(&sim, app);
  const SparkConf conf =
      session.space().Repair(session.space().DefaultConf());
  EXPECT_EQ(session.Evaluate(conf, -5.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Evaluate(conf, std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.EvaluateSubset(conf, 100.0, {0, 99}).status().code(),
            StatusCode::kOutOfRange);
  // Nothing was charged for rejected requests.
  EXPECT_DOUBLE_EQ(session.optimization_seconds(), 0.0);
  EXPECT_EQ(session.evaluations(), 0);
}

TEST(FailureAwareTuningTest, ChargePenaltySecondsFeedsTheMeter) {
  const auto app = workloads::HiBenchScan();
  ClusterSimulator sim(X86Cluster(), 14);
  core::TuningSession session(&sim, app);
  session.ChargePenaltySeconds(120.0);
  session.ChargePenaltySeconds(-5.0);  // ignored
  EXPECT_DOUBLE_EQ(session.optimization_seconds(), 120.0);
  EXPECT_EQ(session.evaluations(), 0);  // a penalty is not an evaluation
}

TEST(FailureAwareTuningTest, TunerConvergesDespiteInjectedFailures) {
  const auto app = workloads::TpcH();

  // Fault-free reference recommendation.
  ClusterSimulator clean_sim(X86Cluster(), 55);
  core::TuningSession clean_session(&clean_sim, app);
  core::LocatTuner clean_tuner(TinyTunerOptions());
  const core::TuningResult clean = clean_tuner.Tune(&clean_session, 200.0);
  EXPECT_EQ(clean.failed_evaluations, 0);

  // Same tuner under a heavy fault plan.
  ClusterSimulator sim(X86Cluster(), 55);
  sim.set_faults(FaultSpec::Heavy(7));
  core::TuningSession session(&sim, app);
  core::LocatTuner tuner(TinyTunerOptions());
  const core::TuningResult faulted = tuner.Tune(&session, 200.0);

  EXPECT_GT(sim.fault_stats().failed_runs, 0u);
  EXPECT_GE(tuner.failed_evaluations(), 1);
  EXPECT_EQ(faulted.failed_evaluations, tuner.failed_evaluations());

  // Convergence: judged on the noise- and fault-free model, the faulted
  // recommendation stays in the same quality band as the clean one.
  SimParams quiet;
  quiet.noise_sigma = 0.0;
  ClusterSimulator judge(X86Cluster(), 1, quiet);
  const double clean_cost = judge.RunApp(app, clean.best_conf, 200.0).total_seconds;
  const double faulted_cost =
      judge.RunApp(app, faulted.best_conf, 200.0).total_seconds;
  EXPECT_LT(faulted_cost, 1.5 * clean_cost);

  // And it still beats the defaults despite the failures.
  const double default_cost =
      judge
          .RunApp(app,
                  session.space().Repair(session.space().DefaultConf()),
                  200.0)
          .total_seconds;
  EXPECT_LT(faulted_cost, default_cost);
}

TEST(FailureAwareTuningTest, RetryBudgetChargesBackoffToTheMeter) {
  // With a kill-certain plan every evaluation fails, retries included, so
  // each charged evaluation pays 3 runs (2 retries) plus the backoff.
  const auto app = workloads::HiBenchScan();
  ClusterSimulator sim(X86Cluster(), 16);
  sim.set_faults(KillCertainSpec(6));
  core::TuningSession session(&sim, app);
  core::LocatTuner::Options opts = TinyTunerOptions();
  opts.max_iterations = 3;
  core::LocatTuner tuner(opts);
  const core::TuningResult result = tuner.Tune(&session, 100.0);
  EXPECT_GE(result.failed_evaluations, 1);
  // Backoff seconds 30 + 60 appear in the meter for each retried eval.
  EXPECT_GE(session.optimization_seconds(), 90.0);
  // Every evaluation kept failing: the tuner still terminates and reports
  // a (censored) result rather than spinning.
  EXPECT_GT(session.evaluations(), 0);
}

TEST(FailureAwareTuningTest, FirstAttemptsRunBeforeRetries) {
  // Every LHS start point runs once before any of them is retried: with a
  // kill-certain plan the session opens with the three distinct start
  // points h0 h1 h2, then each one's two retries back to back, in the
  // same order. Every run draws noise and faults from the simulator's
  // streams, so a twin simulator that replays the start points in that
  // order must reproduce the simulated seconds of the first nine
  // "session/evaluate" spans.
  const auto app = workloads::HiBenchScan();
  ClusterSimulator sim(X86Cluster(), 16);
  sim.set_faults(KillCertainSpec(6));
  core::TuningSession session(&sim, app);
  core::LocatTuner::Options opts = TinyTunerOptions();
  opts.lhs_init = 3;
  core::LocatTuner tuner(opts);
  obs::Tracer tracer;
  obs::ObsContext ctx;
  ctx.tracer = &tracer;
  session.SetObservability(ctx);
  tuner.Tune(&session, 100.0);
  std::vector<std::string> got;  // the spans' simulated_seconds, in order
  const std::string key = "\"simulated_seconds\":";
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    if (ev.name != "session/evaluate") continue;
    const size_t at = ev.args.find(key);
    ASSERT_NE(at, std::string::npos) << ev.args;
    const size_t from = at + key.size();
    got.push_back(ev.args.substr(from, ev.args.find(',', from) - from));
  }
  ASSERT_GE(got.size(), 9u);

  // The tuner's start points: its first draws are the LHS design.
  Rng rng(opts.seed);
  const math::Matrix lhs =
      ml::LatinHypercube(opts.lhs_init, kNumParams, &rng);
  std::vector<SparkConf> h;
  for (size_t i = 0; i < 3; ++i) {
    h.push_back(session.space().Repair(session.space().FromUnit(lhs.Row(i))));
  }
  EXPECT_FALSE(h[0] == h[1]);
  EXPECT_FALSE(h[0] == h[2]);
  EXPECT_FALSE(h[1] == h[2]);

  ClusterSimulator twin(X86Cluster(), 16);
  twin.set_faults(KillCertainSpec(6));
  const size_t order[] = {0, 1, 2, 0, 0, 1, 1, 2, 2};
  for (size_t k = 0; k < 9; ++k) {
    const AppRunResult run = twin.RunApp(app, h[order[k]], 100.0);
    EXPECT_TRUE(run.failed) << "attempt " << k;
    // The span prints its value with %.9g; format the twin's the same way.
    char want[32];
    std::snprintf(want, sizeof(want), "%.9g", run.total_seconds);
    EXPECT_EQ(got[k], want) << "attempt " << k << " (h" << order[k] << ")";
  }
}

TEST(FailureAwareTuningTest, IdenticalFaultedTunesAreBitIdentical) {
  const auto app = workloads::HiBenchAggregation();
  auto run_once = [&]() {
    ClusterSimulator sim(X86Cluster(), 21);
    sim.set_faults(FaultSpec::Heavy(7));
    core::TuningSession session(&sim, app);
    core::LocatTuner tuner(TinyTunerOptions());
    return tuner.Tune(&session, 150.0);
  };
  const core::TuningResult a = run_once();
  const core::TuningResult b = run_once();
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.failed_evaluations, b.failed_evaluations);
  EXPECT_DOUBLE_EQ(a.best_observed_seconds, b.best_observed_seconds);
  EXPECT_DOUBLE_EQ(a.optimization_seconds, b.optimization_seconds);
  EXPECT_TRUE(a.best_conf == b.best_conf);
}

}  // namespace
}  // namespace locat::sparksim
