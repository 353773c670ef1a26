// Observability subsystem: tracer nesting + Chrome export, metrics
// round-trips, telemetry JSONL round-trips, the simulated-time lane of
// the cluster simulator, and the null-observer determinism guarantee
// (tracing a tune pass must not change its result).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(TracerTest, SpansNestAndExportAsChromeTrace) {
  obs::ManualClock clock(/*start_ns=*/0, /*tick_ns=*/1000);
  obs::Tracer tracer(&clock);
  {
    obs::ScopedSpan outer(&tracer, "outer", "test");
    outer.Arg("n", 3.0);
    {
      obs::ScopedSpan inner(&tracer, "inner", "test");
      inner.Arg("label", std::string("a\"b"));
    }
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first; its recorded depth is one below the outer span.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, events[1].depth + 1);
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_TRUE(Contains(json, "\"traceEvents\":["));
  EXPECT_TRUE(Contains(json, "\"name\":\"outer\""));
  EXPECT_TRUE(Contains(json, "\"ph\":\"X\""));
  EXPECT_TRUE(Contains(json, "\"n\":3"));
  EXPECT_TRUE(Contains(json, "a\\\"b"));  // Arg strings are JSON-escaped
}

TEST(TracerTest, NullTracerIsANoOp) {
  obs::ScopedSpan span(nullptr, "never");
  span.Arg("k", 1.0);
  span.Arg("s", std::string("x"));
  // Destruction must not crash; nothing to assert beyond reaching here.
}

TEST(TracerTest, ManualClockMakesExportDeterministic) {
  auto render = [] {
    obs::ManualClock clock;
    obs::Tracer tracer(&clock);
    {
      obs::ScopedSpan a(&tracer, "a");
      obs::ScopedSpan b(&tracer, "b");
    }
    tracer.RecordComplete("sim", "sim", 10, 20, obs::kSimulatedPid, 0,
                          "\"x\":1");
    std::ostringstream os;
    tracer.WriteChromeTrace(os);
    return os.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(MetricsTest, PrometheusAndJsonRoundTrip) {
  obs::MetricsRegistry registry;
  obs::Counter* evals = registry.GetCounter("locat_evals_total", "runs");
  evals->Increment();
  evals->Increment(2.0);
  obs::Histogram* hist =
      registry.GetHistogram("locat_eval_seconds", "per-eval", {10.0, 100.0});
  hist->Observe(5.0);
  hist->Observe(50.0);
  hist->Observe(500.0);

  // Re-registration returns the same instance.
  EXPECT_EQ(registry.GetCounter("locat_evals_total"), evals);
  EXPECT_DOUBLE_EQ(evals->value(), 3.0);
  EXPECT_EQ(hist->count(), 3u);
  EXPECT_DOUBLE_EQ(hist->sum(), 555.0);

  std::ostringstream prom;
  registry.WritePrometheus(prom);
  const std::string text = prom.str();
  EXPECT_TRUE(Contains(text, "# HELP locat_evals_total runs"));
  EXPECT_TRUE(Contains(text, "# TYPE locat_evals_total counter"));
  EXPECT_TRUE(Contains(text, "locat_evals_total 3"));
  // Cumulative buckets: le=10 -> 1, le=100 -> 2, +Inf -> 3.
  EXPECT_TRUE(Contains(text, "locat_eval_seconds_bucket{le=\"10\"} 1"));
  EXPECT_TRUE(Contains(text, "locat_eval_seconds_bucket{le=\"100\"} 2"));
  EXPECT_TRUE(Contains(text, "locat_eval_seconds_bucket{le=\"+Inf\"} 3"));
  EXPECT_TRUE(Contains(text, "locat_eval_seconds_count 3"));

  std::ostringstream js;
  registry.WriteJson(js);
  const std::string json = js.str();
  EXPECT_TRUE(Contains(json, "\"counters\""));
  EXPECT_TRUE(Contains(json, "\"locat_evals_total\":3"));
}

TEST(TelemetryTest, JsonlRoundTrip) {
  std::ostringstream os;
  obs::JsonlSink sink(&os);
  sink.Emit(obs::Event("iteration", "LOCAT", "reduced",
                       {{"iter", 7},
                        {"eval_seconds", 1234.5},
                        {"objective_seconds", 1100.25},
                        {"relative_ei", 0.02},
                        {"full_app", false},
                        {"mcmc_density_evals", int64_t{4200}}}));
  obs::EmitPhase(&sink, "LOCAT", "qcsa", {{"csq", 33.0}, {"ciq", 71}});
  obs::Event log("log", "cli", "quote \" and \\ and\nline", {{"app", "a\tb"}});
  log.level = "info";
  log.t_ns = 123456789012345;
  sink.Emit(log);

  // The encoder writes the keys in record order, numbers as %.10g.
  const std::string text = os.str();
  EXPECT_TRUE(Contains(
      text,
      "{\"type\":\"iteration\",\"tuner\":\"LOCAT\",\"phase\":\"reduced\","
      "\"iter\":7,\"eval_seconds\":1234.5,\"objective_seconds\":1100.25,"
      "\"relative_ei\":0.02,\"full_app\":false,"
      "\"mcmc_density_evals\":4200}\n"));
  EXPECT_TRUE(Contains(text,
                       "{\"type\":\"phase\",\"tuner\":\"LOCAT\","
                       "\"phase\":\"qcsa\",\"csq\":33,\"ciq\":71}\n"));
  EXPECT_TRUE(Contains(text,
                       "{\"type\":\"log\",\"t_ns\":123456789012345,"
                       "\"level\":\"info\",\"component\":\"cli\","));

  const auto parsed = obs::ParseTelemetry(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& records = parsed.value();
  ASSERT_EQ(records.size(), 3u);

  const auto& r0 = records[0];
  EXPECT_EQ(r0.type, "iteration");
  EXPECT_EQ(r0.source, "LOCAT");
  EXPECT_EQ(r0.name, "reduced");
  ASSERT_EQ(r0.fields().size(), 6u);
  EXPECT_STREQ(r0.fields()[0].key, "iter");
  EXPECT_DOUBLE_EQ(r0.Num("iter"), 7.0);
  EXPECT_DOUBLE_EQ(r0.Num("eval_seconds"), 1234.5);
  EXPECT_DOUBLE_EQ(r0.Num("objective_seconds"), 1100.25);
  EXPECT_DOUBLE_EQ(r0.Num("relative_ei"), 0.02);
  EXPECT_DOUBLE_EQ(r0.Num("full_app", -1.0), 0.0);  // bools read as 0/1
  EXPECT_DOUBLE_EQ(r0.Num("mcmc_density_evals"), 4200.0);

  const auto& r1 = records[1];
  EXPECT_EQ(r1.type, "phase");
  EXPECT_EQ(r1.name, "qcsa");
  EXPECT_DOUBLE_EQ(r1.Num("csq"), 33.0);
  EXPECT_DOUBLE_EQ(r1.Num("ciq"), 71.0);

  const auto& r2 = records[2];
  EXPECT_EQ(r2.type, "log");
  EXPECT_EQ(r2.source, "cli");
  EXPECT_EQ(r2.name, "quote \" and \\ and\nline");
  EXPECT_EQ(r2.level, "info");
  EXPECT_EQ(r2.t_ns, 123456789012345u);
  EXPECT_EQ(r2.Find("app")->str, "a\tb");

  // Re-encoding the parsed records reproduces the file byte for byte.
  std::ostringstream again;
  for (const auto& rec : records) obs::WriteJsonl(again, rec);
  EXPECT_EQ(again.str(), text);
}

TEST(TelemetryTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(obs::ParseTelemetry("not json\n").ok());
  EXPECT_FALSE(obs::ParseTelemetry("{\"a\":}\n").ok());
  EXPECT_FALSE(obs::ParseTelemetry("{\"a\":1}\n").ok());  // missing type
  EXPECT_FALSE(obs::ParseTelemetry(
                   "{\"type\":\"phase\",\"a_key_longer_than_the_slot\":1}\n")
                   .ok());
  // Empty lines are fine.
  const auto ok = obs::ParseTelemetry("\n{\"type\":\"phase\"}\n\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 1u);
}

TEST(SimulatorTraceTest, EmitsSimulatedLaneWithoutChangingResults) {
  const auto app = workloads::HiBenchAggregation();
  sparksim::ConfigSpace space(sparksim::X86Cluster());
  const auto conf = space.Repair(space.DefaultConf());

  sparksim::ClusterSimulator plain(sparksim::X86Cluster(), 99);
  const auto untraced = plain.RunApp(app, conf, 200.0);

  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  sparksim::ClusterSimulator traced_sim(sparksim::X86Cluster(), 99);
  traced_sim.set_tracer(&tracer);
  const auto traced = traced_sim.RunApp(app, conf, 200.0);

  // Tracing is purely observational: identical seeds, identical results.
  EXPECT_DOUBLE_EQ(traced.total_seconds, untraced.total_seconds);
  EXPECT_DOUBLE_EQ(traced.gc_seconds, untraced.gc_seconds);

  int sim_lane = 0;
  int wall_lane = 0;
  uint64_t app_end = 0;
  for (const auto& ev : tracer.snapshot()) {
    if (ev.pid == obs::kSimulatedPid) {
      ++sim_lane;
      app_end = std::max(app_end, ev.start_ns + ev.dur_ns);
    } else {
      ++wall_lane;
    }
  }
  // submit + per-query (query, scan, maybe shuffle/gc) + app envelope.
  EXPECT_GE(sim_lane, 2 + 2 * app.num_queries());
  EXPECT_GE(wall_lane, 1);  // the wall-clock "sim/app" span

  // A second run appends after the first: the lane is one monotonic
  // schedule, not overlapping restarts.
  traced_sim.RunApp(app, conf, 200.0);
  uint64_t second_app_start = ~uint64_t{0};
  int count = 0;
  for (const auto& ev : tracer.snapshot()) {
    if (ev.pid == obs::kSimulatedPid && ++count > sim_lane) {
      second_app_start = std::min(second_app_start, ev.start_ns);
    }
  }
  EXPECT_GE(second_app_start, app_end);
}

// Wiring a full observability context must not change what any tuner
// computes: telemetry reads state, it never draws from the RNGs.
TEST(ObservedTuneTest, ObserverDoesNotChangeTunerOutput) {
  auto run = [](bool observed, obs::CollectingSink* collector,
                obs::MetricsRegistry* metrics) {
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 777);
    core::TuningSession session(&sim, workloads::HiBenchAggregation());
    auto tuner = harness::MakeTuner("LOCAT", /*seed_salt=*/0);
    obs::Tracer tracer;
    if (observed) {
      sim.set_tracer(&tracer);
      obs::ObsContext ctx;
      ctx.tracer = &tracer;
      ctx.metrics = metrics;
      ctx.observer = collector;
      session.SetObservability(ctx);
      tuner->SetObservability(ctx);
    }
    return tuner->Tune(&session, 150.0);
  };

  obs::CollectingSink collector;
  obs::MetricsRegistry metrics;
  const auto plain = run(false, nullptr, nullptr);
  const auto observed = run(true, &collector, &metrics);

  EXPECT_EQ(observed.evaluations, plain.evaluations);
  EXPECT_DOUBLE_EQ(observed.optimization_seconds, plain.optimization_seconds);
  EXPECT_DOUBLE_EQ(observed.best_observed_seconds,
                   plain.best_observed_seconds);
  EXPECT_TRUE(observed.best_conf == plain.best_conf);

  // Coverage invariant: one iteration event per charged evaluation, and
  // the per-event charges sum to the meter exactly.
  int iterations = 0;
  double charged = 0.0;
  for (const auto& ev : collector.events) {
    if (ev.type != "iteration") continue;
    ++iterations;
    charged += ev.Num("eval_seconds");
  }
  EXPECT_EQ(iterations, plain.evaluations);
  EXPECT_NEAR(charged, plain.optimization_seconds,
              1e-9 * plain.optimization_seconds);

  // The meter counter agrees with the tuner's own accounting.
  EXPECT_DOUBLE_EQ(
      metrics.GetCounter("locat_evaluations_total")->value(),
      static_cast<double>(plain.evaluations));
  EXPECT_NEAR(metrics.GetCounter("locat_optimization_seconds_total")->value(),
              plain.optimization_seconds,
              1e-9 * plain.optimization_seconds);

  // LOCAT emits its analysis phases and a final summary.
  bool saw_qcsa = false;
  bool saw_summary = false;
  for (const auto& ev : collector.events) {
    if (ev.type != "phase") continue;
    if (ev.name == "qcsa") saw_qcsa = true;
    if (ev.name == "summary") saw_summary = true;
  }
  EXPECT_TRUE(saw_qcsa);
  EXPECT_TRUE(saw_summary);
}

// candidate_pool counts the candidates EI actually scored: near-duplicates
// of past observations are dropped before scoring, so the pool is at most
// the generated count and smaller whenever one was dropped.
TEST(ObservedTuneTest, CandidatePoolCountsScoredCandidates) {
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 777);
  core::TuningSession session(&sim, workloads::HiBenchAggregation());
  auto tuner = harness::MakeTuner("LOCAT", /*seed_salt=*/0);
  obs::CollectingSink collector;
  obs::ObsContext ctx;
  ctx.observer = &collector;
  tuner->SetObservability(ctx);
  tuner->Tune(&session, 150.0);

  const int generated = core::LocatTuner::Options().candidates;
  int proposals = 0;
  int pruned = 0;
  for (const auto& ev : collector.events) {
    if (ev.type != "iteration") continue;
    const double pool = ev.Num("candidate_pool");
    EXPECT_GE(pool, 0);
    EXPECT_LE(pool, generated);
    if (ev.name != "reduced") continue;
    ++proposals;
    if (pool < generated) ++pruned;
  }
  EXPECT_GT(proposals, 0);
  EXPECT_GT(pruned, 0);
}

// LOCAT and the baselines send iteration records with one key set, in the
// order the JSONL has always had, so `locat report` reads every tuner alike.
TEST(ObservedTuneTest, IterationKeysMatchAcrossTuners) {
  const std::vector<std::string> want = {
      "iter",          "datasize_gb",        "eval_seconds",
      "objective_seconds", "incumbent_seconds", "relative_ei",
      "candidate_pool", "full_app",          "dagp_fit_seconds",
      "acq_seconds",   "mcmc_ensemble",      "mcmc_density_evals",
      "mcmc_acceptance", "rqa_share",        "rqa_queries",
      "failed_evals",  "pred_log_mean",      "pred_log_sd"};
  for (const char* name : {"LOCAT", "Random", "Tuneful"}) {
    SCOPED_TRACE(name);
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 777);
    core::TuningSession session(&sim, workloads::HiBenchAggregation());
    auto tuner = harness::MakeTuner(name, /*seed_salt=*/0);
    obs::CollectingSink collector;
    obs::ObsContext ctx;
    ctx.observer = &collector;
    tuner->SetObservability(ctx);
    tuner->Tune(&session, 150.0);
    int iterations = 0;
    int predicted = 0;
    for (const auto& ev : collector.events) {
      if (ev.type != "iteration") continue;
      ++iterations;
      std::vector<std::string> keys;
      for (const obs::Field& f : ev.fields()) keys.push_back(f.key);
      ASSERT_EQ(keys, want) << ev.name;
      if (ev.Num("pred_log_sd") > 0.0) ++predicted;
    }
    EXPECT_GT(iterations, 0);
    // Only LOCAT's proposals carry the surrogate's prediction.
    if (std::string(name) == "LOCAT") {
      EXPECT_GT(predicted, 0);
    } else {
      EXPECT_EQ(predicted, 0);
    }
  }
}

}  // namespace
}  // namespace locat
