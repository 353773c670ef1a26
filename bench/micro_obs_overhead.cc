// Observability overhead micro benchmarks.
//
// The locat::obs contract is "zero cost when disabled, <2% when enabled":
// a null Tracer*/Sink* must not allocate or read a clock, and a
// fully wired context must stay in the noise next to the simulator work
// it measures. The BM_SimApp_* pair is the headline number: the full
// simulated app run with tracing off vs on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "obs/flight_recorder.h"
#include "obs/labels.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace {

using namespace locat;

// Disabled-path floor: a scope guarded by a null tracer.
void BM_ScopedSpan_Disabled(benchmark::State& state) {
  obs::Tracer* tracer = nullptr;
  for (auto _ : state) {
    obs::ScopedSpan span(tracer, "bench/span", "bench");
    span.Arg("n", 1.0);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ScopedSpan_Disabled);

void BM_ScopedSpan_Enabled(benchmark::State& state) {
  obs::Tracer tracer;
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "bench/span", "bench");
    span.Arg("n", 1.0);
    benchmark::DoNotOptimize(&span);
  }
  state.counters["events"] = static_cast<double>(tracer.event_count());
}
BENCHMARK(BM_ScopedSpan_Enabled);

void BM_CounterIncrement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_total");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram(
      "bench_seconds", "", {1.0, 10.0, 100.0, 1000.0});
  double v = 0.0;
  for (auto _ : state) {
    hist->Observe(v);
    v += 0.7;
    if (v > 2000.0) v = 0.0;
  }
  benchmark::DoNotOptimize(hist->count());
}
BENCHMARK(BM_HistogramObserve);

// Labeled-family lookup: the map+mutex path taken when a caller resolves
// a child by LabelSet every time. Wired code should not do this on a hot
// path — it resolves once and keeps the Counter* (next benchmark).
void BM_CounterFamily_WithLabels(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::CounterFamily* family =
      registry.GetCounterFamily("bench_family_total");
  const obs::LabelSet labels({{"app", "TPC-H"}, {"status", "ok"}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(family->WithLabels(labels));
  }
}
BENCHMARK(BM_CounterFamily_WithLabels);

// Cached-child path: resolve once at wiring time, then one relaxed
// fetch_add per event. This must match BM_CounterIncrement.
void BM_CounterFamily_CachedChild(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::CounterFamily* family =
      registry.GetCounterFamily("bench_family_total");
  obs::Counter* child =
      family->WithLabels(obs::LabelSet({{"app", "TPC-H"}, {"status", "ok"}}));
  for (auto _ : state) {
    child->Increment();
  }
  benchmark::DoNotOptimize(child->value());
}
BENCHMARK(BM_CounterFamily_CachedChild);

// Disabled-path floor for structured logging: one relaxed level load,
// no clock read, no allocation. Fields are built only after the check.
void BM_Log_Disabled(benchmark::State& state) {
  obs::Log log;  // default level kOff
  for (auto _ : state) {
    if (log.Enabled(obs::LogLevel::kInfo)) {
      log.Info("bench", "never emitted", {{"n", "1"}});
    }
    benchmark::DoNotOptimize(&log);
  }
}
BENCHMARK(BM_Log_Disabled);

void BM_Log_Enabled_Jsonl(benchmark::State& state) {
  std::ostringstream os;
  obs::Log log;
  log.SetLevel(obs::LogLevel::kInfo);
  log.SetJsonlSink(&os);
  for (auto _ : state) {
    log.Info("bench", "structured record", {{"n", "1"}, {"phase", "bench"}});
    if (os.tellp() > (1 << 22)) {
      state.PauseTiming();
      os.str("");
      state.ResumeTiming();
    }
  }
  state.counters["written"] = static_cast<double>(log.written());
}
BENCHMARK(BM_Log_Enabled_Jsonl);

// Flight-recorder append: wait-free seqlock slot claim + fixed-size
// copies. This sits on the simulator fault path, so it must stay flat.
void BM_FlightRecord(benchmark::State& state) {
  obs::FlightRecorder flight(256);
  obs::Event ev("log", "bench", "ring append payload", {{"value", 0.0}});
  ev.level = "info";
  for (auto _ : state) flight.Record(ev);
  benchmark::DoNotOptimize(flight.total_recorded());
}
BENCHMARK(BM_FlightRecord);

// One wired iteration record as a tuner pays for it: build the 16-field
// event, then encode it.
void BM_JsonlIterationEvent(benchmark::State& state) {
  std::ostringstream os;
  obs::JsonlSink sink(&os);
  int iteration = 0;
  for (auto _ : state) {
    core::EmitSimpleIteration(&sink, "LOCAT", "reduced", iteration++, 300.0,
                              1234.5, 1100.25, 900.0, false);
  }
  benchmark::DoNotOptimize(os.str().size());
}
BENCHMARK(BM_JsonlIterationEvent);

// Absolute cost of the simulated-time trace lane: one full TPC-H app run
// emits ~100 lane events (~tens of µs). Against the *analytical*
// simulator this ratio is large — the analytical run replaces minutes of
// real Spark execution with microseconds of arithmetic — so this pair
// reports the absolute per-app emission cost, not the contract ratio.
void RunSimApp(benchmark::State& state, bool traced) {
  const auto app = workloads::TpcH();
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 7);
  sparksim::ConfigSpace space(sim.cluster());
  const auto conf = space.Repair(space.DefaultConf());
  obs::Tracer tracer;
  if (traced) sim.set_tracer(&tracer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunApp(app, conf, 300.0).total_seconds);
    if (traced && tracer.event_count() > 500000) {
      state.PauseTiming();
      tracer.Clear();
      state.ResumeTiming();
    }
  }
}
void BM_SimApp_Untraced(benchmark::State& state) { RunSimApp(state, false); }
void BM_SimApp_Traced(benchmark::State& state) { RunSimApp(state, true); }
BENCHMARK(BM_SimApp_Untraced);
BENCHMARK(BM_SimApp_Traced);

// Headline number: a small LOCAT cold-start pass (the wall-clock cost is
// dominated by DAGP/EI-MCMC model fits, as a real deployment's is by
// Spark runs) with observability fully off vs fully on — tracer, metrics,
// JSONL telemetry, and the simulator lane. The contract is < 2% overhead
// enabled against a real deployment, where each evaluation is a
// minutes-long Spark run; here the analytical simulator compresses an
// evaluation to sub-ms, so the demo-scale ratio overstates production
// overhead. The number to watch is the per-evaluation emission cost,
// which must stay in the tens of µs.
//
// One pass costs ~15 ms, and on a shared machine two independently timed
// series drift by more than the ~0.4 ms the wiring adds. So each
// iteration runs one unobserved and one observed pass back to back, in
// alternating order, and the reported number is the median over
// iterations of the paired difference per evaluation.
int TunePass(bool observed) {
  core::LocatTuner::Options opts;
  opts.n_qcsa = 8;
  opts.n_iicp = 8;
  opts.lhs_init = 2;
  opts.min_iterations = 4;
  opts.max_iterations = 6;
  opts.candidates = 200;
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 42);
  core::TuningSession session(&sim, workloads::HiBenchAggregation());
  core::LocatTuner tuner(opts);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  std::ostringstream telemetry;
  obs::JsonlSink observer(&telemetry);
  if (observed) {
    sim.set_tracer(&tracer);
    obs::ObsContext ctx;
    ctx.tracer = &tracer;
    ctx.metrics = &metrics;
    ctx.observer = &observer;
    session.SetObservability(ctx);
    tuner.SetObservability(ctx);
  }
  return tuner.Tune(&session, 150.0).evaluations;
}

void BM_TunePass_PairedOverhead(benchmark::State& state) {
  std::vector<double> delta_us;  // observed - unobserved, per evaluation
  int evaluations = 0;
  for (auto _ : state) {
    double seconds[2] = {0.0, 0.0};  // [unobserved, observed]
    const bool observed_first = delta_us.size() % 2 == 1;
    for (const bool observed : {observed_first, !observed_first}) {
      const auto start = std::chrono::steady_clock::now();
      evaluations = TunePass(observed);
      seconds[observed ? 1 : 0] = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - start)
                                      .count();
    }
    delta_us.push_back(1e6 * (seconds[1] - seconds[0]) /
                       std::max(1, evaluations));
  }
  std::sort(delta_us.begin(), delta_us.end());
  state.counters["evals_per_pass"] = evaluations;
  state.counters["pairs"] = static_cast<double>(delta_us.size());
  state.counters["delta_us_per_eval_p50"] = delta_us[delta_us.size() / 2];
}
BENCHMARK(BM_TunePass_PairedOverhead)
    ->Iterations(21)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
