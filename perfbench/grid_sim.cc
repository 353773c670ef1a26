// grid-sim: ExperimentRunner::RunAll over the model-free baseline columns
// of the Fig. 11-14 comparison grid — QTune and Random x 5 apps x
// 100-500 GB x 2 clusters x 8 repetition seeds = 800 cells. Every pass
// uses a fresh runner writing to a fresh results file, so every cell is
// computed; the runner's shared eval cache stays on as shipped.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "sparksim/eval_cache.h"
#include "sparksim/simulator.h"

namespace perfbench {
namespace {

using namespace locat;

constexpr int kRunnerThreads = 4;

std::vector<harness::CellSpec> GridSpecs(const RunOptions& opts) {
  const std::vector<std::string> tuners = {"QTune", "Random"};
  const std::vector<std::string> apps =
      opts.smoke ? std::vector<std::string>{"Scan", "Aggregation"}
                 : std::vector<std::string>{"TPC-DS", "TPC-H", "Join", "Scan",
                                            "Aggregation"};
  const std::vector<double> sizes =
      opts.smoke ? std::vector<double>{100.0}
                 : std::vector<double>{100.0, 200.0, 300.0, 400.0, 500.0};
  const std::vector<std::string> clusters =
      opts.smoke ? std::vector<std::string>{"x86"}
                 : std::vector<std::string>{"arm", "x86"};
  const uint64_t reps = opts.smoke ? 1 : 8;
  std::vector<harness::CellSpec> specs;
  for (const auto& tuner : tuners) {
    for (const auto& app : apps) {
      for (double ds : sizes) {
        for (const auto& cluster : clusters) {
          for (uint64_t r = 0; r < reps; ++r) {
            harness::CellSpec spec;
            spec.tuner = tuner;
            spec.app = app;
            spec.cluster = cluster;
            spec.datasize_gb = ds;
            spec.seed = reps * opts.seed + r;
            specs.push_back(spec);
          }
        }
      }
    }
  }
  return specs;
}

/// A results file no earlier pass or process has written.
std::string FreshResultsPath(const RunOptions& opts, const std::string& tag) {
  static int counter = 0;
  const std::filesystem::path dir(opts.tmp_dir);
  std::filesystem::create_directories(dir);
  return (dir / (tag + "-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter++) + ".csv"))
      .string();
}

void RemoveResults(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".lock", ec);
}

bool CellOk(const harness::CellResult& c) {
  auto pos = [](double v) { return std::isfinite(v) && v > 0; };
  auto nonneg = [](double v) { return std::isfinite(v) && v >= 0; };
  return pos(c.optimization_seconds) && pos(c.best_app_seconds) &&
         pos(c.default_app_seconds) && nonneg(c.gc_seconds) &&
         nonneg(c.csq_seconds) && nonneg(c.ciq_seconds) && c.evaluations > 0;
}

struct PassOutput {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<harness::CellResult> cells;
  sparksim::EvalCacheStats cache;
};

PassOutput RunAllPass(const RunOptions& opts, Result* result) {
  PassOutput out;
  std::vector<harness::CellSpec> specs;
  std::unique_ptr<harness::ExperimentRunner> runner;
  std::string path;
  out.setup_s = TimeSetup(
      [&] {
        runner.reset();
        if (!path.empty()) RemoveResults(path);
      },
      [&] {
        specs = GridSpecs(opts);
        path = FreshResultsPath(opts, "grid");
        runner = std::make_unique<harness::ExperimentRunner>(path);
      });

  const auto t0 = Clock::now();
  out.cells = runner->RunAll(specs, kRunnerThreads);
  out.wall_s = SecondsSince(t0);
  out.cache = runner->sim_cache_stats();
  runner.reset();
  RemoveResults(path);

  result->Check(out.cells.size() == specs.size(),
                "grid-sim: RunAll returned the wrong number of cells");
  for (size_t i = 0; i < out.cells.size(); ++i) {
    result->Check(CellOk(out.cells[i]),
                  "grid-sim: cell " + specs[i].Key() +
                      " is not finite and positive: " +
                      out.cells[i].Serialize());
  }
  return out;
}

std::string CellsDigest(const std::vector<harness::CellResult>& cells) {
  Digest d;
  for (const auto& c : cells) d.Add(c.Serialize());
  return d.Hex();
}

/// The runner's own seeding: FNV-1a of the cell key.
uint64_t StableHash(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

/// One cell computed through the public pieces the runner composes —
/// simulator, session, MakeTuner/Tune, the three-rep judge and the
/// canonical CSQ split — so the traced run sees the layers RunAll keeps
/// private. Produces the same CellResult as ExperimentRunner::Run for the
/// same spec. The tracer goes into the session and the tuner but not the
/// simulator: its simulated-time lane records every query stage, millions
/// of events over the grid, which would cost more than the work traced.
/// Simulator time is therefore measured at the session's spans (which add
/// only bookkeeping around each simulator call) and the judge span.
harness::CellResult TracedCell(const harness::CellSpec& spec,
                               harness::ExperimentRunner* csq_runner,
                               sparksim::EvalCache* cache,
                               obs::Tracer* tracer, LayerCounts* counts) {
  obs::ScopedSpan cell_span(tracer, "bench/cell", "bench");
  obs::ObsContext ctx;
  ctx.tracer = tracer;
  const sparksim::SparkSqlApp app = harness::MakeApp(spec.app);
  sparksim::ClusterSimulator sim(harness::MakeCluster(spec.cluster),
                                 StableHash(spec.Key()));
  sim.set_eval_cache(cache);
  core::TuningSession session(&sim, app);
  session.SetObservability(ctx);
  std::unique_ptr<core::Tuner> tuner = harness::MakeTuner(spec.tuner,
                                                          spec.seed);
  tuner->SetObservability(ctx);
  core::TuningResult tr;
  {
    obs::ScopedSpan span(tracer, "bench/tune", "bench");
    tr = tuner->Tune(&session, spec.datasize_gb);
  }

  harness::CellResult cell;
  cell.optimization_seconds = tr.optimization_seconds;
  cell.evaluations = tr.evaluations;
  sparksim::AppRunResult final_run;
  {
    obs::ScopedSpan span(tracer, "bench/judge", "bench");
    for (int rep = 0; rep < 3; ++rep) {
      final_run = session.MeasureFinal(tr.best_conf, spec.datasize_gb);
      cell.best_app_seconds += final_run.total_seconds / 3.0;
      cell.gc_seconds += final_run.gc_seconds / 3.0;
    }
    for (int rep = 0; rep < 3; ++rep) {
      const sparksim::AppRunResult run = session.MeasureFinal(
          session.space().Repair(session.space().DefaultConf()),
          spec.datasize_gb);
      cell.default_app_seconds += run.total_seconds / 3.0;
    }
  }
  std::vector<int> csq;
  {
    obs::ScopedSpan span(tracer, "bench/csq", "bench");
    csq = csq_runner->CanonicalCsq(spec.app, spec.cluster);
  }
  std::vector<bool> is_csq(final_run.per_query.size(), false);
  for (int idx : csq) {
    if (idx >= 0 && static_cast<size_t>(idx) < is_csq.size()) {
      is_csq[static_cast<size_t>(idx)] = true;
    }
  }
  for (size_t q = 0; q < final_run.per_query.size(); ++q) {
    (is_csq[q] ? cell.csq_seconds : cell.ciq_seconds) +=
        final_run.per_query[q].exec_seconds;
  }
  counts->app_runs += session.evaluations() + 6;  // + the judge runs
  counts->query_cells += static_cast<double>(sim.runs_performed());
  counts->batch_lanes += static_cast<double>(sim.engine_stats().batch_lanes);
  counts->session_evals += session.evaluations();
  counts->opt_h += tr.optimization_seconds / 3600.0;
  return cell;
}

}  // namespace

void RunGridSim(const RunOptions& opts, Result* result) {
  const std::vector<PassOutput> passes = RunPasses<PassOutput>(
      opts.trace ? opts.seconds / 3 : opts.seconds, 1, 16, result,
      [&](int) { return RunAllPass(opts, result); });

  const std::string digest = CellsDigest(passes[0].cells);
  std::vector<double> walls;
  std::vector<double> setups;
  for (const PassOutput& p : passes) {
    walls.push_back(p.wall_s);
    setups.push_back(p.setup_s);
    char pass_line[120];
    std::snprintf(pass_line, sizeof(pass_line),
                  "grid-sim pass: wall %.4f s | setup %.6f s", p.wall_s,
                  p.setup_s);
    result->Info(pass_line);
    result->Check(CellsDigest(p.cells) == digest,
                  "grid-sim: a repeated pass produced different cells");
  }
  std::vector<double> ratios;
  double opt_h = 0.0;
  for (const auto& c : passes[0].cells) {
    ratios.push_back(c.best_app_seconds / c.default_app_seconds);
    opt_h += c.optimization_seconds / 3600.0;
  }
  const double cells = static_cast<double>(passes[0].cells.size());
  result->Set("pass_wall_s", Median(walls), "s");
  result->Set("cost_ratio", GeoMean(ratios), "ratio");
  result->Set("setup_s", *std::min_element(setups.begin(), setups.end()),
              "s");

  const sparksim::EvalCacheStats& cache = passes[0].cache;
  char line[240];
  std::snprintf(line, sizeof(line),
                "grid-sim: %zu pass(es) of %.0f cells, %d runner threads | "
                "grid_cells_per_s %.1f | cost_ratio %.4f | opt_sim_h %.1f | "
                "cache hit ratio %.4f",
                passes.size(), cells, kRunnerThreads, cells / Median(walls),
                GeoMean(ratios), opt_h, cache.hit_rate());
  result->Info(line);
  result->Info("digest grid-sim " + digest);

  if (!opts.trace) return;
  result->Set("cache.lookups", static_cast<double>(cache.hits + cache.misses),
              "count");
  result->Set("cache.hit_ratio", cache.hit_rate(), "ratio");
  result->Set("cache.evictions", static_cast<double>(cache.evictions),
              "count");
  result->Set("cache.entries", static_cast<double>(cache.entries), "count");

  const std::vector<harness::CellSpec> specs = GridSpecs(opts);
  // Per-cell latency of the runner, one Run call at a time (untraced);
  // also the untraced reference for the traced pass below, which does the
  // same single-threaded work.
  std::vector<double> cell_ms;
  std::vector<harness::CellResult> serial_cells;
  double serial_wall_s = 0.0;
  {
    const std::string path = FreshResultsPath(opts, "cells");
    {
      harness::ExperimentRunner runner(path);
      for (const auto& spec : specs) {
        const auto t0 = Clock::now();
        serial_cells.push_back(runner.Run(spec));
        const double s = SecondsSince(t0);
        cell_ms.push_back(1e3 * s);
        serial_wall_s += s;
      }
    }
    RemoveResults(path);
  }
  result->Check(CellsDigest(serial_cells) == digest,
                "grid-sim: per-cell Run differs from RunAll");
  result->Set("harness.cell_ms_p50", Quantile(cell_ms, 0.5), "ms");
  result->Set("harness.cell_ms_p90", Quantile(cell_ms, 0.9), "ms");

  obs::Tracer tracer;
  LayerCounts counts;
  std::vector<harness::CellResult> traced_cells;
  double traced_wall_s = 0.0;
  {
    const std::string path = FreshResultsPath(opts, "csq");
    {
      harness::ExperimentRunner csq_runner(path);
      sparksim::EvalCache grid_cache;  // shared by all cells, as in RunAll
      const auto t0 = Clock::now();
      for (const auto& spec : specs) {
        traced_cells.push_back(
            TracedCell(spec, &csq_runner, &grid_cache, &tracer, &counts));
      }
      traced_wall_s = SecondsSince(t0);
    }
    RemoveResults(path);
  }
  result->Check(CellsDigest(traced_cells) == digest,
                "grid-sim: the traced cells differ from RunAll's");
  SpanTotals spans;
  spans.Add(tracer.snapshot(), /*baseline_tuners=*/true);
  spans.sim_s += spans.session_s;  // untraced simulators, see TracedCell
  result->Info(
      "grid-sim: simulators untraced; core/tuning self time includes them");
  ReportLayers(spans, counts, traced_wall_s, serial_wall_s, result);
}

}  // namespace perfbench
