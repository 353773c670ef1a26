// tune-cold: three cold LOCAT tunes at paper defaults — TPC-DS @300 GB on
// x86, TPC-H @300 GB on arm, Aggregation @300 GB on arm — each with a
// fresh simulator and session. The wait a LOCAT user pays for a tuned
// configuration; each tuned configuration is judged on a fresh
// noise-free simulator against Spark defaults. Several seeds' tunes run
// side by side, as a tuning service serving several apps would run them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "sparksim/simulator.h"

namespace perfbench {
namespace {

using namespace locat;

/// Tunes run this many at a time, one per core of a 4-core host, each
/// inline on its lane (the global pool has one thread): that gives a run
/// four times the seeds of one lane, and each tune's wall was no longer
/// than when tuning alone.
constexpr int kLanes = 4;

struct TuneCase {
  const char* app;
  const char* cluster;
  double datasize_gb;
};

const std::vector<TuneCase>& Cases(bool smoke) {
  static const std::vector<TuneCase> full = {{"TPC-DS", "x86", 300.0},
                                             {"TPC-H", "arm", 300.0},
                                             {"Aggregation", "arm", 300.0}};
  static const std::vector<TuneCase> tiny = {{"Aggregation", "arm", 30.0}};
  return smoke ? tiny : full;
}

/// One tune's inputs, built before the first timed call.
struct Prepared {
  TuneCase spec;
  sparksim::SparkSqlApp app;
  std::unique_ptr<sparksim::ClusterSimulator> sim;
  std::unique_ptr<core::TuningSession> session;
  std::unique_ptr<core::Tuner> tuner;
  std::unique_ptr<sparksim::ClusterSimulator> judge;  // noise-free
  double default_s = 0.0;
};

std::vector<Prepared> Prepare(const RunOptions& opts, uint64_t seed) {
  std::vector<Prepared> out;
  uint64_t idx = 0;
  for (const TuneCase& c : Cases(opts.smoke)) {
    Prepared p;
    p.spec = c;
    p.app = harness::MakeApp(c.app);
    const sparksim::ClusterSpec cluster = harness::MakeCluster(c.cluster);
    p.sim = std::make_unique<sparksim::ClusterSimulator>(
        cluster, 7919 * seed + 17 * idx++ + 1);
    p.session = std::make_unique<core::TuningSession>(p.sim.get(), p.app);
    if (opts.smoke) {
      core::LocatTuner::Options t;
      t.n_qcsa = 8;
      t.n_iicp = 6;
      t.lhs_init = 2;
      t.min_iterations = 2;
      t.max_iterations = 3;
      t.candidates = 40;
      t.seed = 101 + seed;
      p.tuner = std::make_unique<core::LocatTuner>(t);
    } else {
      p.tuner = harness::MakeTuner("LOCAT", seed);
    }
    sparksim::SimParams noise_free;
    noise_free.noise_sigma = 0.0;
    p.judge = std::make_unique<sparksim::ClusterSimulator>(cluster, 1,
                                                           noise_free);
    const sparksim::ConfigSpace& space = p.session->space();
    p.default_s = p.judge
                      ->RunApp(p.app, space.Repair(space.DefaultConf()),
                               c.datasize_gb)
                      .total_seconds;
    out.push_back(std::move(p));
  }
  return out;
}

struct PassOutput {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> tune_walls;
  std::vector<double> cost_ratios;
  std::string digest;
  LayerCounts counts;
};

/// Tunes one seed's three cases in order; traced when `tracer` is set.
PassOutput RunPass(const RunOptions& opts, uint64_t seed, obs::Tracer* tracer,
                   Result* result) {
  PassOutput out;
  std::vector<Prepared> cases;
  out.setup_s = TimeSetup([&] { cases.clear(); },
                          [&] { cases = Prepare(opts, seed); });

  if (tracer != nullptr) {
    obs::ObsContext ctx;
    ctx.tracer = tracer;
    for (Prepared& p : cases) {
      p.sim->set_tracer(tracer);
      p.session->SetObservability(ctx);
      p.tuner->SetObservability(ctx);
    }
  }

  Digest digest;
  std::vector<Prepared> spare;
  for (Prepared& p : cases) {
    if (tracer == nullptr && &p != &cases.front()) {
      // Set-up timing comes in modes that last seconds; sampling it again
      // between tunes lets a pass see more than one.
      out.setup_s = std::min(
          out.setup_s, TimeSetup([&] { spare.clear(); },
                                 [&] { spare = Prepare(opts, seed); }));
    }
    const auto t0 = Clock::now();
    core::TuningResult tr;
    {
      obs::ScopedSpan span(tracer, "bench/tune", "bench");
      tr = p.tuner->Tune(p.session.get(), p.spec.datasize_gb);
    }
    out.tune_walls.push_back(SecondsSince(t0));
    out.wall_s += out.tune_walls.back();

    const sparksim::ConfigSpace& space = p.session->space();
    const bool valid = ValidConf(space, tr.best_conf);
    result->Check(valid, std::string("tune-cold: ") + p.spec.app +
                             " tuned configuration is invalid");
    const double tuned_s =
        p.judge->RunApp(p.app, tr.best_conf, p.spec.datasize_gb)
            .total_seconds;
    result->Check(std::isfinite(tuned_s) && tuned_s > 0 &&
                      tuned_s <= p.default_s,
                  std::string("tune-cold: ") + p.spec.app +
                      " tuned cost " + std::to_string(tuned_s) +
                      " s exceeds the default " +
                      std::to_string(p.default_s) + " s");
    out.cost_ratios.push_back(tuned_s / p.default_s);
    LayerCounts& c = out.counts;
    c.opt_h += tr.optimization_seconds / 3600.0;
    c.tuner_evals += tr.evaluations;
    c.failed_evals += tr.failed_evaluations;
    if (const auto* locat = dynamic_cast<core::LocatTuner*>(p.tuner.get())) {
      c.rqa_queries += static_cast<double>(locat->rqa_indices().size());
    }
    c.session_evals += p.session->evaluations();
    c.app_runs += p.session->evaluations();
    c.query_cells += static_cast<double>(p.sim->runs_performed());
    c.batch_lanes += static_cast<double>(p.sim->engine_stats().batch_lanes);
    digest.Add(std::string(p.spec.app));
    digest.Add(tr.best_conf);
    digest.Add(tuned_s);
    digest.Add(tr.optimization_seconds);
  }
  out.digest = digest.Hex();
  return out;
}

/// Tunes every seed on kLanes threads, each lane taking the next seed
/// when it is done with one; outputs in seed order. Sets `*wall_s` to the
/// wall time until the last lane finished.
std::vector<PassOutput> RunSeeds(const RunOptions& opts,
                                 const std::vector<uint64_t>& seeds,
                                 obs::Tracer* tracer, Result* result,
                                 double* wall_s) {
  std::vector<PassOutput> out(seeds.size());
  std::atomic<size_t> next{0};
  common::ThreadPool lanes(kLanes);
  const auto t0 = Clock::now();
  lanes.ParallelForEach(static_cast<size_t>(kLanes), [&](size_t) {
    for (size_t i = next++; i < seeds.size(); i = next++) {
      out[i] = RunPass(opts, seeds[i], tracer, result);
    }
  });
  *wall_s = SecondsSince(t0);
  return out;
}

void AddCounts(const LayerCounts& from, LayerCounts* to) {
  to->tuner_evals += from.tuner_evals;
  to->failed_evals += from.failed_evals;
  to->rqa_queries += from.rqa_queries;
  to->session_evals += from.session_evals;
  to->opt_h += from.opt_h;
  to->app_runs += from.app_runs;
  to->query_cells += from.query_cells;
  to->batch_lanes += from.batch_lanes;
}

}  // namespace

void RunTuneCold(const RunOptions& opts, Result* result) {
  // A tune's wall time and result depend on its search path (when the EI
  // stop rule ends it, how long each slice-sampling chain runs): on a
  // 4-core x86-64 host one tune takes 1.2-7.8 s depending on the seed, and
  // the mean over three seeds still moved 20% from run to run. So a run
  // tunes `per_run` tuner seeds derived from the workload seed, kLanes at
  // a time — kLanes per 10 s of --seconds, since each lane tunes a seed in
  // about 15 s, so 30 s asks for 12 seeds and takes about 45 s — and
  // reports the mean wall per seed and the quality over all of them. A
  // traced run tunes the first kLanes of them untraced, then again traced.
  const size_t per_run = static_cast<size_t>(kLanes) *
                         std::max<size_t>(1, std::lround(opts.seconds / 10));
  const size_t count =
      opts.trace || opts.smoke ? static_cast<size_t>(kLanes) : per_run;
  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < count; ++k) seeds.push_back(per_run * opts.seed + k);
  double batch_wall_s = 0.0;
  const std::vector<PassOutput> passes =
      RunSeeds(opts, seeds, nullptr, result, &batch_wall_s);
  result->Set("peak_rss_mb", PeakRssMb(), "MB");

  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<double> ratios;
  double opt_h = 0.0;
  char line[200];
  for (size_t k = 0; k < passes.size(); ++k) {
    const PassOutput& p = passes[k];
    walls.push_back(p.wall_s);
    setups.push_back(p.setup_s);
    ratios.insert(ratios.end(), p.cost_ratios.begin(), p.cost_ratios.end());
    opt_h += p.counts.opt_h / static_cast<double>(passes.size());
    std::string per_tune;
    for (double w : p.tune_walls) {
      std::snprintf(line, sizeof(line), " %.3f", w);
      per_tune += line;
    }
    std::snprintf(line, sizeof(line),
                  "tune-cold seed %llu: wall %.4f s (per tune%s) | "
                  "evals %.0f | opt_sim_h %.2f | digest %s",
                  static_cast<unsigned long long>(seeds[k]), p.wall_s,
                  per_tune.c_str(), p.counts.tuner_evals, p.counts.opt_h,
                  p.digest.c_str());
    result->Info(line);
  }
  const double ratio = GeoMean(ratios);
  double mean_wall = 0.0;
  for (double w : walls) mean_wall += w / static_cast<double>(walls.size());
  result->Set("pass_wall_s", mean_wall, "s");
  result->Set("cost_ratio", ratio, "ratio");
  result->Set("setup_s", *std::min_element(setups.begin(), setups.end()),
              "s");

  std::snprintf(line, sizeof(line),
                "tune-cold: %zu seeds on %d lanes in %.2f s | tune_wall_s "
                "%.4f | tuned_cost_ratio %.4f | opt_sim_h %.2f (means per "
                "seed)",
                passes.size(), kLanes, batch_wall_s, mean_wall, ratio, opt_h);
  result->Info(line);

  if (!opts.trace) return;
  obs::Tracer tracer;
  double traced_wall_s = 0.0;
  const std::vector<PassOutput> traced =
      RunSeeds(opts, seeds, &tracer, result, &traced_wall_s);
  LayerCounts counts;
  for (size_t k = 0; k < traced.size(); ++k) {
    result->Check(traced[k].digest == passes[k].digest,
                  "tune-cold: tracing changed the tuned configurations");
    AddCounts(traced[k].counts, &counts);
  }
  SpanTotals spans;
  spans.Add(tracer.snapshot(), /*baseline_tuners=*/false);
  ReportLayers(spans, counts, traced_wall_s, batch_wall_s, result);
}

}  // namespace perfbench
