// Evaluation fast-path bench: the config-fingerprint eval cache vs plain
// re-simulation.
//
// Three cases, all timed with hand-rolled steady_clock minima over kReps
// repetitions and written to BENCH_eval_cache.json:
//   run_app_subset: one pass over distinct configurations, cold (no
//           cache) vs warm (every per-query evaluation served from a
//           pre-populated cache) — the memoization-speedup ceiling;
//   qcsa_phase: several cells collect the same QCSA sample set (same
//           confs, same datasize, different simulator seeds) with and
//           without a shared cache. Because noise lives outside the
//           memoized computation, every pass after the first hits.
//           Acceptance bar: >= 3x. This is a best case, no longer a model
//           of ExperimentRunner: real grid cells share few evaluations
//           (3.6% hits on the 800-cell baseline grid), so the runner no
//           longer attaches a cache;
//   tune_e2e: a small LOCAT tuning run, cache off vs on, with the
//           outputs checked bit-identical across thread counts 1/4/8.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "sparksim/cluster.h"
#include "sparksim/config.h"
#include "sparksim/eval_cache.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace {

using namespace locat;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 3;
constexpr int kConfs = 20;       // distinct configurations per pass
constexpr int kGridPasses = 4;   // simulated "cells" sharing the cache

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::vector<sparksim::SparkConf> MakeConfs(const sparksim::ConfigSpace& space,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<sparksim::SparkConf> confs;
  confs.reserve(kConfs);
  for (int i = 0; i < kConfs; ++i) confs.push_back(space.RandomValid(&rng));
  return confs;
}

struct CaseResult {
  std::string name;
  double nocache_s = std::numeric_limits<double>::infinity();
  double cached_s = std::numeric_limits<double>::infinity();
  double hit_rate = 0.0;
  // Warm-side lookup counters split by cache level: L1 is the per-app
  // subset memo (LookupApp/InsertApp), L2 the per-query evaluation table.
  double l1_hits = 0.0;
  double l1_misses = 0.0;
  double l2_hits = 0.0;
  double l2_misses = 0.0;
  double speedup() const { return nocache_s / cached_s; }
  double l1_rate() const {
    const double n = l1_hits + l1_misses;
    return n == 0.0 ? 0.0 : l1_hits / n;
  }
  double l2_rate() const {
    const double n = l2_hits + l2_misses;
    return n == 0.0 ? 0.0 : l2_hits / n;
  }
};

// Turns a before/after stats snapshot of the timed (warm) section into the
// per-level counters and the combined hit rate.
void FillLevelStats(const sparksim::EvalCacheStats& before,
                    const sparksim::EvalCacheStats& after, CaseResult* out) {
  out->l1_hits = static_cast<double>(after.app_hits - before.app_hits);
  out->l1_misses = static_cast<double>(after.app_misses - before.app_misses);
  out->l2_hits = static_cast<double>(after.hits - before.hits);
  out->l2_misses = static_cast<double>(after.misses - before.misses);
  const double lookups =
      out->l1_hits + out->l1_misses + out->l2_hits + out->l2_misses;
  out->hit_rate =
      lookups == 0.0 ? 0.0 : (out->l1_hits + out->l2_hits) / lookups;
}

// Cold vs warm single pass: every (conf, query) evaluation of the warm
// pass is a cache hit, so this measures the memoization ceiling.
CaseResult CaseRunAppSubset() {
  const auto app = workloads::TpcH();
  const sparksim::ClusterSpec cluster = sparksim::ArmCluster();
  sparksim::ConfigSpace space(cluster);
  const auto confs = MakeConfs(space, 42);
  std::vector<int> all(static_cast<size_t>(app.num_queries()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);

  CaseResult out;
  out.name = "run_app_subset";
  double sink = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      sparksim::ClusterSimulator sim(cluster, 5);
      const auto t0 = Clock::now();
      for (const auto& conf : confs) {
        sink += sim.RunAppSubset(app, all, conf, 100.0)->total_seconds;
      }
      out.nocache_s = std::min(out.nocache_s, Seconds(t0, Clock::now()));
    }
    {
      sparksim::EvalCache cache;
      sparksim::ClusterSimulator warmup(cluster, 5);
      warmup.set_eval_cache(&cache);
      for (const auto& conf : confs) {
        sink += warmup.RunAppSubset(app, all, conf, 100.0)->total_seconds;
      }
      sparksim::ClusterSimulator sim(cluster, 5);
      sim.set_eval_cache(&cache);
      const sparksim::EvalCacheStats before = cache.stats();
      const auto t0 = Clock::now();
      for (const auto& conf : confs) {
        sink += sim.RunAppSubset(app, all, conf, 100.0)->total_seconds;
      }
      out.cached_s = std::min(out.cached_s, Seconds(t0, Clock::now()));
      FillLevelStats(before, cache.stats(), &out);
    }
  }
  if (!(sink > 0.0)) std::abort();  // keep the loops observable
  return out;
}

// The repeated-sample pattern: kGridPasses cells each run the same QCSA
// sample collection (same confs and datasize, different simulator seeds). The
// first cell populates the shared cache at full price (untimed here — it
// costs what the cold side costs); the timed warm side is what every
// later cell pays. This is the >= 3x acceptance case.
CaseResult CaseQcsaPhase() {
  const auto app = workloads::TpcDs();
  const sparksim::ClusterSpec cluster = sparksim::X86Cluster();
  sparksim::ConfigSpace space(cluster);
  const auto confs = MakeConfs(space, 7);

  CaseResult out;
  out.name = "qcsa_phase";
  double sink = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      const auto t0 = Clock::now();
      for (int pass = 0; pass < kGridPasses; ++pass) {
        sparksim::ClusterSimulator sim(cluster,
                                       100 + static_cast<uint64_t>(pass));
        for (const auto& conf : confs) {
          sink += sim.RunApp(app, conf, 100.0).total_seconds;
        }
      }
      out.nocache_s = std::min(out.nocache_s, Seconds(t0, Clock::now()));
    }
    {
      sparksim::EvalCache cache;
      {
        // Cell 0 pays the model once and fills the cache; its noise draws
        // come from a seed none of the timed cells use.
        sparksim::ClusterSimulator populate(cluster, 99);
        populate.set_eval_cache(&cache);
        for (const auto& conf : confs) {
          sink += populate.RunApp(app, conf, 100.0).total_seconds;
        }
      }
      const sparksim::EvalCacheStats warm_before = cache.stats();
      const auto t0 = Clock::now();
      for (int pass = 0; pass < kGridPasses; ++pass) {
        sparksim::ClusterSimulator sim(cluster,
                                       100 + static_cast<uint64_t>(pass));
        sim.set_eval_cache(&cache);
        for (const auto& conf : confs) {
          sink += sim.RunApp(app, conf, 100.0).total_seconds;
        }
      }
      out.cached_s = std::min(out.cached_s, Seconds(t0, Clock::now()));
      FillLevelStats(warm_before, cache.stats(), &out);
    }
  }
  if (!(sink > 0.0)) std::abort();
  return out;
}

core::TuningResult TuneOnce(bool with_cache, double* wall_s,
                            sparksim::EvalCacheStats* stats_out) {
  sparksim::EvalCache cache;
  sparksim::ClusterSimulator sim(sparksim::ArmCluster(), 5);
  if (with_cache) sim.set_eval_cache(&cache);
  core::TuningSession session(&sim, workloads::TpcH());
  core::LocatTuner::Options opts;
  opts.seed = 3;
  opts.n_qcsa = 15;
  opts.n_iicp = 12;
  opts.min_iterations = 6;
  opts.max_iterations = 10;
  core::LocatTuner tuner(opts);
  const auto t0 = Clock::now();
  core::TuningResult result = tuner.Tune(&session, 100.0);
  *wall_s = Seconds(t0, Clock::now());
  if (with_cache && stats_out != nullptr) *stats_out = cache.stats();
  return result;
}

bool SameResult(const core::TuningResult& a, const core::TuningResult& b) {
  if (a.best_observed_seconds != b.best_observed_seconds) return false;
  if (a.optimization_seconds != b.optimization_seconds) return false;
  if (a.evaluations != b.evaluations) return false;
  for (int p = 0; p < sparksim::kNumParams; ++p) {
    if (a.best_conf.Get(static_cast<sparksim::ParamId>(p)) !=
        b.best_conf.Get(static_cast<sparksim::ParamId>(p))) {
      return false;
    }
  }
  return true;
}

// End-to-end tuning wall clock, cache off vs on, and the bit-identity
// guarantee checked across thread counts (the acceptance criterion).
CaseResult CaseTuneE2e() {
  CaseResult out;
  out.name = "tune_e2e";
  core::TuningResult reference;
  bool have_reference = false;
  sparksim::EvalCacheStats warm{};
  for (const int threads : {1, 4, 8}) {
    common::ThreadPool::SetGlobalThreads(threads);
    for (const bool with_cache : {false, true}) {
      double wall = 0.0;
      const core::TuningResult r =
          TuneOnce(with_cache, &wall, with_cache ? &warm : nullptr);
      if (!have_reference) {
        reference = r;
        have_reference = true;
      } else if (!SameResult(r, reference)) {
        std::fprintf(stderr,
                     "tune_e2e: results diverged (cache=%d threads=%d)\n",
                     with_cache ? 1 : 0, threads);
        std::abort();
      }
      if (with_cache) {
        out.cached_s = std::min(out.cached_s, wall);
      } else {
        out.nocache_s = std::min(out.nocache_s, wall);
      }
    }
  }
  common::ThreadPool::SetGlobalThreads(0);  // restore default
  // Each cached run starts from a fresh cache, so `warm` holds one full
  // tuning pass's counters (identical across thread counts by the
  // bit-identity guarantee just checked above).
  FillLevelStats(sparksim::EvalCacheStats{}, warm, &out);
  return out;
}

void WriteJson(const std::string& path, const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os.precision(6);
  os << "{\n"
     << "  \"benchmark\": \"eval_cache\",\n"
     << "  \"confs\": " << kConfs << ",\n"
     << "  \"grid_passes\": " << kGridPasses << ",\n"
     << "  \"threads\": " << common::ThreadPool::Global()->num_threads()
     << ",\n"
     << "  \"cases\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\""
       << ", \"nocache_s\": " << c.nocache_s
       << ", \"cached_s\": " << c.cached_s
       << ", \"hit_rate\": " << c.hit_rate
       << ", \"l1_hits\": " << c.l1_hits
       << ", \"l1_misses\": " << c.l1_misses
       << ", \"l1_hit_rate\": " << c.l1_rate()
       << ", \"l2_hits\": " << c.l2_hits
       << ", \"l2_misses\": " << c.l2_misses
       << ", \"l2_hit_rate\": " << c.l2_rate()
       << ", \"speedup\": " << c.speedup() << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_eval_cache.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      common::ThreadPool::SetGlobalThreads(std::atoi(argv[++i]));
    }
  }

  std::vector<CaseResult> cases = {CaseRunAppSubset(), CaseQcsaPhase(),
                                   CaseTuneE2e()};
  TablePrinter tp({"case", "nocache (s)", "cached (s)", "hit rate",
                   "L1 h/m", "L2 h/m", "speedup"});
  for (const CaseResult& c : cases) {
    tp.AddRow({c.name, TablePrinter::Num(c.nocache_s, 4),
               TablePrinter::Num(c.cached_s, 4),
               TablePrinter::Num(100.0 * c.hit_rate, 1) + "%",
               TablePrinter::Num(c.l1_hits, 0) + "/" +
                   TablePrinter::Num(c.l1_misses, 0),
               TablePrinter::Num(c.l2_hits, 0) + "/" +
                   TablePrinter::Num(c.l2_misses, 0),
               TablePrinter::Num(c.speedup(), 2) + "x"});
  }
  tp.Print(std::cout);
  WriteJson(out_path, cases);
  return 0;
}
