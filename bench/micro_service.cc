// Serving-registry bench: 200 simulated applications with drifting input
// sizes driven through core::ServiceRegistry.
//
// Cases, all hand-rolled steady_clock timing, written to
// BENCH_service.json:
//   scale:  admit kApps apps (capacity-limited so the LRU evicts),
//           drift every app's size across rounds, then probe warm
//           lookups one by one — p50/p99 warm lookup latency comes from
//           the sorted raw samples (not histogram buckets). Acceptance
//           bar: warm p99 <= 50 us. Retune throughput is total tuning
//           passes over the drive-phase wall clock; a TTL phase idles
//           half the survivors to exercise ttl eviction too.
//   determinism: a fixed 40-app trace served twice — tuning inline on
//           the requesting thread vs an 8-thread pool with concurrent
//           per-round drivers — must produce byte-identical confs.
//   warm_vs_cold: three donor apps tuned with a production budget seed a
//           similar new app's surrogate (observations + CSQ hint); the
//           warm app must reach within 5% of the cold-tuned noise-free
//           cost in at most half the tuning iterations (observations),
//           at tuner seed 31. The case also runs tuner seeds 31-46 and
//           records the warm/cold distribution; the geometric mean of
//           the warm/cold ratios must stay at or below 0.968, so a fix
//           that passes seed 31 by hurting the other seeds fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/online_service.h"
#include "core/service_registry.h"
#include "core/tuning.h"
#include "sparksim/properties_io.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace {

using namespace locat;
using Clock = std::chrono::steady_clock;

int g_apps = 200;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Tiny tuning budgets: the bench measures the registry, not the BO.
core::OnlineTuningService::Options TinyOptions() {
  core::OnlineTuningService::Options opts;
  opts.tuner.n_qcsa = 6;
  opts.tuner.n_iicp = 5;
  opts.tuner.lhs_init = 2;
  opts.tuner.min_iterations = 2;
  opts.tuner.max_iterations = 3;
  opts.tuner.warm_iterations = 2;
  opts.tuner.candidates = 40;
  opts.tuner.seed = 31;
  return opts;
}

uint64_t NameSeed(const std::string& name) {
  uint64_t h = 0;
  for (unsigned char c : name) h = h * 131 + c;
  return 900 + h % 4096;
}

/// Synthesizes app #i: one of the five base workloads with deterministic
/// per-index perturbations, so 200 apps span ~40 variants per family.
sparksim::SparkSqlApp MakeApp(int i, const std::string& name) {
  static const std::vector<sparksim::SparkSqlApp> bases =
      workloads::AllBenchmarks();
  sparksim::SparkSqlApp app = bases[static_cast<size_t>(i) % bases.size()];
  app.name = name;
  const double cpu_f = 1.0 + 0.03 * static_cast<double>(i % 7);
  const double mem_f = 1.0 + 0.02 * static_cast<double>((i / 7) % 5);
  for (auto& q : app.queries) {
    q.cpu_per_gb *= cpu_f;
    q.mem_per_task_factor *= mem_f;
  }
  return app;
}

/// Simulator + session + service per app; sessions stay reachable so the
/// warm_vs_cold case can read evaluation counts.
class BenchBackend : public core::AppBackend {
 public:
  BenchBackend(sparksim::SparkSqlApp app,
               const core::OnlineTuningService::Options& opts,
               core::TuningSession** session_out,
               core::OnlineTuningService** service_out = nullptr)
      : app_(std::move(app)),
        sim_(std::make_unique<sparksim::ClusterSimulator>(
            sparksim::X86Cluster(), NameSeed(app_.name))),
        session_(std::make_unique<core::TuningSession>(sim_.get(), app_)),
        service_(std::make_unique<core::OnlineTuningService>(session_.get(),
                                                             opts)) {
    if (session_out != nullptr) *session_out = session_.get();
    if (service_out != nullptr) *service_out = service_.get();
  }

  core::OnlineTuningService* service() override { return service_.get(); }
  const sparksim::SparkSqlApp& app() const override { return app_; }

 private:
  sparksim::SparkSqlApp app_;
  std::unique_ptr<sparksim::ClusterSimulator> sim_;
  std::unique_ptr<core::TuningSession> session_;
  std::unique_ptr<core::OnlineTuningService> service_;
};

struct ScaleResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double retunes = 0.0;
  double retune_per_s = 0.0;
  double evict_cap = 0.0;
  double evict_ttl = 0.0;
  double warm_starts = 0.0;
};

ScaleResult CaseScale() {
  std::map<std::string, sparksim::SparkSqlApp> apps;
  std::vector<std::string> names;
  for (int i = 0; i < g_apps; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "app-%03d", i);
    names.emplace_back(buf);
    apps.emplace(buf, MakeApp(i, buf));
  }

  core::ServiceRegistry::Options ropts;
  ropts.capacity = static_cast<size_t>(3 * g_apps / 4);
  ropts.ttl_ticks = 3;
  ropts.tune_threads = 4;
  core::ServiceRegistry registry(
      [&apps](const std::string& name)
          -> std::unique_ptr<core::AppBackend> {
        const auto it = apps.find(name);
        if (it == apps.end()) return nullptr;
        return std::make_unique<BenchBackend>(it->second, TinyOptions(),
                                              nullptr);
      },
      ropts);

  // Drive phase: every app drifts 100 -> 108 (reuse) -> 400 (re-tune),
  // with concurrent drivers inside each round and a tick barrier after.
  static const double kSizes[] = {100.0, 108.0, 400.0};
  common::ThreadPool drivers(8);
  const auto t0 = Clock::now();
  for (int r = 0; r < 3; ++r) {
    drivers.ParallelForEach(names.size(), [&](size_t ai) {
      const auto conf = registry.Lookup(names[ai], kSizes[r]);
      if (!conf.ok()) {
        std::fprintf(stderr, "scale: lookup failed: %s\n",
                     conf.status().ToString().c_str());
        std::abort();
      }
    });
    registry.AdvanceTick();
  }
  const double drive_s = Seconds(t0, Clock::now());

  // Warm-probe phase: every live app already covers its last size, so
  // each Lookup is a hit on its published plan. Raw per-call samples give
  // the latency quantiles; the coarse histogram is not good enough here.
  std::vector<std::pair<std::string, double>> live;
  for (const auto& row : registry.AppRows()) {
    live.emplace_back(row.snapshot.app, row.snapshot.last_datasize_gb);
  }
  std::vector<double> samples;
  samples.reserve(5000);
  while (samples.size() < 5000) {
    for (const auto& [name, ds] : live) {
      const auto p0 = Clock::now();
      const auto conf = registry.Lookup(name, ds);
      const auto p1 = Clock::now();
      if (!conf.ok()) {
        std::fprintf(stderr, "scale: warm probe failed for %s\n",
                     name.c_str());
        std::abort();
      }
      samples.push_back(Seconds(p0, p1));
      if (samples.size() >= 5000) break;
    }
  }
  std::sort(samples.begin(), samples.end());

  // TTL phase: idle the second half of the live set for ttl_ticks+1
  // barriers while the first half stays warm.
  const size_t keep = live.size() / 2;
  for (int t = 0; t < ropts.ttl_ticks + 1; ++t) {
    for (size_t i = 0; i < keep; ++i) {
      (void)registry.Lookup(live[i].first, live[i].second);
    }
    registry.AdvanceTick();
  }

  const auto stats = registry.GetStats();
  ScaleResult out;
  out.p50_us = 1e6 * samples[samples.size() / 2];
  out.p99_us = 1e6 * samples[samples.size() * 99 / 100];
  out.retunes = static_cast<double>(stats.retunes_cold + stats.retunes_drift);
  out.retune_per_s = out.retunes / drive_s;
  out.evict_cap = static_cast<double>(stats.evictions_capacity);
  out.evict_ttl = static_cast<double>(stats.evictions_ttl);
  out.warm_starts = static_cast<double>(stats.warm_start_hits);

  if (out.p99_us > 50.0) {
    std::fprintf(stderr, "scale: warm lookup p99 %.1f us exceeds 50 us\n",
                 out.p99_us);
    std::abort();
  }
  if (out.evict_cap == 0.0 || out.evict_ttl == 0.0) {
    std::fprintf(stderr, "scale: eviction never fired (cap %.0f, ttl %.0f)\n",
                 out.evict_cap, out.evict_ttl);
    std::abort();
  }
  return out;
}

/// Serves a fixed trace and returns every conf as a properties string.
std::vector<std::string> DetTrace(int tune_threads, int driver_threads) {
  constexpr int kDetApps = 40;
  std::map<std::string, sparksim::SparkSqlApp> apps;
  std::vector<std::string> names;
  for (int i = 0; i < kDetApps; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "det-%02d", i);
    names.emplace_back(buf);
    apps.emplace(buf, MakeApp(i, buf));
  }
  core::ServiceRegistry::Options ropts;
  ropts.capacity = 32;
  ropts.ttl_ticks = 2;
  ropts.tune_threads = tune_threads;
  core::ServiceRegistry registry(
      [&apps](const std::string& name)
          -> std::unique_ptr<core::AppBackend> {
        return std::make_unique<BenchBackend>(apps.at(name), TinyOptions(),
                                              nullptr);
      },
      ropts);

  static const double kSizes[] = {100.0, 120.0, 300.0, 330.0, 500.0};
  common::ThreadPool drivers(driver_threads);
  std::vector<std::string> served;
  for (int r = 0; r < 4; ++r) {
    std::vector<std::string> round(names.size());
    drivers.ParallelForEach(names.size(), [&](size_t ai) {
      const double ds = kSizes[(static_cast<size_t>(r) + ai) % 5];
      const auto conf = registry.Lookup(names[ai], ds);
      if (conf.ok()) {
        round[ai] = sparksim::SparkPropertiesToString(*conf);
      }
    });
    registry.AdvanceTick();
    for (auto& s : round) {
      if (s.empty()) {
        std::fprintf(stderr, "determinism: a lookup failed in round %d\n", r);
        std::abort();
      }
      served.push_back(std::move(s));
    }
  }
  return served;
}

bool CaseDeterminism() {
  const std::vector<std::string> inline_run = DetTrace(1, 1);
  const std::vector<std::string> pooled_run = DetTrace(8, 8);
  if (inline_run != pooled_run) {
    std::fprintf(stderr,
                 "determinism: served confs diverged between inline and "
                 "8-thread serving\n");
    std::abort();
  }
  return true;
}

struct WarmColdResult {
  double cold_iters = 0.0;   // tuner observations (retries collapse)
  double warm_iters = 0.0;
  double cold_evals = 0.0;   // session evaluations (retries included)
  double warm_evals = 0.0;
  double cold_nf_s = 0.0;
  double warm_nf_s = 0.0;
  double cost_ratio() const { return warm_nf_s / cold_nf_s; }
};

/// One cold and one warm-started tune of the newcomer, with every tuner
/// (donors and newcomer) at `seed`.
WarmColdResult RunWarmVsCold(uint64_t seed) {
  // Donors and the newcomer are close TPC-H variants; the newcomer's
  // backend (app profile + simulator seed) is identical in both arms, so
  // any difference comes from the transferred priors alone. The donors
  // tune with a production-sized budget — a donor only holds genuinely
  // good configurations (and a trustworthy CSQ) when it could afford a
  // real search; the newcomer keeps the small online budget in both arms.
  core::OnlineTuningService::Options sopts;
  sopts.tuner.n_qcsa = 8;
  sopts.tuner.n_iicp = 6;
  sopts.tuner.lhs_init = 2;
  sopts.tuner.min_iterations = 4;
  sopts.tuner.max_iterations = 6;
  sopts.tuner.warm_iterations = 3;
  sopts.tuner.candidates = 60;
  sopts.tuner.seed = seed;

  core::OnlineTuningService::Options bopts;  // donor (production) budget
  bopts.tuner.n_qcsa = 12;
  bopts.tuner.n_iicp = 8;
  bopts.tuner.lhs_init = 3;
  bopts.tuner.min_iterations = 8;
  bopts.tuner.max_iterations = 14;
  bopts.tuner.warm_iterations = 5;
  bopts.tuner.candidates = 240;
  bopts.tuner.seed = seed;

  std::map<std::string, sparksim::SparkSqlApp> apps;
  for (int d = 0; d < 3; ++d) {
    const std::string name = "donor-" + std::to_string(d);
    apps.emplace(name, MakeApp(1 + 5 * d, name));  // TPC-H family variants
  }
  apps.emplace("newcomer", MakeApp(1 + 5 * 3, "newcomer"));

  std::map<std::string, core::TuningSession*> sessions;
  std::map<std::string, core::OnlineTuningService*> services;
  auto factory = [&](const std::string& name)
      -> std::unique_ptr<core::AppBackend> {
    const bool donor = name.rfind("donor-", 0) == 0;
    return std::make_unique<BenchBackend>(apps.at(name),
                                          donor ? bopts : sopts,
                                          &sessions[name], &services[name]);
  };

  WarmColdResult out;
  sparksim::SparkConf cold_conf;
  sparksim::SparkConf warm_conf;
  {
    core::ServiceRegistry::Options ropts;
    ropts.warm_start = false;
    core::ServiceRegistry cold(factory, ropts);
    const auto conf = cold.Lookup("newcomer", 150.0);
    if (!conf.ok()) std::abort();
    cold_conf = *conf;
    out.cold_iters = static_cast<double>(
        services["newcomer"]->tuner().num_observations());
    out.cold_evals = static_cast<double>(sessions["newcomer"]->evaluations());
  }
  {
    core::ServiceRegistry::Options ropts;
    ropts.warm_start = true;
    ropts.transfer_cap = 24;
    core::ServiceRegistry warm(factory, ropts);
    for (int d = 0; d < 3; ++d) {
      if (!warm.Lookup("donor-" + std::to_string(d), 150.0).ok() ||
          !warm.Lookup("donor-" + std::to_string(d), 400.0).ok()) {
        std::abort();
      }
    }
    warm.AdvanceTick();  // donor knowledge lands in the transfer store
    const auto conf = warm.Lookup("newcomer", 150.0);
    if (!conf.ok()) std::abort();
    warm_conf = *conf;
    out.warm_iters = static_cast<double>(
        services["newcomer"]->tuner().num_observations());
    out.warm_evals = static_cast<double>(sessions["newcomer"]->evaluations());
    const auto row = warm.GetAppRow("newcomer");
    if (!row.has_value() || !row->warm_started) {
      std::fprintf(stderr, "warm_vs_cold: newcomer was not warm-started\n");
      std::abort();
    }
  }

  // Judge both confs on a fresh noise-free simulator: same app, no
  // measurement noise, no tuning history.
  sparksim::SimParams nf;
  nf.noise_sigma = 0.0;
  const auto& app = apps.at("newcomer");
  sparksim::ClusterSimulator cold_sim(sparksim::X86Cluster(), 1, nf);
  out.cold_nf_s = cold_sim.RunApp(app, cold_conf, 150.0).total_seconds;
  sparksim::ClusterSimulator warm_sim(sparksim::X86Cluster(), 1, nf);
  out.warm_nf_s = warm_sim.RunApp(app, warm_conf, 150.0).total_seconds;
  return out;
}

/// Tuner seeds of the warm_vs_cold distribution; the first is the case
/// the 1.05x and iteration gates judge.
constexpr uint64_t kWarmColdFirstSeed = 31;
constexpr int kWarmColdSeeds = 16;
/// Bound on the warm/cold geometric mean over those seeds: the value
/// measured before the EI-MCMC ensemble was amortized across refits.
constexpr double kMaxWarmColdGeoMean = 0.968;

struct WarmColdSweep {
  std::vector<WarmColdResult> seeds;  // seed kWarmColdFirstSeed + i
  double cold_geo_s = 0.0;
  double warm_geo_s = 0.0;
  double ratio_geo = 0.0;
};

WarmColdSweep CaseWarmVsCold() {
  WarmColdSweep sweep;
  double log_cold = 0.0, log_warm = 0.0;
  for (int i = 0; i < kWarmColdSeeds; ++i) {
    const WarmColdResult r =
        RunWarmVsCold(kWarmColdFirstSeed + static_cast<uint64_t>(i));
    log_cold += std::log(r.cold_nf_s);
    log_warm += std::log(r.warm_nf_s);
    sweep.seeds.push_back(r);
  }
  sweep.cold_geo_s = std::exp(log_cold / kWarmColdSeeds);
  sweep.warm_geo_s = std::exp(log_warm / kWarmColdSeeds);
  sweep.ratio_geo = sweep.warm_geo_s / sweep.cold_geo_s;

  const WarmColdResult& out = sweep.seeds.front();
  if (out.warm_nf_s > 1.05 * out.cold_nf_s) {
    std::fprintf(stderr,
                 "warm_vs_cold: warm conf %.1f s is worse than 1.05x the "
                 "cold conf %.1f s\n",
                 out.warm_nf_s, out.cold_nf_s);
    std::abort();
  }
  // Iterations are tuner observations: retries of a flaky run collapse
  // into one, so the count reflects search effort, not luck with the
  // failure injector.
  if (out.warm_iters > out.cold_iters / 2.0) {
    std::fprintf(stderr,
                 "warm_vs_cold: warm start took %.0f iterations, more than "
                 "half the cold %.0f\n",
                 out.warm_iters, out.cold_iters);
    std::abort();
  }
  if (sweep.ratio_geo > kMaxWarmColdGeoMean) {
    std::fprintf(stderr,
                 "warm_vs_cold: warm/cold geometric mean %.3f over seeds "
                 "%d-%d exceeds %.3f\n",
                 sweep.ratio_geo, static_cast<int>(kWarmColdFirstSeed),
                 static_cast<int>(kWarmColdFirstSeed) + kWarmColdSeeds - 1,
                 kMaxWarmColdGeoMean);
    std::abort();
  }
  return sweep;
}

void WriteJson(const std::string& path, const ScaleResult& scale,
               bool deterministic, const WarmColdSweep& sweep) {
  const WarmColdResult& wc = sweep.seeds.front();
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os.precision(6);
  os << "{\n"
     << "  \"benchmark\": \"service\",\n"
     << "  \"apps\": " << g_apps << ",\n"
     << "  \"warm_lookup_p50_us\": " << scale.p50_us << ",\n"
     << "  \"warm_lookup_p99_us\": " << scale.p99_us << ",\n"
     << "  \"retunes\": " << scale.retunes << ",\n"
     << "  \"retune_throughput_per_s\": " << scale.retune_per_s << ",\n"
     << "  \"evictions_capacity\": " << scale.evict_cap << ",\n"
     << "  \"evictions_ttl\": " << scale.evict_ttl << ",\n"
     << "  \"warm_start_hits\": " << scale.warm_starts << ",\n"
     << "  \"deterministic_across_threads\": "
     << (deterministic ? "true" : "false") << ",\n"
     << "  \"cold_iterations\": " << wc.cold_iters << ",\n"
     << "  \"warm_iterations\": " << wc.warm_iters << ",\n"
     << "  \"cold_evaluations\": " << wc.cold_evals << ",\n"
     << "  \"warm_evaluations\": " << wc.warm_evals << ",\n"
     << "  \"cold_noise_free_s\": " << wc.cold_nf_s << ",\n"
     << "  \"warm_noise_free_s\": " << wc.warm_nf_s << ",\n"
     << "  \"warm_cost_ratio\": " << wc.cost_ratio() << ",\n"
     << "  \"warm_vs_cold_seeds\": [\n";
  for (size_t i = 0; i < sweep.seeds.size(); ++i) {
    const WarmColdResult& r = sweep.seeds[i];
    os << "    {\"seed\": " << kWarmColdFirstSeed + i
       << ", \"cold_noise_free_s\": " << r.cold_nf_s
       << ", \"warm_noise_free_s\": " << r.warm_nf_s
       << ", \"warm_cost_ratio\": " << r.cost_ratio() << "}"
       << (i + 1 < sweep.seeds.size() ? ",\n" : "\n");
  }
  os << "  ],\n"
     << "  \"cold_noise_free_geomean_s\": " << sweep.cold_geo_s << ",\n"
     << "  \"warm_noise_free_geomean_s\": " << sweep.warm_geo_s << ",\n"
     << "  \"warm_cost_ratio_geomean\": " << sweep.ratio_geo << "\n"
     << "}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--apps" && i + 1 < argc) {
      g_apps = std::max(8, std::atoi(argv[++i]));
    }
  }

  const ScaleResult scale = CaseScale();
  const bool deterministic = CaseDeterminism();
  const WarmColdSweep sweep = CaseWarmVsCold();
  const WarmColdResult& wc = sweep.seeds.front();

  TablePrinter tp({"metric", "value"});
  tp.AddRow({"apps", TablePrinter::Num(g_apps, 0)});
  tp.AddRow({"warm lookup p50", TablePrinter::Num(scale.p50_us, 2) + " us"});
  tp.AddRow({"warm lookup p99", TablePrinter::Num(scale.p99_us, 2) + " us"});
  tp.AddRow({"retune throughput",
             TablePrinter::Num(scale.retune_per_s, 1) + "/s"});
  tp.AddRow({"evictions cap/ttl", TablePrinter::Num(scale.evict_cap, 0) +
                                      "/" +
                                      TablePrinter::Num(scale.evict_ttl, 0)});
  tp.AddRow({"warm starts", TablePrinter::Num(scale.warm_starts, 0)});
  tp.AddRow({"deterministic", deterministic ? "yes" : "no"});
  tp.AddRow({"cold iters -> warm iters",
             TablePrinter::Num(wc.cold_iters, 0) + " -> " +
                 TablePrinter::Num(wc.warm_iters, 0)});
  tp.AddRow({"warm/cold noise-free cost",
             TablePrinter::Num(wc.cost_ratio(), 3)});
  tp.AddRow({"warm/cold geomean, " + std::to_string(kWarmColdSeeds) +
                 " seeds",
             TablePrinter::Num(sweep.ratio_geo, 3)});
  tp.Print(std::cout);

  WriteJson(out_path, scale, deterministic, sweep);
  return 0;
}
