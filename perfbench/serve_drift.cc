// serve-drift: one ServiceRegistry serving 20 seed-perturbed variants of
// the five base apps in a closed loop. Each request is Lookup -> the
// production RunApp -> ReportRun; each round sends 10 requests per app,
// then calls AdvanceTick; input sizes drift every two rounds over
// 100/110/300/320/500/450 GB for 12 rounds. Registry capacity is 15
// apps, so every round evicts and re-admits; tuner budgets are those of
// `locat serve`.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/online_service.h"
#include "core/service_registry.h"
#include "core/tuning.h"
#include "obs/telemetry.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace locat;

/// Closed-loop clients. Each app is served by one fixed client, in
/// order, so an app's requests never overlap — while different apps'
/// lock-free lookups, production runs and DAGP-growing reports do.
constexpr int kClients = 2;

struct Schedule {
  int apps = 20;
  int rounds = 12;
  int requests_per_round = 10;
  size_t capacity = 15;
  std::vector<double> sizes = {100, 110, 300, 320, 500, 450};
  int rounds_per_size = 2;

  double SizeAt(int round) const {
    return sizes[static_cast<size_t>(round / rounds_per_size) % sizes.size()];
  }
};

Schedule MakeSchedule(bool smoke) {
  Schedule s;
  if (smoke) {
    s.apps = 6;
    s.rounds = 4;
    s.requests_per_round = 2;
    s.capacity = 4;
    s.sizes = {100, 300};
  }
  return s;
}

core::OnlineTuningService::Options ServeOptions(uint64_t seed) {
  // The budgets of `locat serve`.
  core::OnlineTuningService::Options o;
  o.tuner.n_qcsa = 8;
  o.tuner.n_iicp = 6;
  o.tuner.lhs_init = 2;
  o.tuner.min_iterations = 3;
  o.tuner.max_iterations = 5;
  o.tuner.warm_iterations = 3;
  o.tuner.candidates = 60;
  o.tuner.seed = 31 + seed;
  return o;
}

/// Per-app state that outlives registry evictions: the profile, the
/// production cluster (its noise stream does not forget an app) and a
/// noise-free judge with the default cost at every scheduled size.
struct Host {
  std::string name;
  sparksim::SparkSqlApp app;
  std::unique_ptr<sparksim::ClusterSimulator> sim;
  std::unique_ptr<sparksim::ClusterSimulator> judge;
  std::map<double, double> default_s;
};

std::vector<Host> MakeHosts(const Schedule& sched, uint64_t seed) {
  const std::vector<sparksim::SparkSqlApp> bases = workloads::AllBenchmarks();
  Rng rng(0x5eed0000ULL + 7919 * seed);
  sparksim::SimParams noise_free;
  noise_free.noise_sigma = 0.0;
  std::vector<Host> hosts(static_cast<size_t>(sched.apps));
  for (int i = 0; i < sched.apps; ++i) {
    Host& h = hosts[static_cast<size_t>(i)];
    h.app = bases[static_cast<size_t>(i) % bases.size()];
    h.name = h.app.name + "#" + std::to_string(i / bases.size());
    h.app.name = h.name;
    const double cpu_f = rng.Uniform(0.85, 1.15);
    const double mem_f = rng.Uniform(0.9, 1.1);
    const double shuffle_f = rng.Uniform(0.85, 1.15);
    for (auto& q : h.app.queries) {
      q.cpu_per_gb *= cpu_f;
      q.mem_per_task_factor *= mem_f;
      q.shuffle_ratio *= shuffle_f;
    }
    h.sim = std::make_unique<sparksim::ClusterSimulator>(
        sparksim::X86Cluster(), 21 + 131 * seed + static_cast<uint64_t>(i));
    h.judge = std::make_unique<sparksim::ClusterSimulator>(
        sparksim::X86Cluster(), 1, noise_free);
    const sparksim::ConfigSpace space(h.judge->cluster());
    const sparksim::SparkConf defaults = space.Repair(space.DefaultConf());
    for (double ds : sched.sizes) {
      h.default_s[ds] = h.judge->RunApp(h.app, defaults, ds).total_seconds;
    }
  }
  return hosts;
}

class Backend;

/// Totals of every backend's session, folded in when the registry
/// destroys it (eviction or shutdown).
struct BackendTotals {
  std::mutex mu;
  std::map<std::string, Backend*> live;
  LayerCounts counts;  // of backends already destroyed
};

class Backend : public core::AppBackend {
 public:
  Backend(Host* host, uint64_t seed, const obs::ObsContext& ctx,
          BackendTotals* totals)
      : host_(host),
        totals_(totals),
        session_(std::make_unique<core::TuningSession>(host->sim.get(),
                                                       host->app)),
        service_(std::make_unique<core::OnlineTuningService>(
            session_.get(), ServeOptions(seed))) {
    session_->SetObservability(ctx);
    std::lock_guard<std::mutex> lock(totals_->mu);
    totals_->live[host_->name] = this;
  }

  ~Backend() override {
    std::lock_guard<std::mutex> lock(totals_->mu);
    totals_->live.erase(host_->name);
    LayerCounts& c = totals_->counts;
    const core::LocatTuner& tuner = service_->tuner();
    c.opt_h += session_->optimization_seconds() / 3600.0;
    c.session_evals += session_->evaluations();
    c.tuner_evals += static_cast<double>(tuner.num_observations());
    c.failed_evals += tuner.failed_evaluations();
    c.rqa_queries += static_cast<double>(tuner.rqa_indices().size());
  }

  core::OnlineTuningService* service() override { return service_.get(); }
  const sparksim::SparkSqlApp& app() const override { return host_->app; }
  const sparksim::ConfigSpace& space() const { return session_->space(); }

 private:
  Host* host_;
  BackendTotals* totals_;
  std::unique_ptr<core::TuningSession> session_;
  std::unique_ptr<core::OnlineTuningService> service_;
};

/// What one client measured.
struct ClientLog {
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  std::vector<double> report_us;
  std::vector<double> retune_n;
};

struct PassOutput {
  double setup_s = 0.0;
  double wall_s = 0.0;
  ClientLog log;
  core::ServiceRegistry::Stats stats;
  std::vector<double> cost_ratios;
  double requests = 0.0;
  std::string digest;
  SpanTotals spans;
  LayerCounts counts;
};

PassOutput RunPass(const RunOptions& opts, uint64_t seed, bool traced,
                   Result* result) {
  const Schedule sched = MakeSchedule(opts.smoke);
  PassOutput out;
  obs::Tracer tracer;
  obs::Tracer* tr = traced ? &tracer : nullptr;
  obs::ObsContext ctx;
  ctx.tracer = tr;

  std::vector<Host> hosts;
  BackendTotals totals;
  std::map<std::string, Host*> by_name;
  std::unique_ptr<core::ServiceRegistry> registry;
  out.setup_s = TimeSetup([&] { registry.reset(); }, [&] {
    hosts = MakeHosts(sched, seed);
    by_name.clear();
    for (Host& h : hosts) by_name[h.name] = &h;
    core::ServiceRegistry::Options ropts;
    ropts.capacity = sched.capacity;
    ropts.tune_threads = 1;
    registry = std::make_unique<core::ServiceRegistry>(
        [&by_name, &totals, &ctx, seed](const std::string& name)
            -> std::unique_ptr<core::AppBackend> {
          const auto it = by_name.find(name);
          if (it == by_name.end()) return nullptr;
          return std::make_unique<Backend>(it->second, seed, ctx, &totals);
        },
        ropts);
  });
  if (traced) {
    registry->SetObservability(ctx);
    for (Host& h : hosts) h.sim->set_tracer(tr);
  }

  const size_t napps = hosts.size();
  // served[round][request][app]: the configuration each request got.
  const size_t slots = static_cast<size_t>(sched.rounds) *
                       static_cast<size_t>(sched.requests_per_round) * napps;
  std::vector<sparksim::SparkConf> served(slots);
  std::vector<char> served_ok(slots, 0);
  std::vector<ClientLog> logs(kClients);
  common::ThreadPool clients(kClients);

  auto find_backend = [&totals](const std::string& name) -> Backend* {
    std::lock_guard<std::mutex> lock(totals.mu);
    const auto it = totals.live.find(name);
    return it == totals.live.end() ? nullptr : it->second;
  };

  const auto t0 = Clock::now();
  for (int round = 0; round < sched.rounds; ++round) {
    const double ds = sched.SizeAt(round);
    clients.ParallelForEach(kClients, [&](size_t c) {
      ClientLog& log = logs[c];
      for (int k = 0; k < sched.requests_per_round; ++k) {
        for (size_t a = c; a < napps; a += kClients) {
          Host& host = hosts[a];
          // Only this client touches this app between ticks, so its
          // service can be inspected before and after the lookup.
          Backend* before = find_backend(host.name);
          const int passes_before =
              before != nullptr ? before->service()->tuning_passes() : -1;
          if (before != nullptr &&
              !before->service()->PublishedReuse(ds).has_value()) {
            log.retune_n.push_back(static_cast<double>(
                before->service()->tuner().num_observations()));
          }
          const auto l0 = Clock::now();
          StatusOr<sparksim::SparkConf> conf_or = [&] {
            obs::ScopedSpan span(tr, "bench/lookup", "bench");
            return registry->Lookup(host.name, ds);
          }();
          const double lookup_s = SecondsSince(l0);
          Backend* after = find_backend(host.name);
          const bool miss =
              after != before ||
              (after != nullptr &&
               after->service()->tuning_passes() != passes_before);
          (miss ? log.miss_ms : log.hit_us)
              .push_back(miss ? 1e3 * lookup_s : 1e6 * lookup_s);
          const bool ok = conf_or.ok() && after != nullptr &&
                          ValidConf(after->space(), *conf_or);
          if (!ok) continue;  // counted by the served_ok check below
          const sparksim::SparkConf& conf = *conf_or;
          const size_t slot =
              (static_cast<size_t>(round) *
                   static_cast<size_t>(sched.requests_per_round) +
               static_cast<size_t>(k)) *
                  napps +
              a;
          served[slot] = conf;
          served_ok[slot] = 1;

          sparksim::AppRunResult run;
          {
            obs::ScopedSpan span(tr, "bench/run_app", "bench");
            run = host.sim->RunApp(host.app, conf, ds);
          }
          const auto r0 = Clock::now();
          Status st;
          {
            obs::ScopedSpan span(tr, "bench/report", "bench");
            st = run.failed ? registry->ReportFailedRun(host.name, ds, conf,
                                                        run.total_seconds)
                            : registry->ReportRun(host.name, ds, conf,
                                                  run.total_seconds);
          }
          log.report_us.push_back(1e6 * SecondsSince(r0));
          if (!st.ok()) served_ok[slot] = 0;
        }
      }
    });
    {
      obs::ScopedSpan span(tr, "bench/tick", "bench");
      registry->AdvanceTick();
    }
    if (traced) {
      // Spans of a round never cross the tick barrier: fold them now and
      // keep the tracer's buffer to one round.
      out.spans.Add(tracer.snapshot(), /*baseline_tuners=*/false);
      tracer.Clear();
    }
  }
  out.wall_s = SecondsSince(t0);
  out.stats = registry->GetStats();
  registry.reset();  // folds every remaining backend into `totals`

  for (const ClientLog& log : logs) {
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&out.log.hit_us, log.hit_us);
    append(&out.log.miss_ms, log.miss_ms);
    append(&out.log.report_us, log.report_us);
    append(&out.log.retune_n, log.retune_n);
  }

  // Judge every served configuration on its app's noise-free simulator
  // (memoized: most requests reuse a published configuration).
  Digest digest;
  std::map<std::pair<size_t, uint64_t>, double> judged;
  for (size_t slot = 0; slot < slots; ++slot) {
    const size_t a = slot % napps;
    const int round = static_cast<int>(
        slot / (napps * static_cast<size_t>(sched.requests_per_round)));
    result->Check(served_ok[slot] != 0,
                  "serve-drift: request " + std::to_string(slot) + " for " +
                      hosts[a].name + " did not get a valid configuration");
    if (!served_ok[slot]) continue;
    const double ds = sched.SizeAt(round);
    Digest key;
    key.Add(ds);
    key.Add(served[slot]);
    auto [it, fresh] = judged.try_emplace({a, key.value()}, 0.0);
    if (fresh) {
      it->second = hosts[a].judge->RunApp(hosts[a].app, served[slot], ds)
                       .total_seconds /
                   hosts[a].default_s.at(ds);
    }
    out.cost_ratios.push_back(it->second);
    digest.Add(served[slot]);
  }
  out.digest = digest.Hex();
  out.requests = static_cast<double>(slots);
  out.counts = totals.counts;
  out.counts.app_runs = out.counts.session_evals + out.requests;
  for (const Host& h : hosts) {
    out.counts.query_cells += static_cast<double>(h.sim->runs_performed());
    out.counts.batch_lanes +=
        static_cast<double>(h.sim->engine_stats().batch_lanes);
  }
  return out;
}

}  // namespace

void RunServeDrift(const RunOptions& opts, Result* result) {
  // Which configurations the small online budgets find depends on each
  // tune's search path, so passes cycle through kSeeds workload variants
  // derived from the workload seed and quality is taken over all of them
  // (an untraced run makes at least kSeeds passes).
  constexpr size_t kSeeds = 6;
  // A traced run compares its traced pass with untraced passes of the
  // same inputs, so it stays on the first seed.
  auto pass_seed = [&opts](size_t k) {
    return kSeeds * opts.seed + (opts.trace ? 0 : k % kSeeds);
  };
  const std::vector<PassOutput> passes = RunPasses<PassOutput>(
      opts.trace ? opts.seconds / 2 : opts.seconds,
      opts.trace ? 1 : static_cast<int>(kSeeds), 12, result, [&](int k) {
        return RunPass(opts, pass_seed(static_cast<size_t>(k)), false, result);
      });

  std::vector<double> walls;
  std::vector<double> setups;
  ClientLog all;
  std::vector<double> ratios;
  double opt_h = 0.0;
  char line[320];
  for (size_t k = 0; k < passes.size(); ++k) {
    const PassOutput& p = passes[k];
    walls.push_back(p.wall_s);
    setups.push_back(p.setup_s);
    std::snprintf(line, sizeof(line),
                  "serve-drift pass %zu seed %llu: wall %.4f s | setup %.6f s "
                  "| misses %zu | cost_ratio %.4f | digest %s",
                  k, static_cast<unsigned long long>(pass_seed(k)), p.wall_s,
                  p.setup_s, p.log.miss_ms.size(), GeoMean(p.cost_ratios),
                  p.digest.c_str());
    result->Info(line);
    if (k >= kSeeds) {
      result->Check(p.digest == passes[k - kSeeds].digest,
                    "serve-drift: a repeated seed served different "
                    "configurations");
    } else {
      ratios.insert(ratios.end(), p.cost_ratios.begin(), p.cost_ratios.end());
      opt_h += p.counts.opt_h /
               static_cast<double>(std::min(kSeeds, passes.size()));
    }
    all.hit_us.insert(all.hit_us.end(), p.log.hit_us.begin(),
                      p.log.hit_us.end());
    all.miss_ms.insert(all.miss_ms.end(), p.log.miss_ms.begin(),
                       p.log.miss_ms.end());
    all.report_us.insert(all.report_us.end(), p.log.report_us.begin(),
                         p.log.report_us.end());
  }
  const PassOutput& first = passes[0];
  const double ratio = GeoMean(ratios);
  result->Set("pass_wall_s", Median(walls), "s");
  result->Set("cost_ratio", ratio, "ratio");
  result->Set("setup_s", *std::min_element(setups.begin(), setups.end()),
              "s");

  const auto& st = first.stats;
  std::snprintf(
      line, sizeof(line),
      "serve-drift: %zu pass(es) of %.0f requests, %d clients | serve_rps "
      "%.1f | lookup hit p50/p99 %.3f/%.3f us (%zu) | miss p50/p90 "
      "%.2f/%.2f ms (%zu) | cost_ratio %.4f | opt_sim_h %.2f",
      passes.size(), first.requests, kClients, first.requests / Median(walls),
      Quantile(all.hit_us, 0.5), Quantile(all.hit_us, 0.99),
      all.hit_us.size(), Quantile(all.miss_ms, 0.5),
      Quantile(all.miss_ms, 0.9), all.miss_ms.size(), ratio, opt_h);
  result->Info(line);
  std::snprintf(line, sizeof(line),
                "registry: %llu hits, %llu misses (%llu cold, %llu drift), "
                "%llu coalesced, %llu evictions, %llu warm starts",
                static_cast<unsigned long long>(st.lookups_hit),
                static_cast<unsigned long long>(st.lookups_miss),
                static_cast<unsigned long long>(st.retunes_cold),
                static_cast<unsigned long long>(st.retunes_drift),
                static_cast<unsigned long long>(st.lookups_coalesced),
                static_cast<unsigned long long>(st.evictions_capacity +
                                                st.evictions_ttl),
                static_cast<unsigned long long>(st.warm_start_hits));
  result->Info(line);

  if (!opts.trace) return;
  const double lookups =
      static_cast<double>(st.lookups_hit + st.lookups_miss +
                          st.lookups_coalesced);
  result->Set("registry.hit_ratio",
              lookups > 0 ? static_cast<double>(st.lookups_hit) / lookups : 0,
              "ratio");
  result->Set("registry.misses", static_cast<double>(st.lookups_miss),
              "count");
  result->Set("registry.coalesced", static_cast<double>(st.lookups_coalesced),
              "count");
  result->Set("registry.retunes_cold", static_cast<double>(st.retunes_cold),
              "count");
  result->Set("registry.retunes_drift", static_cast<double>(st.retunes_drift),
              "count");
  result->Set("registry.evictions",
              static_cast<double>(st.evictions_capacity + st.evictions_ttl),
              "count");
  result->Set("registry.warm_starts",
              static_cast<double>(st.warm_start_hits), "count");
  result->Set("registry.lookup_hit_p50_us", Quantile(all.hit_us, 0.5), "us");
  result->Set("registry.lookup_hit_p99_us", Quantile(all.hit_us, 0.99), "us");
  result->Set("registry.lookup_miss_p50_ms", Quantile(all.miss_ms, 0.5),
              "ms");
  result->Set("registry.lookup_miss_p90_ms", Quantile(all.miss_ms, 0.9),
              "ms");
  result->Set("service.report_p50_us", Quantile(all.report_us, 0.5), "us");
  result->Set("service.report_p99_us", Quantile(all.report_us, 0.99), "us");
  result->Set("service.retune_n_p50", Quantile(first.log.retune_n, 0.5),
              "count");
  result->Set("service.retune_n_max", Quantile(first.log.retune_n, 1.0),
              "count");

  const PassOutput traced = RunPass(opts, pass_seed(0), true, result);
  result->Check(traced.digest == first.digest,
                "serve-drift: tracing changed the served configurations");
  ReportLayers(traced.spans, traced.counts, traced.wall_s, Median(walls),
               result);
}

}  // namespace perfbench
