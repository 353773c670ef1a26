// locat — command-line front end for the library.
//
//   locat catalog                         # print the Table 2 parameter list
//   locat apps                            # list the built-in applications
//   locat simulate <app> <cluster> <ds>   # one run under Spark defaults
//   locat sweep <app> <cluster> <ds> <spark.param>
//                                         # single-parameter what-if sweep
//   locat qcsa <app> <cluster> [runs]     # query sensitivity analysis
//   locat tune <app> <cluster> <ds> [tuner]
//                                         # run LOCAT (or a baseline)
//   locat serve <cluster> [apps...]       # multi-app online tuning service
//   locat report <telemetry.jsonl>        # per-phase breakdown of a run
//   locat check-metrics <metrics.txt>     # validate Prometheus exposition
//
// `tune` accepts observability flags (see Usage) that write a Chrome
// trace, a Prometheus metrics snapshot, and per-iteration JSONL telemetry.
// `serve` runs the OnlineTuningService loop and (with --admin-port) exposes
// /metrics, /healthz, /statusz and /flightz over loopback HTTP.
//
// Clusters: "arm" (4-node KUNPENG) or "x86" (8-node Xeon).
// Apps: TPC-DS, TPC-H, Join, Scan, Aggregation.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <iostream>

#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/locat_tuner.h"
#include "core/online_service.h"
#include "core/service_registry.h"
#include "core/qcsa.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "math/kern/kern.h"
#include "obs/admin_server.h"
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

int Usage() {
  std::fprintf(
      stderr,
      "usage: locat <command> [args]\n"
      "  catalog                          print the 38-parameter catalog\n"
      "  apps                             list built-in applications\n"
      "  simulate <app> <cluster> <ds>    run once under Spark defaults\n"
      "  sweep <app> <cluster> <ds> <p>   sweep one parameter\n"
      "  qcsa <app> <cluster> [runs]      query sensitivity analysis\n"
      "  tune <app> <cluster> <ds> [t]    tune (t: LOCAT|Tuneful|DAC|"
      "GBO-RL|QTune|Random)\n"
      "  serve <cluster> [apps...]        run the online tuning service on\n"
      "                                   a synthetic multi-app workload\n"
      "                                   (default apps: TPC-DS TPC-H)\n"
      "  report <telemetry.jsonl>         per-phase breakdown of a tune run\n"
      "  check-metrics <file>             validate a Prometheus text\n"
      "                                   exposition (exit 0 iff well-formed)\n"
      "tune flags:\n"
      "  --seed N            repetition salt for the tuner and simulator\n"
      "  --threads N         worker threads for the BO hot path (GP\n"
      "                      ensemble fits, acquisition scoring, RQA query\n"
      "                      evaluation); results are bit-identical for\n"
      "                      any N. Default: hardware concurrency\n"
      "  --trace FILE        write a Chrome trace_event JSON timeline\n"
      "                      (chrome://tracing, Perfetto); includes the\n"
      "                      simulated-time lane of the cluster simulator\n"
      "  --metrics FILE      write a Prometheus text metrics snapshot\n"
      "  --telemetry FILE    write per-iteration BO telemetry as JSONL\n"
      "                      (input of `locat report`)\n"
      "  --faults LEVEL      deterministic fault injection: off (default),\n"
      "                      light or heavy — executor loss, stragglers,\n"
      "                      fetch-failure retries and OOM app kills; the\n"
      "                      tuner retries and imputes censored costs\n"
      "  --fault-seed N      seed of the fault schedule (same seed =>\n"
      "                      byte-identical run; independent of --seed)\n"
      "observability flags (tune and serve):\n"
      "  --admin-port P      serve /metrics /varz /healthz /statusz\n"
      "                      /flightz /quitz on 127.0.0.1:P (0 picks an\n"
      "                      ephemeral port). tune prints the bound port\n"
      "                      to stderr so stdout stays byte-identical;\n"
      "                      serve prints it to stdout\n"
      "  --log-level L       structured logging: debug|info|warn|error|off\n"
      "                      (default off — zero cost)\n"
      "  --log-file FILE     route log records to FILE as JSONL instead of\n"
      "                      human-readable stderr\n"
      "  --flight FILE       keep a flight recorder of recent events and\n"
      "                      dump it to FILE on injected app kills and on\n"
      "                      SIGSEGV/SIGABRT\n"
      "serve flags:\n"
      "  --rounds N          production rounds to serve (default 6)\n"
      "  --serve-linger S    after the rounds, keep serving the admin\n"
      "                      endpoint up to S seconds or until /quitz\n"
      "                      (default 0)\n"
      "  --serve-threads N   concurrent app drivers + background tuning\n"
      "                      workers (default 1; served confs are\n"
      "                      bit-identical for any value)\n"
      "  --registry-cap N    max apps live in the serving registry; the\n"
      "                      LRU excess is evicted between rounds\n"
      "                      (default 0 = unlimited)\n"
      "  --registry-ttl N    evict apps idle for more than N rounds\n"
      "                      (default 0 = never)\n"
      "  --warm-start on|off seed new/re-admitted apps from similar tuned\n"
      "                      apps' observations (default on; off\n"
      "                      reproduces the registry-less cold start)\n"
      "  --dump-confs FILE   append one line per served request (round,\n"
      "                      app, size, raw conf values) — the byte-diff\n"
      "                      artifact for determinism checks\n"
      "clusters: arm | x86; apps: TPC-DS | TPC-H | Join | Scan | "
      "Aggregation\n");
  return 2;
}

/// Parses all of `s` as a T: no whitespace, no trailing characters, no
/// sign an unsigned T cannot hold, and no out-of-range value. A missing
/// value (null `s`) fails. A double may still come back as nan or inf;
/// callers range-check it.
template <typename T>
bool ParseNumber(const char* s, T* out) {
  if (s == nullptr) return false;
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && ptr == end;
}

/// A data size in GB: a finite number > 0.
bool ParseDatasize(const std::string& s, double* ds) {
  return ParseNumber(s.c_str(), ds) && std::isfinite(*ds) && *ds > 0.0;
}

/// Whether a positional names something the CLI can build. The harness
/// factories fall back to Aggregation, x86 and Random for a name they do
/// not know, so every command checks its names here first and an unknown
/// one prints usage (exit 2).
bool KnownName(const char* kind, const std::string& name, bool known) {
  if (!known) std::fprintf(stderr, "unknown %s: %s\n", kind, name.c_str());
  return known;
}

bool KnownApp(const std::string& name) {
  const auto apps = workloads::AllBenchmarks();
  return KnownName("app", name,
                   std::any_of(apps.begin(), apps.end(),
                               [&](const auto& a) { return a.name == name; }));
}

bool KnownCluster(const std::string& name) {
  return KnownName("cluster", name, name == "arm" || name == "x86");
}

bool KnownTuner(const std::string& name) {
  return KnownName("tuner", name, harness::MakeTuner(name, 0)->name() == name);
}

int CmdCatalog() {
  sparksim::ConfigSpace arm(sparksim::ArmCluster());
  sparksim::ConfigSpace x86(sparksim::X86Cluster());
  TablePrinter tp({"#", "parameter", "default", "Range A", "Range B"});
  for (int i = 0; i < sparksim::kNumParams; ++i) {
    const auto& spec = arm.spec(i);
    const bool is_bool = spec.kind == sparksim::ParamKind::kBool;
    tp.AddRow({std::to_string(i), spec.name,
               is_bool ? (spec.default_value > 0.5 ? "true" : "false")
                       : TablePrinter::Num(spec.default_value, 1),
               is_bool ? "true,false"
                       : TablePrinter::Num(arm.lo(i), 1) + "-" +
                             TablePrinter::Num(arm.hi(i), 1),
               is_bool ? "true,false"
                       : TablePrinter::Num(x86.lo(i), 1) + "-" +
                             TablePrinter::Num(x86.hi(i), 1)});
  }
  tp.Print(std::cout);
  return 0;
}

int CmdApps() {
  for (const auto& app : workloads::AllBenchmarks()) {
    std::printf("%-12s %3d queries\n", app.name.c_str(), app.num_queries());
  }
  std::printf("data sizes (Table 1): 100, 200, 300, 400, 500 GB\n");
  return 0;
}

int CmdSimulate(const std::string& app_name, const std::string& cluster,
                double ds) {
  const auto app = harness::MakeApp(app_name);
  sparksim::ClusterSimulator sim(harness::MakeCluster(cluster), 1);
  sparksim::ConfigSpace space(sim.cluster());
  const auto run =
      sim.RunApp(app, space.Repair(space.DefaultConf()), ds);
  std::printf("%s @ %.0f GB on %s under (repaired) Spark defaults:\n",
              app.name.c_str(), ds, cluster.c_str());
  std::printf("  total %.0f s | GC %.0f s | shuffle %.1f GB | OOM: %s\n",
              run.total_seconds, run.gc_seconds, run.shuffle_gb,
              run.any_oom ? "yes" : "no");
  // Slowest five queries.
  std::vector<size_t> order(run.per_query.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return run.per_query[a].exec_seconds > run.per_query[b].exec_seconds;
  });
  std::printf("  slowest queries:");
  for (size_t i = 0; i < order.size() && i < 5; ++i) {
    std::printf(" %s(%.0fs)", app.queries[order[i]].name.c_str(),
                run.per_query[order[i]].exec_seconds);
  }
  std::printf("\n");
  return 0;
}

int CmdSweep(const std::string& app_name, const std::string& cluster,
             double ds, const std::string& param) {
  const auto app = harness::MakeApp(app_name);
  sparksim::SimParams params;
  params.noise_sigma = 0.0;
  sparksim::ClusterSimulator sim(harness::MakeCluster(cluster), 1, params);
  sparksim::ConfigSpace space(sim.cluster());
  const int idx = space.IndexOf(param);
  if (idx < 0) {
    std::fprintf(stderr, "unknown parameter: %s (see `locat catalog`)\n",
                 param.c_str());
    return 2;
  }
  sparksim::SparkConf base = space.DefaultConf();
  base.Set(sparksim::kExecutorInstances, 30);
  base.Set(sparksim::kExecutorCores, 4);
  base.Set(sparksim::kExecutorMemory, 16);
  base.Set(sparksim::kExecutorMemoryOverhead, 3072);
  base.Set(sparksim::kSqlShufflePartitions, 500);
  base = space.Repair(base);

  TablePrinter tp({param, "total (s)", "GC (s)", "OOM"});
  const bool is_bool =
      space.spec(idx).kind == sparksim::ParamKind::kBool;
  const int steps = is_bool ? 2 : 8;
  for (int s = 0; s < steps; ++s) {
    const double v = is_bool ? s
                             : space.lo(idx) + (space.hi(idx) - space.lo(idx)) *
                                                   s / (steps - 1);
    sparksim::SparkConf conf = base;
    conf.Set(static_cast<sparksim::ParamId>(idx), v);
    conf = space.Repair(conf);
    const auto run = sim.RunApp(app, conf, ds);
    tp.AddRow({TablePrinter::Num(conf.Get(static_cast<sparksim::ParamId>(idx)),
                                 2),
               TablePrinter::Num(run.total_seconds, 0),
               TablePrinter::Num(run.gc_seconds, 0),
               run.any_oom ? "yes" : ""});
  }
  tp.Print(std::cout);
  return 0;
}

int CmdQcsa(const std::string& app_name, const std::string& cluster,
            int runs) {
  const auto app = harness::MakeApp(app_name);
  sparksim::ClusterSimulator sim(harness::MakeCluster(cluster), 7);
  sparksim::ConfigSpace space(sim.cluster());
  Rng rng(8);
  std::vector<std::vector<double>> times(
      static_cast<size_t>(app.num_queries()));
  for (int r = 0; r < runs; ++r) {
    const auto result = sim.RunApp(app, space.RandomValid(&rng), 100.0);
    for (size_t q = 0; q < result.per_query.size(); ++q) {
      times[q].push_back(result.per_query[q].exec_seconds);
    }
  }
  const auto qcsa = core::AnalyzeQuerySensitivity(times);
  if (!qcsa.ok()) {
    std::fprintf(stderr, "QCSA failed: %s\n",
                 qcsa.status().ToString().c_str());
    return 1;
  }
  std::printf("CV threshold %.3f; %zu CSQ / %zu CIQ\n", qcsa->threshold,
              qcsa->csq_indices.size(), qcsa->ciq_indices.size());
  std::printf("configuration-sensitive queries:");
  for (int idx : qcsa->csq_indices) {
    std::printf(" %s(%.2f)", app.queries[static_cast<size_t>(idx)].name.c_str(),
                qcsa->cv[static_cast<size_t>(idx)]);
  }
  std::printf("\n");
  return 0;
}

/// Observability flags of `tune`/`serve`, parsed out of argv before the
/// positional arguments.
struct ObsFlags {
  uint64_t seed = 0;
  std::string trace_path;
  std::string metrics_path;
  std::string telemetry_path;
  std::string faults = "off";
  uint64_t fault_seed = 0;
  int admin_port = -1;  // -1: no admin server (zero sockets, zero threads)
  std::string log_level = "off";
  std::string log_file;
  std::string flight_path;
  int rounds = 6;
  double serve_linger = 0.0;
  int serve_threads = 1;
  size_t registry_cap = 0;  // 0: unlimited
  int registry_ttl = 0;     // 0: never evict on idleness
  bool warm_start = true;
  std::string dump_confs_path;
};

/// Error/diagnostic output. Routed through the structured logger when one
/// is enabled (so --log-file captures it as JSONL); plain stderr
/// otherwise — the default path is byte-for-byte what it always was.
void Diag(const char* component, const std::string& message) {
  obs::Log* log = obs::Log::Global();
  if (log->Enabled(obs::LogLevel::kError)) {
    log->Error(component, message);
  } else {
    std::fprintf(stderr, "%s\n", message.c_str());
  }
}

/// Applies --log-level/--log-file/--flight to the process-global logger
/// and flight recorder. Returns the recorder (null when --flight absent).
obs::FlightRecorder* SetupProcessObs(const ObsFlags& flags) {
  obs::Log* log = obs::Log::Global();
  if (!flags.log_file.empty()) {
    const auto status = log->OpenJsonlFile(flags.log_file);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(2);
    }
  }
  const auto level = obs::ParseLogLevel(flags.log_level);
  if (!level.ok()) {
    std::fprintf(stderr, "%s\n", level.status().ToString().c_str());
    std::exit(2);
  }
  log->SetLevel(*level);

  obs::FlightRecorder* flight = nullptr;
  if (!flags.flight_path.empty()) {
    flight = obs::FlightRecorder::InstallGlobal();
    flight->SetDumpOnFault(flags.flight_path);
    obs::FlightRecorder::InstallCrashHandlers(flags.flight_path);
    log->SetFlightRecorder(flight);
  }
  return flight;
}

int CmdTune(const std::string& app_name, const std::string& cluster,
            double ds, const std::string& tuner_name, const ObsFlags& flags,
            const sparksim::FaultSpec& faults, obs::FlightRecorder* flight) {
  const auto app = harness::MakeApp(app_name);
  sparksim::ClusterSimulator sim(harness::MakeCluster(cluster),
                                 21 + flags.seed);
  if (flight != nullptr) sim.set_flight_recorder(flight);
  if (faults.enabled()) sim.set_faults(faults);
  core::TuningSession session(&sim, app);
  auto tuner = harness::MakeTuner(tuner_name, flags.seed);

  // Observability sinks: each is wired only when its output was requested,
  // so a plain `tune` keeps the all-null (zero-cost) path.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  std::ofstream telemetry_os;
  std::unique_ptr<obs::JsonlSink> observer;
  obs::ObsContext ctx;
  if (!flags.trace_path.empty()) {
    ctx.tracer = &tracer;
    sim.set_tracer(&tracer);
  }
  if (!flags.metrics_path.empty()) ctx.metrics = &metrics;
  if (!flags.telemetry_path.empty()) {
    telemetry_os.open(flags.telemetry_path);
    if (!telemetry_os) {
      Diag("cli", "cannot write " + flags.telemetry_path);
      return 1;
    }
    observer = std::make_unique<obs::JsonlSink>(&telemetry_os);
    ctx.observer = observer.get();
  }
  // An admin server implies a live metrics registry (that's what /metrics
  // scrapes). Wiring the registry is purely observational — counters and
  // histograms only — so stdout stays byte-identical with the port on or
  // off; the listening line goes to stderr for the same reason.
  std::unique_ptr<obs::AdminServer> admin;
  if (flags.admin_port >= 0) {
    ctx.metrics = &metrics;
    obs::AdminServer::Options opts;
    opts.port = flags.admin_port;
    opts.metrics = &metrics;
    opts.flight = flight;
    auto admin_or = obs::AdminServer::Start(std::move(opts));
    if (!admin_or.ok()) {
      Diag("cli", admin_or.status().ToString());
      return 1;
    }
    admin = std::move(admin_or).value();
    std::fprintf(stderr, "admin: listening on 127.0.0.1:%d\n",
                 admin->port());
  }
  if (ctx.any()) {
    session.SetObservability(ctx);
    tuner->SetObservability(ctx);
  }

  obs::Log::Global()->Info("cli", "tune start",
                           {{"app", app.name},
                            {"cluster", cluster},
                            {"datasize_gb", ds},
                            {"tuner", tuner->name()}});
  std::printf("Tuning %s @ %.0f GB on %s with %s...\n", app.name.c_str(), ds,
              cluster.c_str(), tuner->name().c_str());
  const auto result = tuner->Tune(&session, ds);
  // Under fault injection a final measurement can die too — retry for a
  // completed run (the retries draw from the deterministic fault stream,
  // so repeated invocations still print identical output).
  auto measure = [&](const sparksim::SparkConf& conf) {
    sparksim::AppRunResult run;
    for (int attempt = 0; attempt < 9; ++attempt) {
      run = session.MeasureFinal(conf, ds);
      if (!run.failed) break;
    }
    return run;
  };
  const sparksim::AppRunResult tuned_run = measure(result.best_conf);
  const sparksim::AppRunResult dflt_run = measure(
      session.space().Repair(session.space().DefaultConf()));
  const double tuned = tuned_run.total_seconds;
  const double dflt = dflt_run.total_seconds;
  obs::Log::Global()->Info("cli", "tune done",
                           {{"evaluations", result.evaluations},
                            {"tuned_seconds", tuned},
                            {"default_seconds", dflt}});
  std::printf("evaluations: %d | optimization time: %.1f simulated hours\n",
              result.evaluations, result.optimization_seconds / 3600.0);
  std::printf("tuned run: %.0f s%s | defaults: %.0f s%s | improvement %.1fx\n",
              tuned, tuned_run.failed ? " (failed)" : "", dflt,
              dflt_run.failed ? " (failed)" : "", dflt / tuned);
  if (sim.faults().enabled()) {
    const sparksim::FaultStats& fs = sim.fault_stats();
    std::printf(
        "faults(%s, seed %llu): %llu executor losses | %llu stragglers | "
        "%llu fetch failures | %llu app kills | %d failed evals\n",
        flags.faults.c_str(),
        static_cast<unsigned long long>(flags.fault_seed),
        static_cast<unsigned long long>(fs.executor_losses),
        static_cast<unsigned long long>(fs.stragglers),
        static_cast<unsigned long long>(fs.fetch_failures),
        static_cast<unsigned long long>(fs.app_kills),
        result.failed_evaluations);
    if (ctx.metrics != nullptr) {
      metrics
          .GetCounter("locat_sim_faults_executor_loss_total",
                      "Injected executor-loss events")
          ->Increment(static_cast<double>(fs.executor_losses));
      metrics
          .GetCounter("locat_sim_faults_straggler_total",
                      "Injected straggler events")
          ->Increment(static_cast<double>(fs.stragglers));
      metrics
          .GetCounter("locat_sim_faults_fetch_failure_total",
                      "Injected fetch-failure stage retries")
          ->Increment(static_cast<double>(fs.fetch_failures));
      metrics
          .GetCounter("locat_sim_faults_app_kill_total",
                      "Injected hard application kills")
          ->Increment(static_cast<double>(fs.app_kills));
      metrics
          .GetCounter("locat_sim_faults_failed_runs_total",
                      "Simulated app runs that ended failed")
          ->Increment(static_cast<double>(fs.failed_runs));
    }
    obs::EmitPhase(
        ctx.observer, tuner->name(), "faults",
        {{"executor_losses", static_cast<double>(fs.executor_losses)},
         {"stragglers", static_cast<double>(fs.stragglers)},
         {"fetch_failures", static_cast<double>(fs.fetch_failures)},
         {"app_kills", static_cast<double>(fs.app_kills)},
         {"failed_runs", static_cast<double>(fs.failed_runs)},
         {"failed_evals", result.failed_evaluations}});
  }
  std::printf("linalg: %s dispatch\n", math::kern::ActiveBackendName());
  obs::EmitPhase(
      ctx.observer, tuner->name(), "linalg",
      {{"backend_id", static_cast<int>(math::kern::ActiveBackend())}});
  std::printf("\n%s\n", result.best_conf.ToString().c_str());

  if (!flags.trace_path.empty()) {
    std::ofstream os(flags.trace_path);
    if (!os) {
      Diag("cli", "cannot write " + flags.trace_path);
      return 1;
    }
    tracer.WriteChromeTrace(os);
    std::printf("trace: %s (%zu events)\n", flags.trace_path.c_str(),
                tracer.event_count());
  }
  if (!flags.metrics_path.empty()) {
    std::ofstream os(flags.metrics_path);
    if (!os) {
      Diag("cli", "cannot write " + flags.metrics_path);
      return 1;
    }
    metrics.WritePrometheus(os);
    std::printf("metrics: %s\n", flags.metrics_path.c_str());
  }
  if (!flags.telemetry_path.empty()) {
    telemetry_os.close();
    std::printf("telemetry: %s\n", flags.telemetry_path.c_str());
  }
  return 0;
}

/// Per-app state the CLI keeps across registry evictions: the profile and
/// the simulator. The sim survives eviction on purpose — its noise stream
/// is "the cluster", which does not forget an app; only the tuner state
/// (session + service, owned by the backend below) is rebuilt on
/// re-admission.
struct ServeHost {
  sparksim::SparkSqlApp app;
  std::unique_ptr<sparksim::ClusterSimulator> sim;
};

/// Registry backend for `locat serve`: owns the tuning session and
/// service, borrows the CLI-owned host. The registry wires the service's
/// observability at admission; the session is wired here.
class ServeBackend : public core::AppBackend {
 public:
  ServeBackend(ServeHost* host, const core::OnlineTuningService::Options& opts,
               const obs::ObsContext& ctx)
      : host_(host),
        session_(std::make_unique<core::TuningSession>(host->sim.get(),
                                                       host->app)) {
    session_->SetObservability(ctx);
    service_ =
        std::make_unique<core::OnlineTuningService>(session_.get(), opts);
  }
  core::OnlineTuningService* service() override { return service_.get(); }
  const sparksim::SparkSqlApp& app() const override { return host_->app; }

 private:
  ServeHost* host_;
  std::unique_ptr<core::TuningSession> session_;
  std::unique_ptr<core::OnlineTuningService> service_;
};

/// `locat serve`: the production loop of ROADMAP item 1 as a demo — a
/// ServiceRegistry of per-app OnlineTuningServices, concurrent app
/// drivers (--serve-threads), a deterministic schedule of data sizes, and
/// (with --admin-port) a live admin endpoint to scrape while it runs.
/// Served confs are bit-identical for any --serve-threads value; in
/// single-threaded mode the round lines and the "serving:" summary line
/// are byte-identical to the sequential pre-registry loop.
int CmdServe(const std::string& cluster, std::vector<std::string> app_names,
             const ObsFlags& flags, const sparksim::FaultSpec& faults,
             obs::FlightRecorder* flight) {
  if (app_names.empty()) app_names = {"TPC-DS", "TPC-H"};

  obs::MetricsRegistry metrics;
  obs::ObsContext ctx;
  ctx.metrics = &metrics;
  std::ofstream telemetry_os;
  std::unique_ptr<obs::JsonlSink> observer;
  if (!flags.telemetry_path.empty()) {
    telemetry_os.open(flags.telemetry_path);
    if (!telemetry_os) {
      Diag("cli", "cannot write " + flags.telemetry_path);
      return 1;
    }
    observer = std::make_unique<obs::JsonlSink>(&telemetry_os);
    ctx.observer = observer.get();
  }

  std::map<std::string, ServeHost> hosts;
  for (const std::string& name : app_names) {
    if (hosts.count(name) != 0) continue;
    ServeHost h;
    h.app = harness::MakeApp(name);
    h.sim = std::make_unique<sparksim::ClusterSimulator>(
        harness::MakeCluster(cluster), 21 + flags.seed);
    if (flight != nullptr) h.sim->set_flight_recorder(flight);
    if (faults.enabled()) h.sim->set_faults(faults);
    hosts.emplace(name, std::move(h));
  }

  core::OnlineTuningService::Options sopts;
  // Demo-sized budgets: serve is about the serving loop, not tuning
  // quality — cold start in seconds, warm adaptation near-instant.
  sopts.tuner.n_qcsa = 8;
  sopts.tuner.n_iicp = 6;
  sopts.tuner.lhs_init = 2;
  sopts.tuner.min_iterations = 3;
  sopts.tuner.max_iterations = 5;
  sopts.tuner.warm_iterations = 3;
  sopts.tuner.candidates = 60;
  sopts.tuner.seed = 31 + flags.seed;

  core::ServiceRegistry::Options ropts;
  ropts.capacity = flags.registry_cap;
  ropts.ttl_ticks = flags.registry_ttl;
  ropts.warm_start = flags.warm_start;
  ropts.tune_threads = flags.serve_threads;
  core::ServiceRegistry registry(
      [&hosts, &sopts, &ctx](const std::string& name)
          -> std::unique_ptr<core::AppBackend> {
        const auto it = hosts.find(name);
        if (it == hosts.end()) return nullptr;
        return std::make_unique<ServeBackend>(&it->second, sopts, ctx);
      },
      ropts);
  registry.SetObservability(ctx);

  auto statusz_table = [&registry]() {
    std::ostringstream os;
    TablePrinter tp({"app", "recs", "reuse", "tunes", "fails", "sizes",
                     "p50 (ms)", "p99 (ms)", "last conf"});
    for (const core::ServiceRegistry::AppRow& row : registry.AppRows()) {
      const auto& snap = row.snapshot;
      // Registry reuse hits never enter the service, but each one is
      // a served (reused) recommendation; merging reproduces the counts
      // the registry-less loop reported.
      const int extra = static_cast<int>(row.hits + row.coalesced);
      std::string sizes;
      for (double ds : snap.tuned_sizes) {
        if (!sizes.empty()) sizes += ',';
        sizes += TablePrinter::Num(ds, 0);
      }
      // SparkPropertiesToString is one property per line; flatten it so
      // the table row stays a single line.
      std::string conf = snap.last_conf;
      std::replace(conf.begin(), conf.end(), '\n', ' ');
      tp.AddRow({snap.app, std::to_string(snap.recommendations + extra),
                 std::to_string(snap.reuses + extra),
                 std::to_string(snap.tuning_passes),
                 std::to_string(snap.failed_reports), sizes,
                 TablePrinter::Num(snap.recommend_p50_s * 1e3, 1),
                 TablePrinter::Num(snap.recommend_p99_s * 1e3, 1),
                 conf.substr(0, 48)});
    }
    tp.Print(os);
    os << registry.RenderStatusTable();
    return os.str();
  };

  std::unique_ptr<obs::AdminServer> admin;
  if (flags.admin_port >= 0) {
    obs::AdminServer::Options opts;
    opts.port = flags.admin_port;
    opts.metrics = &metrics;
    opts.flight = flight;
    opts.statusz = statusz_table;
    auto admin_or = obs::AdminServer::Start(std::move(opts));
    if (!admin_or.ok()) {
      Diag("cli", admin_or.status().ToString());
      return 1;
    }
    admin = std::move(admin_or).value();
    // First line of output, parseable ("admin: listening on HOST:PORT") so
    // scripts scraping an ephemeral port can pick it up while we serve.
    std::printf("admin: listening on 127.0.0.1:%d\n", admin->port());
    std::fflush(stdout);
  }

  obs::Log::Global()->Info(
      "serve", "serving started",
      {{"apps", static_cast<double>(app_names.size())},
       {"rounds", flags.rounds},
       {"cluster", cluster}});

  // Deterministic data-size schedule. Adjacent pairs (100/120, 300/330)
  // sit within the service's 25% reuse gap, so the loop exercises both
  // instant reuse and warm re-tunes.
  static const double kSizes[] = {100.0, 120.0, 300.0, 330.0, 500.0};
  std::ofstream dump_os;
  if (!flags.dump_confs_path.empty()) {
    dump_os.open(flags.dump_confs_path);
    if (!dump_os) {
      Diag("cli", "cannot write " + flags.dump_confs_path);
      return 1;
    }
  }
  int ok_runs = 0;
  int failed_runs = 0;
  // The round drivers interleave apps through the registry (concurrent
  // tenants); stdout stays deterministic because the round lines print
  // after the barrier, in app order, from per-app slots.
  common::ThreadPool drivers(flags.serve_threads);
  struct RoundResult {
    bool served = false;
    double ds = 0.0;
    double seconds = 0.0;
    bool failed = false;
    sparksim::SparkConf conf;
  };
  for (int r = 0; r < flags.rounds; ++r) {
    if (admin != nullptr && admin->quit_requested()) break;
    std::vector<RoundResult> round(app_names.size());
    drivers.ParallelForEach(app_names.size(), [&](size_t ai) {
      const std::string& name = app_names[ai];
      const double ds = kSizes[(static_cast<size_t>(r) + ai) % 5];
      const auto conf_or = registry.Lookup(name, ds);
      if (!conf_or.ok()) {
        Diag("serve", conf_or.status().ToString());
        return;
      }
      const sparksim::SparkConf conf = *conf_or;
      ServeHost& host = hosts.at(name);
      // The production run itself: happens anyway, reported back as a
      // free observation (or as a failure).
      const auto run = host.sim->RunApp(host.app, conf, ds);
      const Status report =
          run.failed
              ? registry.ReportFailedRun(name, ds, conf, run.total_seconds)
              : registry.ReportRun(name, ds, conf, run.total_seconds);
      if (!report.ok()) Diag("serve", report.ToString());
      obs::Log::Global()->Info(
          "serve", run.failed ? "production run failed" : "production run",
          {{"app", name},
           {"round", r},
           {"datasize_gb", ds},
           {"seconds", run.total_seconds}});
      round[ai] = {true, ds, run.total_seconds, run.failed, conf};
    });
    // Tick barrier: all cross-app registry state (LRU eviction, the
    // transfer store warm starts read) commits here, in deterministic
    // order — request timing inside the round can never affect it.
    registry.AdvanceTick();
    for (size_t ai = 0; ai < app_names.size(); ++ai) {
      const RoundResult& res = round[ai];
      if (!res.served) continue;
      if (res.failed) {
        ++failed_runs;
      } else {
        ++ok_runs;
      }
      std::printf("round %2d %-12s @ %3.0f GB: %6.0f s%s\n", r,
                  app_names[ai].c_str(), res.ds, res.seconds,
                  res.failed ? "  FAILED" : "");
      if (dump_os.is_open()) {
        dump_os << r << ' ' << app_names[ai] << ' ' << res.ds;
        char num[32];
        for (double v : res.conf.values()) {
          std::snprintf(num, sizeof(num), " %.17g", v);
          dump_os << num;
        }
        dump_os << '\n';
      }
    }
    std::fflush(stdout);
  }
  if (dump_os.is_open()) {
    dump_os.close();
    std::printf("confs: %s\n", flags.dump_confs_path.c_str());
  }

  // Summary: one aggregate line plus the same table /statusz serves.
  int recs = 0;
  int reuses = 0;
  int tunes = 0;
  double opt_seconds = 0.0;
  for (const core::ServiceRegistry::AppRow& row : registry.AppRows()) {
    const auto& snap = row.snapshot;
    const int extra = static_cast<int>(row.hits + row.coalesced);
    recs += snap.recommendations + extra;
    reuses += snap.reuses + extra;
    tunes += snap.tuning_passes;
    opt_seconds += snap.optimization_seconds;
    obs::EmitPhase(ctx.observer, snap.app, "serving",
                   {{"recommendations", snap.recommendations + extra},
                    {"reuses", snap.reuses + extra},
                    {"tuning_passes", snap.tuning_passes},
                    {"failed_reports", snap.failed_reports},
                    {"recommend_p50_s", snap.recommend_p50_s},
                    {"recommend_p99_s", snap.recommend_p99_s}});
  }
  std::printf(
      "serving: %d recommendations (%d reused, %d tuned) | %d ok runs | "
      "%d failed runs | optimization %.1f simulated hours\n",
      recs, reuses, tunes, ok_runs, failed_runs, opt_seconds / 3600.0);
  std::printf("%s", statusz_table().c_str());
  if (!flags.metrics_path.empty()) {
    std::ofstream os(flags.metrics_path);
    if (!os) {
      Diag("cli", "cannot write " + flags.metrics_path);
      return 1;
    }
    metrics.WritePrometheus(os);
    std::printf("metrics: %s\n", flags.metrics_path.c_str());
  }
  std::fflush(stdout);

  if (admin != nullptr && flags.serve_linger > 0.0 &&
      !admin->quit_requested()) {
    // Stay scrapeable until /quitz or the deadline — how CI scrapes a
    // *live* process rather than a snapshot.
    admin->WaitForQuit(flags.serve_linger);
  }
  if (admin != nullptr) admin->Stop();
  obs::Log::Global()->Info("serve", "serving stopped",
                           {{"ok_runs", ok_runs},
                            {"failed_runs", failed_runs}});
  return 0;
}

int CmdCheckMetrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Diag("cli", "cannot read " + path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto status = obs::CheckPrometheusExposition(buf.str());
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("%s: ok\n", path.c_str());
  return 0;
}

int CmdReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = obs::ParseTelemetry(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  const auto report_or = obs::SummarizeTelemetry(parsed.value());
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 report_or.status().message().c_str());
    return 1;
  }
  const obs::TelemetryReport& r = report_or.value();
  // Pure serving telemetry (no iteration records) prints serving lines only.
  if (r.total.events > 0) {
    if (!r.tuner.empty()) std::printf("tuner: %s\n", r.tuner.c_str());
    // "fit" and "acq" split the tuner's own per-iteration overhead into
    // surrogate fitting and acquisition scoring (real wall time, not
    // simulated seconds); "charged" remains the simulated evaluation cost.
    // "refits" counts the EI-MCMC refits behind "fit".
    TablePrinter tp({"phase", "evals", "charged (s)", "share", "refits",
                     "fit (s)", "acq (s)", "best (s)"});
    for (const auto& p : r.phases) {
      tp.AddRow({p.phase, std::to_string(p.events),
                 TablePrinter::Num(p.eval_seconds, 1),
                 TablePrinter::Num(100.0 * p.eval_seconds /
                                       std::max(1e-12, r.total.eval_seconds),
                                   1) +
                     "%",
                 std::to_string(p.refits), TablePrinter::Num(p.fit_seconds, 3),
                 TablePrinter::Num(p.acq_seconds, 3),
                 p.best_seconds > 0.0 ? TablePrinter::Num(p.best_seconds, 1)
                                      : ""});
    }
    tp.AddRow({"total", std::to_string(r.total.events),
               TablePrinter::Num(r.total.eval_seconds, 1), "100.0%",
               std::to_string(r.total.refits),
               TablePrinter::Num(r.total.fit_seconds, 3),
               TablePrinter::Num(r.total.acq_seconds, 3), ""});
    tp.Print(std::cout);
    if (r.summaries > 0) {
      std::printf(
          "meter: %.1f s over %.0f evaluations | best %.1f s | "
          "phase sum vs meter: %+.2f%%\n",
          r.meter_seconds, r.meter_evaluations, r.meter_best_seconds,
          r.MeterDrift());
    }
    if (r.has_calibration) {
      // How the surrogate's predicted ln-seconds (mean, sd) at each
      // proposal compare with the run it produced; failed runs excluded.
      for (const auto& p : r.phases) {
        if (p.calibrated == 0) continue;
        std::printf(
            "calibration: %-9s n %d | mean |z| %.2f | within 1 sd %.1f%% / "
            "2 sd %.1f%%\n",
            p.phase.c_str(), p.calibrated, p.abs_z_sum / p.calibrated,
            100.0 * p.within_1sd / p.calibrated,
            100.0 * p.within_2sd / p.calibrated);
      }
    }
    if (const int n = r.iicp_own + r.iicp_transferred; n > 0) {
      std::printf(
          "iicp: %d reduction(s), %d from own samples, %d transferred | "
          "mean %.1f params -> %.1f latent dims\n",
          n, r.iicp_own, r.iicp_transferred, r.iicp_params_sum / n,
          r.iicp_latent_sum / n);
    }
    if (r.linalg_backend_id >= 0.0) {
      // The fit/acq columns are where the math kernels run (GP Gram +
      // Cholesky under "fit", PredictBatch under "acq"), so their split is
      // the kernel-time share of the tuner's own overhead.
      const double kern_seconds = r.total.fit_seconds + r.total.acq_seconds;
      const auto backend = static_cast<math::kern::Backend>(
          static_cast<int>(r.linalg_backend_id));
      std::printf(
          "linalg: %s dispatch | %.3f s in math kernels "
          "(fit %.1f%% / acq %.1f%%)\n",
          math::kern::BackendName(backend), kern_seconds,
          100.0 * r.total.fit_seconds / std::max(1e-12, kern_seconds),
          100.0 * r.total.acq_seconds / std::max(1e-12, kern_seconds));
    }
  }
  for (const obs::Event& s : r.serving) {  // source: the app name
    std::printf(
        "serving: %-12s %.0f recommendations (%.0f reused, %.0f tuned) | "
        "%.0f failed runs | recommend p50 %.1f ms / p99 %.1f ms\n",
        s.source.c_str(), s.Num("recommendations"), s.Num("reuses"),
        s.Num("tuning_passes"), s.Num("failed_reports"),
        s.Num("recommend_p50_s") * 1e3, s.Num("recommend_p99_s") * 1e3);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Split argv into positionals and --flag value pairs (tune flags).
  std::vector<std::string> pos;
  ObsFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      if (!ParseNumber(value(), &flags.seed)) return Usage();
    } else if (arg == "--threads") {
      int threads = 0;
      if (!ParseNumber(value(), &threads) || threads < 0) return Usage();
      common::ThreadPool::SetGlobalThreads(threads);
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.trace_path = v;
    } else if (arg == "--metrics") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.metrics_path = v;
    } else if (arg == "--telemetry") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.telemetry_path = v;
    } else if (arg == "--faults") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.faults = v;
    } else if (arg == "--fault-seed") {
      if (!ParseNumber(value(), &flags.fault_seed)) return Usage();
    } else if (arg == "--admin-port") {
      if (!ParseNumber(value(), &flags.admin_port) || flags.admin_port < 0 ||
          flags.admin_port > 65535) {
        return Usage();
      }
    } else if (arg == "--log-level") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.log_level = v;
    } else if (arg == "--log-file") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.log_file = v;
    } else if (arg == "--flight") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.flight_path = v;
    } else if (arg == "--rounds") {
      if (!ParseNumber(value(), &flags.rounds) || flags.rounds < 1) {
        return Usage();
      }
    } else if (arg == "--serve-linger") {
      if (!ParseNumber(value(), &flags.serve_linger) ||
          !std::isfinite(flags.serve_linger) || flags.serve_linger < 0.0) {
        return Usage();
      }
    } else if (arg == "--serve-threads") {
      if (!ParseNumber(value(), &flags.serve_threads) ||
          flags.serve_threads < 1) {
        return Usage();
      }
    } else if (arg == "--registry-cap") {
      if (!ParseNumber(value(), &flags.registry_cap)) return Usage();
    } else if (arg == "--registry-ttl") {
      if (!ParseNumber(value(), &flags.registry_ttl) ||
          flags.registry_ttl < 0) {
        return Usage();
      }
    } else if (arg == "--warm-start") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "on") != 0 &&
                           std::strcmp(v, "off") != 0)) {
        return Usage();
      }
      flags.warm_start = (std::strcmp(v, "on") == 0);
    } else if (arg == "--dump-confs") {
      const char* v = value();
      if (v == nullptr) return Usage();
      flags.dump_confs_path = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      pos.push_back(arg);
    }
  }
  const auto faults =
      sparksim::FaultSpec::FromName(flags.faults, flags.fault_seed);
  if (!faults.ok()) {
    std::fprintf(stderr, "%s\n", faults.status().ToString().c_str());
    return Usage();
  }
  if (pos.empty()) return Usage();
  obs::FlightRecorder* flight = SetupProcessObs(flags);
  const std::string& cmd = pos[0];
  if (cmd == "catalog") return CmdCatalog();
  if (cmd == "apps") return CmdApps();
  double ds = 0.0;
  // simulate, sweep, qcsa and tune all start with <app> <cluster>.
  const bool takes_app = cmd == "simulate" || cmd == "sweep" ||
                         cmd == "qcsa" || cmd == "tune";
  if (takes_app && pos.size() >= 3 &&
      (!KnownApp(pos[1]) || !KnownCluster(pos[2]))) {
    return Usage();
  }
  if (cmd == "simulate" && pos.size() >= 4) {
    if (!ParseDatasize(pos[3], &ds)) return Usage();
    return CmdSimulate(pos[1], pos[2], ds);
  }
  if (cmd == "sweep" && pos.size() >= 5) {
    if (!ParseDatasize(pos[3], &ds)) return Usage();
    return CmdSweep(pos[1], pos[2], ds, pos[4]);
  }
  if (cmd == "qcsa" && pos.size() >= 3) {
    int runs = 30;
    if (pos.size() >= 4 &&
        (!ParseNumber(pos[3].c_str(), &runs) || runs < 2)) {
      return Usage();
    }
    return CmdQcsa(pos[1], pos[2], runs);
  }
  if (cmd == "tune" && pos.size() >= 4) {
    const std::string tuner = pos.size() >= 5 ? pos[4] : "LOCAT";
    if (!ParseDatasize(pos[3], &ds) || !KnownTuner(tuner)) return Usage();
    return CmdTune(pos[1], pos[2], ds, tuner, flags, *faults, flight);
  }
  if (cmd == "serve" && pos.size() >= 2) {
    if (!KnownCluster(pos[1]) ||
        !std::all_of(pos.begin() + 2, pos.end(), KnownApp)) {
      return Usage();
    }
    return CmdServe(pos[1],
                    std::vector<std::string>(pos.begin() + 2, pos.end()),
                    flags, *faults, flight);
  }
  if (cmd == "report" && pos.size() >= 2) {
    return CmdReport(pos[1]);
  }
  if (cmd == "check-metrics" && pos.size() >= 2) {
    return CmdCheckMetrics(pos[1]);
  }
  return Usage();
}
