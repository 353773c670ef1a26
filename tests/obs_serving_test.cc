// Serving-stack observability: labeled metric families and their
// Prometheus/JSON exposition, the exposition self-check, histogram
// quantiles, lock-free counter/histogram concurrency, the structured
// logger, the flight recorder (wraparound, dump-on-fault, crash-signal
// dump) and the embedded admin HTTP server.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/online_service.h"
#include "core/tuning.h"
#include "obs/admin_server.h"
#include "obs/flight_recorder.h"
#include "obs/labels.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// A flight-ring record: `value` rides as the event's first field.
obs::Event FlightEv(const char* kind, const char* level, const char* component,
                    std::string message, double value = 0.0) {
  obs::Event ev(kind, component, std::move(message), {{"value", value}});
  ev.level = level;
  return ev;
}

// ---------------------------------------------------------------- labels

TEST(ObsLabelsTest, CanonicalizesOrderAndDuplicates) {
  const obs::LabelSet a({{"b", "2"}, {"a", "1"}});
  const obs::LabelSet b({{"a", "1"}, {"b", "2"}});
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.ToPrometheus(), "{a=\"1\",b=\"2\"}");
  // Duplicate keys keep the last value given.
  const obs::LabelSet dup({{"k", "old"}, {"k", "new"}});
  EXPECT_EQ(dup.size(), 1u);
  EXPECT_EQ(dup.ToPrometheus(), "{k=\"new\"}");
}

TEST(ObsLabelsTest, PrometheusFormAndEscaping) {
  const obs::LabelSet labels({{"app", "tpc\"ds"}, {"path", "a\\b\nc"}});
  const std::string prom = labels.ToPrometheus();
  EXPECT_EQ(prom, "{app=\"tpc\\\"ds\",path=\"a\\\\b\\nc\"}");
  EXPECT_EQ(obs::LabelSet().ToPrometheus(), "");
  // The `le` overload renders braces even for the empty set.
  EXPECT_EQ(obs::LabelSet().ToPrometheus("le", "+Inf"), "{le=\"+Inf\"}");
  EXPECT_EQ(obs::LabelSet({{"a", "1"}}).ToPrometheus("le", "10"),
            "{a=\"1\",le=\"10\"}");
}

// ------------------------------------------------- exposition self-check

TEST(ObsExpositionCheckTest, AcceptsWellFormedPayloads) {
  EXPECT_TRUE(obs::CheckPrometheusExposition("").ok());
  const std::string text =
      "# HELP runs_total Total runs, with \\\\ and \\n escapes.\n"
      "# TYPE runs_total counter\n"
      "runs_total{app=\"tpc\\\"ds\"} 3\n"
      "runs_total{app=\"other\"} 0\n"
      "# TYPE lat_seconds histogram\n"
      "lat_seconds_bucket{le=\"0.1\"} 1\n"
      "lat_seconds_bucket{le=\"1\"} 4\n"
      "lat_seconds_bucket{le=\"+Inf\"} 5\n"
      "lat_seconds_sum 2.5\n"
      "lat_seconds_count 5\n";
  const auto status = obs::CheckPrometheusExposition(text);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ObsExpositionCheckTest, RejectsMalformedPayloads) {
  // Sample without a preceding # TYPE.
  EXPECT_FALSE(obs::CheckPrometheusExposition("orphan_total 1\n").ok());
  // Bad metric name.
  EXPECT_FALSE(obs::CheckPrometheusExposition("# TYPE 9bad counter\n9bad 1\n")
                   .ok());
  // Non-numeric sample value.
  EXPECT_FALSE(obs::CheckPrometheusExposition(
                   "# TYPE a counter\na{x=\"1\"} nope\n")
                   .ok());
  // Unescaped quote inside a label value.
  EXPECT_FALSE(
      obs::CheckPrometheusExposition("# TYPE a counter\na{x=\"a\"b\"} 1\n")
          .ok());
  // Histogram without the +Inf bucket.
  EXPECT_FALSE(obs::CheckPrometheusExposition(
                   "# TYPE h histogram\nh_bucket{le=\"1\"} 2\n"
                   "h_sum 1\nh_count 2\n")
                   .ok());
  // Histogram whose cumulative buckets decrease.
  EXPECT_FALSE(obs::CheckPrometheusExposition(
                   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n"
                   "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n")
                   .ok());
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(obs::CheckPrometheusExposition(
                   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\n"
                   "h_sum 1\nh_count 4\n")
                   .ok());
  // Duplicate # TYPE for one metric.
  EXPECT_FALSE(obs::CheckPrometheusExposition(
                   "# TYPE a counter\na 1\n# TYPE a counter\na 2\n")
                   .ok());
}

// ------------------------------------------------------------- families

TEST(ObsFamiliesTest, WithLabelsReturnsStableCachedChildren) {
  obs::MetricsRegistry registry;
  obs::CounterFamily* fam =
      registry.GetCounterFamily("locat_runs_total", "Runs by app and status");
  obs::Counter* a =
      fam->WithLabels(obs::LabelSet({{"app", "tpcds"}, {"status", "ok"}}));
  // Same pairs in a different order resolve to the same child.
  obs::Counter* b =
      fam->WithLabels(obs::LabelSet({{"status", "ok"}, {"app", "tpcds"}}));
  EXPECT_EQ(a, b);
  obs::Counter* failed =
      fam->WithLabels(obs::LabelSet({{"app", "tpcds"}, {"status", "failed"}}));
  EXPECT_NE(a, failed);
  EXPECT_EQ(fam->Children().size(), 2u);
  a->Increment(3.0);
  failed->Increment();
  // Registering the same family name returns the same family.
  EXPECT_EQ(registry.GetCounterFamily("locat_runs_total"), fam);

  std::ostringstream os;
  registry.WritePrometheus(os);
  const std::string text = os.str();
  EXPECT_TRUE(
      Contains(text, "locat_runs_total{app=\"tpcds\",status=\"ok\"} 3"));
  EXPECT_TRUE(
      Contains(text, "locat_runs_total{app=\"tpcds\",status=\"failed\"} 1"));
  const auto check = obs::CheckPrometheusExposition(text);
  EXPECT_TRUE(check.ok()) << check.ToString();
}

TEST(ObsFamiliesTest, ExpositionEscapesHelpAndLabelValues) {
  obs::MetricsRegistry registry;
  registry.GetCounter("plain_total", "Help with \\ backslash\nand newline");
  registry.GetCounterFamily("labeled_total", "Labeled")
      ->WithLabels(obs::LabelSet({{"q", "say \"hi\"\nbye\\"}}))
      ->Increment();
  std::ostringstream os;
  registry.WritePrometheus(os);
  const std::string text = os.str();
  EXPECT_TRUE(Contains(
      text, "# HELP plain_total Help with \\\\ backslash\\nand newline"));
  EXPECT_TRUE(
      Contains(text, "labeled_total{q=\"say \\\"hi\\\"\\nbye\\\\\"} 1"));
  const auto check = obs::CheckPrometheusExposition(text);
  EXPECT_TRUE(check.ok()) << check.ToString();
}

TEST(ObsFamiliesTest, HistogramFamilyExposesBucketsAndJsonQuantiles) {
  obs::MetricsRegistry registry;
  obs::HistogramFamily* fam = registry.GetHistogramFamily(
      "lat_seconds", "Latency", {0.1, 1.0, 10.0});
  obs::Histogram* h = fam->WithLabels(obs::LabelSet({{"app", "join"}}));
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(0.6);
  h->Observe(5.0);

  std::ostringstream prom;
  registry.WritePrometheus(prom);
  const std::string text = prom.str();
  EXPECT_TRUE(Contains(text, "lat_seconds_bucket{app=\"join\",le=\"0.1\"} 1"));
  EXPECT_TRUE(Contains(text, "lat_seconds_bucket{app=\"join\",le=\"1\"} 3"));
  EXPECT_TRUE(
      Contains(text, "lat_seconds_bucket{app=\"join\",le=\"+Inf\"} 4"));
  EXPECT_TRUE(Contains(text, "lat_seconds_count{app=\"join\"} 4"));
  const auto check = obs::CheckPrometheusExposition(text);
  EXPECT_TRUE(check.ok()) << check.ToString();

  std::ostringstream json;
  registry.WriteJson(json);
  EXPECT_TRUE(Contains(json.str(), "\"families\""));
  EXPECT_TRUE(Contains(json.str(), "\"p50\""));
  EXPECT_TRUE(Contains(json.str(), "\"p99\""));
}

TEST(ObsQuantileTest, InterpolatesWithinBuckets) {
  obs::Histogram h("q_seconds", "", {1.0, 2.0, 4.0});
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.Observe(1.5);  // all in (1, 2]
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // Everything below 2.0 => p99 still inside that bucket.
  EXPECT_LE(h.Quantile(0.99), 2.0);
  h.Observe(100.0);  // one sample in the +Inf bucket
  // The +Inf bucket reports the largest finite bound.
  EXPECT_EQ(h.Quantile(1.0), 4.0);
}

// ----------------------------------------------------------- concurrency

TEST(ObsConcurrencyTest, CountersHistogramsAndFamiliesUnderContention) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("contended_total");
  obs::Histogram* hist =
      registry.GetHistogram("contended_seconds", "", {0.5, 1.0, 2.0});
  obs::CounterFamily* fam = registry.GetCounterFamily("contended_by");

  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::atomic<bool> stop{false};
  // A reader exporting concurrently must never crash or produce a payload
  // that fails the self-check.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::ostringstream os;
      registry.WritePrometheus(os);
      const auto check = obs::CheckPrometheusExposition(os.str());
      ASSERT_TRUE(check.ok()) << check.ToString();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      obs::Counter* child = fam->WithLabels(
          obs::LabelSet({{"thread", std::to_string(t % 2)}}));
      for (int i = 0; i < kOps; ++i) {
        counter->Increment();
        hist->Observe(0.25 * ((t + i) % 12));
        child->Increment();
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_DOUBLE_EQ(counter->value(), double(kThreads) * kOps);
  EXPECT_EQ(hist->count(), uint64_t(kThreads) * kOps);
  uint64_t bucket_total = 0;
  for (uint64_t c : hist->bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist->count());
  double family_total = 0.0;
  for (const auto& [labels, child] : fam->Children()) {
    family_total += child->value();
  }
  EXPECT_DOUBLE_EQ(family_total, double(kThreads) * kOps);
}

// Concurrent tunes of `locat serve` share one telemetry sink: every line
// must come out whole.
TEST(ObsConcurrencyTest, JsonlSinkKeepsConcurrentLinesWhole) {
  std::ostringstream os;
  obs::JsonlSink sink(&os);
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      const std::string tuner = std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        core::EmitSimpleIteration(&sink, tuner, "lhs", i, 100.0, 1.5, 2.5,
                                  2.5, true);
      }
    });
  }
  for (auto& w : writers) w.join();
  const auto parsed = obs::ParseTelemetry(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), size_t{kThreads} * kOps);
  double charged = 0.0;
  for (const obs::Event& e : *parsed) charged += e.Num("eval_seconds");
  EXPECT_DOUBLE_EQ(charged, 1.5 * kThreads * kOps);
}

// -------------------------------------------------------------- logging

TEST(ObsLogTest, LevelsSinksAndStructuredFields) {
  obs::Log log;
  std::ostringstream os;
  log.SetJsonlSink(&os);
  log.Write(obs::LogLevel::kInfo, "test", "suppressed");  // level off
  EXPECT_EQ(os.str(), "");

  log.SetLevel(obs::LogLevel::kInfo);
  log.Debug("test", "below threshold");
  log.Info("test", "hello \"world\"", {{"n", 3}, {"who", "a\\b"}});
  EXPECT_EQ(log.written(), 1u);

  const auto parsed = obs::ParseTelemetry(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  const auto& rec = (*parsed)[0];
  EXPECT_EQ(rec.type, "log");
  EXPECT_EQ(rec.level, "info");
  EXPECT_EQ(rec.source, "test");
  EXPECT_EQ(rec.name, "hello \"world\"");
  EXPECT_GT(rec.t_ns, 0u);
  EXPECT_EQ(rec.Num("n"), 3.0);
  EXPECT_EQ(rec.Find("who")->str, "a\\b");
}

TEST(ObsLogTest, TeesIntoFlightRecorder) {
  obs::FlightRecorder recorder(16);
  obs::Log log;
  std::ostringstream os;
  log.SetJsonlSink(&os);
  log.SetFlightRecorder(&recorder);
  log.SetLevel(obs::LogLevel::kWarn);
  log.Warn("test", "something odd");
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].kind, "log");
  EXPECT_STREQ(events[0].level, "warn");
  EXPECT_STREQ(events[0].message, "something odd");
}

// ------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, KeepsOnlyTheLastCapacityEvents) {
  obs::FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    recorder.Record(
        FlightEv("log", "info", "test", "ev" + std::to_string(i), i));
  }
  EXPECT_EQ(recorder.total_recorded(), 20u);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The window holds exactly the last 8 events, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].value, double(12 + i));
  }
  std::ostringstream os;
  recorder.WriteJsonl(os);
  EXPECT_TRUE(Contains(os.str(), "\"message\":\"ev19\""));
  EXPECT_FALSE(Contains(os.str(), "\"message\":\"ev11\""));
}

TEST(FlightRecorderTest, TruncatesAndEscapesPayloads) {
  obs::FlightRecorder recorder(4);
  const std::string long_message(500, 'x');
  recorder.Record(FlightEv("log", "info", "test", long_message + "\"tail"));
  recorder.Record(FlightEv("log", "info", "test", "quote \" and \\ back"));
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(std::string(events[0].message).size(), long_message.size());
  std::ostringstream os;
  recorder.WriteJsonl(os);
  EXPECT_TRUE(Contains(os.str(), "quote \\\" and \\\\ back"));
}

TEST(FlightRecorderTest, DumpsOnFaultEvents) {
  const std::string path = ::testing::TempDir() + "flight_fault_dump.jsonl";
  std::remove(path.c_str());
  obs::FlightRecorder recorder(16);
  recorder.SetDumpOnFault(path);
  recorder.Record(FlightEv("log", "info", "test", "before the kill"));
  {
    std::ifstream probe(path);
    EXPECT_FALSE(probe.good());  // plain events do not dump
  }
  recorder.Record(FlightEv("fault", "warn", "sparksim", "oom_kill app=x", 3.0));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream dumped;
  dumped << in.rdbuf();
  EXPECT_TRUE(Contains(dumped.str(), "before the kill"));
  EXPECT_TRUE(Contains(dumped.str(), "oom_kill app=x"));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ConcurrentRecordingStaysConsistent) {
  constexpr size_t kCapacity = 64;
  obs::FlightRecorder recorder(kCapacity);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& ev : recorder.Snapshot()) {
        // Every snapshotted event must be fully published (never torn).
        ASSERT_STREQ(ev.kind, "log");
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        recorder.Record(FlightEv("log", "info", "test", "concurrent"));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(recorder.total_recorded(), uint64_t(kThreads) * kOps);
  EXPECT_LE(recorder.Snapshot().size(), kCapacity);
}

TEST(FlightRecorderSignalTest, CrashHandlerDumpsWindowOnAbort) {
  const std::string path = ::testing::TempDir() + "flight_crash_dump.jsonl";
  std::remove(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: install the global recorder + handlers, record context, die.
    obs::FlightRecorder* recorder = obs::FlightRecorder::InstallGlobal(32);
    obs::FlightRecorder::InstallCrashHandlers(path);
    recorder->Record(FlightEv("log", "info", "child", "about to crash", 7.0));
    ::raise(SIGABRT);
    ::_exit(0);  // unreachable
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  // SA_RESETHAND + re-raise: the child still dies of SIGABRT.
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream dumped;
  dumped << in.rdbuf();
  EXPECT_TRUE(Contains(dumped.str(), "about to crash"));
  EXPECT_TRUE(Contains(dumped.str(), "\"component\":\"child\""));
  std::remove(path.c_str());
}

// ----------------------------------------------------------- admin server

/// Minimal HTTP/1.0 GET against 127.0.0.1:port; returns the full response
/// (headers + body), "" on connect failure.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

TEST(AdminServerTest, ServesMetricsHealthStatusAndFlight) {
  obs::MetricsRegistry registry;
  registry.GetCounter("admin_test_total", "A counter")->Increment(5.0);
  registry.GetCounterFamily("admin_family_total", "Labeled")
      ->WithLabels(obs::LabelSet({{"app", "x"}}))
      ->Increment();
  obs::FlightRecorder recorder(8);
  recorder.Record(FlightEv("log", "info", "test", "flight line"));

  obs::AdminServer::Options options;
  options.port = 0;  // ephemeral
  options.metrics = &registry;
  options.flight = &recorder;
  options.statusz = [] { return std::string("app table here\n"); };
  auto server_or = obs::AdminServer::Start(std::move(options));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();
  ASSERT_GT(server->port(), 0);

  EXPECT_EQ(Body(HttpGet(server->port(), "/healthz")), "ok\n");

  const std::string metrics = Body(HttpGet(server->port(), "/metrics"));
  EXPECT_TRUE(Contains(metrics, "admin_test_total 5"));
  EXPECT_TRUE(Contains(metrics, "admin_family_total{app=\"x\"} 1"));
  const auto check = obs::CheckPrometheusExposition(metrics);
  EXPECT_TRUE(check.ok()) << check.ToString();

  EXPECT_EQ(Body(HttpGet(server->port(), "/statusz")), "app table here\n");
  EXPECT_TRUE(
      Contains(Body(HttpGet(server->port(), "/flightz")), "flight line"));
  EXPECT_TRUE(Contains(Body(HttpGet(server->port(), "/varz")), "\"counters\""));
  EXPECT_TRUE(Contains(HttpGet(server->port(), "/nope"), "404"));

  // A second scrape of /metrics shows the admin server dogfooding the
  // labeled request-counter family.
  const std::string again = Body(HttpGet(server->port(), "/metrics"));
  EXPECT_TRUE(Contains(
      again, "locat_admin_requests_total{code=\"200\",path=\"/healthz\"} 1"));

  EXPECT_FALSE(server->quit_requested());
  EXPECT_EQ(Body(HttpGet(server->port(), "/quitz")), "quitting\n");
  EXPECT_TRUE(server->quit_requested());
  EXPECT_TRUE(server->WaitForQuit(5.0));
  server->Stop();
}

TEST(AdminServerTest, StopWithoutTrafficIsClean) {
  obs::AdminServer::Options options;
  options.port = 0;
  auto server_or = obs::AdminServer::Start(std::move(options));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  // WaitForQuit times out when nobody hits /quitz.
  EXPECT_FALSE((*server_or)->WaitForQuit(0.05));
  (*server_or)->Stop();
}

// ------------------------------------------- service status & determinism

core::OnlineTuningService::Options SmallServiceOptions() {
  core::OnlineTuningService::Options opts;
  opts.tuner.n_qcsa = 8;
  opts.tuner.n_iicp = 6;
  opts.tuner.lhs_init = 2;
  opts.tuner.min_iterations = 3;
  opts.tuner.max_iterations = 5;
  opts.tuner.warm_iterations = 3;
  opts.tuner.candidates = 60;
  opts.tuner.seed = 31;
  return opts;
}

TEST(ObsServiceTest, SnapshotAndLabeledFamiliesTrackServing) {
  const auto app = workloads::HiBenchScan();
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 5);
  core::TuningSession session(&sim, app);
  core::OnlineTuningService service(&session, SmallServiceOptions());
  obs::MetricsRegistry registry;
  obs::ObsContext ctx;
  ctx.metrics = &registry;
  service.SetObservability(ctx);

  ASSERT_TRUE(service.RecommendedConf(100.0).ok());  // cold tune
  ASSERT_TRUE(service.RecommendedConf(110.0).ok());  // within gap: reuse
  ASSERT_TRUE(service.RecommendedConf(400.0).ok());  // warm tune

  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.app, app.name);
  EXPECT_EQ(snap.recommendations, 3);
  EXPECT_EQ(snap.reuses, 1);
  EXPECT_EQ(snap.tuning_passes, 2);
  EXPECT_EQ(snap.failed_reports, 0);
  EXPECT_EQ(snap.tuned_sizes.size(), 2u);
  EXPECT_EQ(snap.last_datasize_gb, 400.0);
  EXPECT_FALSE(snap.last_conf.empty());
  EXPECT_GT(snap.recommend_p99_s, 0.0);
  EXPECT_GE(snap.recommend_p99_s, snap.recommend_p50_s);

  std::ostringstream os;
  registry.WritePrometheus(os);
  const std::string text = os.str();
  EXPECT_TRUE(Contains(text, "locat_service_recommendations{app=\"" +
                                 app.name + "\",source=\"reuse\"} 1"));
  EXPECT_TRUE(Contains(text, "locat_service_recommendations{app=\"" +
                                 app.name + "\",source=\"tuned\"} 2"));
  EXPECT_TRUE(Contains(text, "locat_service_recommend_seconds_count{app=\"" +
                                 app.name + "\"} 3"));
  const auto check = obs::CheckPrometheusExposition(text);
  EXPECT_TRUE(check.ok()) << check.ToString();
}

TEST(ObsServiceTest, WiringObservabilityDoesNotChangeRecommendations) {
  const auto app = workloads::HiBenchScan();
  auto run = [&](bool wire) {
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 5);
    core::TuningSession session(&sim, app);
    core::OnlineTuningService service(&session, SmallServiceOptions());
    obs::MetricsRegistry registry;
    if (wire) {
      obs::ObsContext ctx;
      ctx.metrics = &registry;
      service.SetObservability(ctx);
    }
    std::string confs;
    for (double ds : {100.0, 110.0, 400.0}) {
      const auto conf = service.RecommendedConf(ds);
      confs += conf.ok() ? conf->ToString() : conf.status().ToString();
      confs += '\n';
    }
    return confs;
  };
  // Bit-identical recommendations with the full metrics stack on or off:
  // the serving instrumentation is purely observational.
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace locat
