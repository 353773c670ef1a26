#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/online_service.h"
#include "core/service_registry.h"
#include "obs/telemetry.h"
#include "sparksim/properties_io.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat::core {
namespace {

OnlineTuningService::Options TinyOptions() {
  OnlineTuningService::Options opts;
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

sparksim::SparkSqlApp AppByName(const std::string& name) {
  for (const auto& app : workloads::AllBenchmarks()) {
    if (app.name == name) return app;
  }
  ADD_FAILURE() << "unknown app " << name;
  return workloads::TpcH();
}

/// Deterministic per-app simulator seed: a function of the name alone, so
/// re-admitting an app recreates the identical backend.
uint64_t NameSeed(const std::string& name) {
  uint64_t h = 0;
  for (unsigned char c : name) h = h * 131 + c;
  return 700 + h % 1000;
}

/// Simulator + session + service stack per app, deterministic in the app
/// name alone.
class SimBackend : public AppBackend {
 public:
  explicit SimBackend(const std::string& name,
                      const OnlineTuningService::Options& opts)
      : app_(AppByName(name)),
        sim_(std::make_unique<sparksim::ClusterSimulator>(
            sparksim::X86Cluster(), NameSeed(name))),
        session_(std::make_unique<TuningSession>(sim_.get(), app_)),
        service_(std::make_unique<OnlineTuningService>(session_.get(), opts)) {
  }

  OnlineTuningService* service() override { return service_.get(); }
  const sparksim::SparkSqlApp& app() const override { return app_; }

 private:
  sparksim::SparkSqlApp app_;
  std::unique_ptr<sparksim::ClusterSimulator> sim_;
  std::unique_ptr<TuningSession> session_;
  std::unique_ptr<OnlineTuningService> service_;
};

ServiceRegistry::BackendFactory Factory(
    const OnlineTuningService::Options& opts) {
  return [opts](const std::string& name) -> std::unique_ptr<AppBackend> {
    return std::make_unique<SimBackend>(name, opts);
  };
}

/// Factory(opts) that also records the service each backend it creates
/// holds, by app name; an entry is valid while that app stays admitted.
ServiceRegistry::BackendFactory RecordingFactory(
    const OnlineTuningService::Options& opts,
    std::map<std::string, const OnlineTuningService*>* services) {
  return [opts, services](const std::string& name)
             -> std::unique_ptr<AppBackend> {
    auto backend = std::make_unique<SimBackend>(name, opts);
    (*services)[name] = backend->service();
    return backend;
  };
}

/// CPS-selected parameters of `app`'s live tuner (empty without IICP).
std::vector<int> SelectedParams(
    const std::map<std::string, const OnlineTuningService*>& services,
    const std::string& app) {
  const IicpResult* iicp = services.at(app)->tuner().iicp_result();
  return iicp != nullptr ? iicp->selected_params() : std::vector<int>{};
}

TEST(ServiceRegistryTest, ColdLookupAdmitsAndTunes) {
  ServiceRegistry registry(Factory(TinyOptions()));
  const auto conf = registry.Lookup("TPC-H", 100.0);
  ASSERT_TRUE(conf.ok()) << conf.status().ToString();

  const auto stats = registry.GetStats();
  EXPECT_EQ(stats.live_apps, 1u);
  EXPECT_EQ(stats.lookups_miss, 1u);
  EXPECT_EQ(stats.retunes_cold, 1u);
  EXPECT_EQ(stats.retunes_drift, 0u);

  // Within the reuse gap: a hit on the published plan, no new tuning pass.
  const auto again = registry.Lookup("TPC-H", 110.0);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *conf);
  EXPECT_EQ(registry.GetStats().lookups_hit, 1u);
  EXPECT_EQ(registry.GetStats().retunes_cold, 1u);

  // Far outside the gap: a drift re-tune, not a cold start.
  ASSERT_TRUE(registry.Lookup("TPC-H", 400.0).ok());
  EXPECT_EQ(registry.GetStats().retunes_drift, 1u);

  const auto row = registry.GetAppRow("TPC-H");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->snapshot.tuning_passes, 2);
  EXPECT_FALSE(row->warm_started);  // nothing to transfer from
}

TEST(ServiceRegistryTest, LookupRejectsBadArguments) {
  ServiceRegistry registry(Factory(TinyOptions()));
  EXPECT_EQ(registry.Lookup("TPC-H", 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Lookup("TPC-H", -3.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.GetStats().live_apps, 0u);

  ServiceRegistry broken(
      [](const std::string&) -> std::unique_ptr<AppBackend> {
        return nullptr;
      });
  EXPECT_EQ(broken.Lookup("TPC-H", 100.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceRegistryTest, ReportsForUnknownAppAreNotFound) {
  ServiceRegistry registry(Factory(TinyOptions()));
  sparksim::ConfigSpace space(sparksim::X86Cluster());
  const auto conf = space.Repair(space.DefaultConf());
  EXPECT_EQ(registry.ReportRun("ghost", 100.0, conf, 50.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.ReportFailedRun("ghost", 100.0, conf).code(),
            StatusCode::kNotFound);
}

TEST(ServiceRegistryTest, ConcurrentColdLookupsSingleFlight) {
  // N concurrent requests for the same never-seen app must coalesce
  // behind exactly one cold tuning pass and all serve its result.
  constexpr int kThreads = 6;
  ServiceRegistry::Options ropts;
  ropts.tune_threads = 4;
  ServiceRegistry registry(Factory(TinyOptions()), ropts);

  std::vector<std::thread> threads;
  std::vector<StatusOr<sparksim::SparkConf>> confs(
      kThreads, Status::Internal("not served"));
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { confs[i] = registry.Lookup("TPC-H", 100.0); });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(confs[i].ok()) << confs[i].status().ToString();
    EXPECT_TRUE(*confs[i] == *confs[0]);
  }
  const auto row = registry.GetAppRow("TPC-H");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->snapshot.tuning_passes, 1) << "single-flight must dedup";
  const auto stats = registry.GetStats();
  EXPECT_EQ(stats.retunes_cold, 1u);
  // Everyone who didn't own the pass was served without tuning.
  EXPECT_EQ(stats.lookups_hit + stats.lookups_coalesced,
            static_cast<uint64_t>(kThreads - 1));
}

/// Shared meeting point of two tuning passes: each pass checks in once
/// and waits, bounded, for the other one.
struct Rendezvous {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int met = 0;  // check-ins that saw both passes in at once

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(20),
                    [&] { return arrived >= 2; })) {
      ++met;
    }
  }
};

/// Checks its tuning pass into the rendezvous at the first iteration
/// event, i.e. from inside the pass.
class RendezvousObserver : public obs::Sink {
 public:
  explicit RendezvousObserver(Rendezvous* rendezvous)
      : rendezvous_(rendezvous) {}
  void Emit(const obs::Event& ev) override {
    if (ev.type != "iteration" || arrived_) return;
    arrived_ = true;
    rendezvous_->Arrive();
  }

 private:
  Rendezvous* rendezvous_;
  bool arrived_ = false;
};

class RendezvousBackend : public SimBackend {
 public:
  RendezvousBackend(const std::string& name, Rendezvous* rendezvous)
      : SimBackend(name, TinyOptions()), observer_(rendezvous) {
    obs::ObsContext ctx;
    ctx.observer = &observer_;
    service()->SetObservability(ctx);
  }

 private:
  RendezvousObserver observer_;
};

TEST(ServiceRegistryTest, TuneThreadsRunThatManyPassesAtOnce) {
  // tune_threads = 2: the cold passes of two different apps must both be
  // inside their tuning pass at the same time.
  Rendezvous rendezvous;
  ServiceRegistry::Options ropts;
  ropts.tune_threads = 2;
  ServiceRegistry registry(
      [&rendezvous](const std::string& name) -> std::unique_ptr<AppBackend> {
        return std::make_unique<RendezvousBackend>(name, &rendezvous);
      },
      ropts);
  std::vector<std::thread> threads;
  for (const std::string app : {"TPC-H", "Join"}) {
    threads.emplace_back(
        [&registry, app] { EXPECT_TRUE(registry.Lookup(app, 100.0).ok()); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rendezvous.arrived, 2);
  EXPECT_EQ(rendezvous.met, 2) << "the two passes ran one after the other";
}

TEST(ServiceRegistryTest, ConcurrentDriftLookupsSingleFlight) {
  constexpr int kThreads = 5;
  ServiceRegistry::Options ropts;
  ropts.tune_threads = 2;
  ServiceRegistry registry(Factory(TinyOptions()), ropts);
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());  // cold start, alone

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      if (!registry.Lookup("TPC-H", 500.0).ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto row = registry.GetAppRow("TPC-H");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->snapshot.tuning_passes, 2)
      << "the drifted size must be tuned exactly once";
  EXPECT_EQ(registry.GetStats().retunes_drift, 1u);
}

/// Drives a fixed multi-app trace with per-round quiescent barriers and
/// appends every served conf as a properties string, in (round, app)
/// order, to `served`.
void ServeTrace(ServiceRegistry& registry, int rounds,
                const std::vector<std::string>& apps, bool threaded_rounds,
                std::vector<std::string>* served) {
  static const double kSizes[] = {100.0, 120.0, 300.0, 330.0, 500.0};
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::string> round(apps.size());
    auto drive = [&](size_t ai) {
      const double ds = kSizes[(static_cast<size_t>(r) + ai) % 5];
      const auto conf = registry.Lookup(apps[ai], ds);
      if (conf.ok()) round[ai] = sparksim::SparkPropertiesToString(*conf);
    };
    if (threaded_rounds) {
      std::vector<std::thread> threads;
      for (size_t ai = 0; ai < apps.size(); ++ai) {
        threads.emplace_back(drive, ai);
      }
      for (auto& t : threads) t.join();
    } else {
      for (size_t ai = 0; ai < apps.size(); ++ai) drive(ai);
    }
    registry.AdvanceTick();
    for (auto& s : round) {
      ASSERT_FALSE(s.empty()) << "a lookup failed in round " << r;
      served->push_back(std::move(s));
    }
  }
}

TEST(ServiceRegistryTest, ServedConfsBitIdenticalAcrossThreadCounts) {
  // The tentpole determinism contract: on a fixed trace the served confs
  // are byte-identical whether tuning runs inline, on a small pool, or on
  // a large pool with concurrent per-round drivers.
  const std::vector<std::string> apps = {"TPC-H", "Join", "Scan"};
  std::vector<std::vector<std::string>> runs;
  for (const auto& [tune_threads, threaded_rounds] :
       std::vector<std::pair<int, bool>>{{1, false}, {4, true}, {8, true}}) {
    ServiceRegistry::Options ropts;
    ropts.tune_threads = tune_threads;
    ServiceRegistry registry(Factory(TinyOptions()), ropts);
    runs.emplace_back();
    ServeTrace(registry, 4, apps, threaded_rounds, &runs.back());
    if (HasFatalFailure()) return;
  }
  ASSERT_EQ(runs[0].size(), 12u);
  EXPECT_EQ(runs[0], runs[1]) << "tune_threads=4 diverged";
  EXPECT_EQ(runs[0], runs[2]) << "tune_threads=8 diverged";
}

TEST(ServiceRegistryWarmStartTest, OffIsByteExactToPlainService) {
  // --warm-start off contract: the registry is a pure front door; the
  // tuner underneath must behave byte-identically to a hand-driven
  // OnlineTuningService on the same session/seed.
  sparksim::ClusterSimulator sim(
      sparksim::X86Cluster(), NameSeed("TPC-H"));
  TuningSession session(&sim, workloads::TpcH());
  OnlineTuningService plain(&session, TinyOptions());

  ServiceRegistry::Options ropts;
  ropts.warm_start = false;
  ServiceRegistry registry(Factory(TinyOptions()), ropts);

  for (double ds : {100.0, 120.0, 300.0, 330.0, 500.0, 100.0}) {
    const auto direct = plain.RecommendedConf(ds);
    const auto via_registry = registry.Lookup("TPC-H", ds);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(via_registry.ok());
    EXPECT_EQ(sparksim::SparkPropertiesToString(*direct),
              sparksim::SparkPropertiesToString(*via_registry))
        << "diverged at ds=" << ds;
  }
  const auto row = registry.GetAppRow("TPC-H");
  ASSERT_TRUE(row.has_value());
  EXPECT_FALSE(row->warm_started);
  EXPECT_EQ(row->snapshot.tuning_passes, plain.tuning_passes());
}

TEST(ServiceRegistryWarmStartTest, EvictedAppReadmitsFromOwnHistory) {
  ServiceRegistry::Options ropts;
  ropts.capacity = 1;  // admitting a second app forces an eviction
  std::map<std::string, const OnlineTuningService*> services;
  ServiceRegistry registry(RecordingFactory(TinyOptions(), &services), ropts);

  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());
  const int evals_cold = registry.GetAppRow("TPC-H")->snapshot.tuning_passes;
  ASSERT_EQ(evals_cold, 1);
  const std::vector<int> cold_selected = SelectedParams(services, "TPC-H");
  ASSERT_FALSE(cold_selected.empty()) << "the cold tune ran IICP";
  registry.AdvanceTick();

  // A second app overflows capacity; TPC-H is least recently used.
  ASSERT_TRUE(registry.Lookup("Join", 100.0).ok());
  registry.AdvanceTick();
  EXPECT_EQ(registry.GetStats().evictions_capacity, 1u);
  EXPECT_FALSE(registry.GetAppRow("TPC-H").has_value());

  // Re-admission: the persisted history seeds the new tuner, so the
  // first recommendation is a warm start, not a from-scratch cold pass.
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());
  const auto row = registry.GetAppRow("TPC-H");
  ASSERT_TRUE(row.has_value());
  EXPECT_TRUE(row->warm_started);
  // Two warm starts happened: Join seeded cross-app from the tuned TPC-H
  // donor, then TPC-H re-admitted from its own persisted history.
  EXPECT_EQ(registry.GetStats().warm_start_hits, 2u);
  // The warm start's 2 own samples are below IICP's floor, so the
  // re-admitted tuner searches in its pre-eviction reduction ...
  EXPECT_EQ(SelectedParams(services, "TPC-H"), cold_selected);

  // ... and hands it on again: evict TPC-H a second time (Join returns)
  // and re-admit it.
  registry.AdvanceTick();  // evicts Join, the least recently used
  ASSERT_TRUE(registry.Lookup("Join", 100.0).ok());
  registry.AdvanceTick();  // evicts TPC-H
  ASSERT_FALSE(registry.GetAppRow("TPC-H").has_value());
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());
  EXPECT_TRUE(registry.GetAppRow("TPC-H")->warm_started);
  EXPECT_EQ(SelectedParams(services, "TPC-H"), cold_selected);
}

TEST(ServiceRegistryWarmStartTest, NewAppSeedsFromSimilarTunedApps) {
  std::map<std::string, const OnlineTuningService*> services;
  ServiceRegistry registry(RecordingFactory(TinyOptions(), &services));
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());
  ASSERT_TRUE(registry.Lookup("Join", 100.0).ok());
  EXPECT_FALSE(registry.GetAppRow("Join")->warm_started)
      << "donor knowledge only lands in the store at the tick barrier";
  registry.AdvanceTick();

  ASSERT_TRUE(registry.Lookup("Aggregation", 100.0).ok());
  const auto row = registry.GetAppRow("Aggregation");
  ASSERT_TRUE(row.has_value());
  EXPECT_TRUE(row->warm_started);
  EXPECT_GE(registry.GetStats().warm_start_hits, 1u);

  // The newcomer adopts the nearest donor's reduction (the very object,
  // not a copy). Donor fingerprints carry their QCSA sensitivity, as
  // AdvanceTick stamps them; ties go to the smaller name.
  const AppFingerprint newcomer =
      AppFingerprint::FromProfile(AppByName("Aggregation"));
  std::string nearest;
  double nearest_distance = 0.0;
  for (const std::string donor : {"Join", "TPC-H"}) {
    const sparksim::SparkSqlApp app = AppByName(donor);
    AppFingerprint fp = AppFingerprint::FromProfile(app);
    const QcsaResult* qcsa = services.at(donor)->tuner().qcsa_result();
    ASSERT_NE(qcsa, nullptr);
    fp.AddSensitivity(*qcsa, app.num_queries());
    const double distance = AppFingerprint::Distance(newcomer, fp);
    if (nearest.empty() || distance < nearest_distance) {
      nearest = donor;
      nearest_distance = distance;
    }
  }
  const IicpResult* adopted =
      services.at("Aggregation")->tuner().iicp_result();
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted, services.at(nearest)->tuner().iicp_result())
      << "nearest donor: " << nearest;
}

TEST(ServiceRegistryWarmStartTest, ConcurrentRecipientsShareOneReduction) {
  // One donor, three newcomers tuning at once on the pool while the
  // donor re-tunes for a drifted size: all four encode through the same
  // IicpResult (run under TSan in CI).
  ServiceRegistry::Options ropts;
  ropts.tune_threads = 4;
  std::map<std::string, const OnlineTuningService*> services;
  ServiceRegistry registry(RecordingFactory(TinyOptions(), &services), ropts);
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());
  registry.AdvanceTick();

  const std::vector<std::pair<std::string, double>> requests = {
      {"Join", 100.0}, {"Scan", 100.0}, {"Aggregation", 100.0},
      {"TPC-H", 500.0}};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (const auto& [app, ds] : requests) {
    threads.emplace_back([&registry, &failures, app = app, ds = ds] {
      if (!registry.Lookup(app, ds).ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const IicpResult* donor = services.at("TPC-H")->tuner().iicp_result();
  ASSERT_NE(donor, nullptr);
  for (const std::string app : {"Join", "Scan", "Aggregation"}) {
    const auto row = registry.GetAppRow(app);
    ASSERT_TRUE(row.has_value()) << app;
    EXPECT_TRUE(row->warm_started) << app;
    EXPECT_EQ(services.at(app)->tuner().iicp_result(), donor) << app;
  }
}

TEST(ServiceRegistryTest, TtlEvictsIdleApps) {
  ServiceRegistry::Options ropts;
  ropts.ttl_ticks = 2;
  ServiceRegistry registry(Factory(TinyOptions()), ropts);
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());

  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(registry.Lookup("Scan", 100.0).ok());  // stays warm
    registry.AdvanceTick();
  }
  const auto stats = registry.GetStats();
  EXPECT_EQ(stats.evictions_ttl, 1u);
  EXPECT_FALSE(registry.GetAppRow("TPC-H").has_value());
  EXPECT_TRUE(registry.GetAppRow("Scan").has_value());
}

TEST(ServiceRegistryTest, TtlAndCapacityEvictInOneTick) {
  // The registry's scan list holds an evicted entry's last reference, so
  // dropping it must not free the entry's mutex while it is still locked
  // (the tsan leg runs this; both eviction loops fire on the last tick).
  ServiceRegistry::Options ropts;
  ropts.ttl_ticks = 2;
  ropts.capacity = 2;
  ServiceRegistry registry(Factory(TinyOptions()), ropts);
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());  // tick 0
  registry.AdvanceTick();
  ASSERT_TRUE(registry.Lookup("Scan", 100.0).ok());  // tick 1
  registry.AdvanceTick();
  ASSERT_TRUE(registry.Lookup("Join", 100.0).ok());  // tick 2
  ASSERT_TRUE(registry.Lookup("Aggregation", 100.0).ok());
  EXPECT_EQ(registry.GetStats().live_apps, 4u);

  // Tick 3: TPC-H has idled past the TTL; of the three left, Scan is the
  // least recently used and goes to bring the registry down to capacity.
  registry.AdvanceTick();
  const auto stats = registry.GetStats();
  EXPECT_EQ(stats.evictions_ttl, 1u);
  EXPECT_EQ(stats.evictions_capacity, 1u);
  EXPECT_EQ(stats.live_apps, 2u);
  EXPECT_FALSE(registry.GetAppRow("TPC-H").has_value());
  EXPECT_FALSE(registry.GetAppRow("Scan").has_value());
  EXPECT_TRUE(registry.GetAppRow("Join").has_value());
  EXPECT_TRUE(registry.GetAppRow("Aggregation").has_value());
}

TEST(ServiceRegistryTest, FingerprintDistanceSeparatesWorkloads) {
  const AppFingerprint tpch = AppFingerprint::FromProfile(workloads::TpcH());
  const AppFingerprint tpch2 = AppFingerprint::FromProfile(workloads::TpcH());
  const AppFingerprint scan =
      AppFingerprint::FromProfile(workloads::HiBenchScan());
  const AppFingerprint join =
      AppFingerprint::FromProfile(workloads::HiBenchJoin());

  EXPECT_DOUBLE_EQ(AppFingerprint::Distance(tpch, tpch2), 0.0);
  EXPECT_GT(AppFingerprint::Distance(tpch, scan), 0.0);
  // A scan (no shuffle, selection-only) sits farther from a shuffle-heavy
  // join than another join-bearing workload does.
  EXPECT_GT(AppFingerprint::Distance(scan, join),
            AppFingerprint::Distance(tpch, join));
}

TEST(ServiceRegistryTest, ConcurrentReadersDuringTunes) {
  // Readers (status rows, stats, published plans) must be safe while
  // tuning passes mutate services — the tsan leg runs this.
  ServiceRegistry::Options ropts;
  ropts.tune_threads = 2;
  ServiceRegistry registry(Factory(TinyOptions()), ropts);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& row : registry.AppRows()) {
        ASSERT_FALSE(row.snapshot.app.empty());
      }
      (void)registry.GetStats();
      (void)registry.GetAppRow("TPC-H");
      (void)registry.RenderStatusTable();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int i = 0; i < 2; ++i) {
    writers.emplace_back([&, i] {
      const std::string app = i == 0 ? "TPC-H" : "Join";
      for (double ds : {100.0, 400.0, 120.0, 500.0}) {
        ASSERT_TRUE(registry.Lookup(app, ds).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(registry.GetStats().live_apps, 2u);
}

TEST(ServiceRegistryTest, StatusReadersDuringEvictions) {
  // Status readers, request drivers and evicting ticks all at once: a
  // tick locks an entry and then the map, readers copy the entry list
  // and then lock each entry, so a lock-order inversion would hang here
  // (and the tsan leg would flag any unguarded field).
  ServiceRegistry::Options ropts;
  ropts.capacity = 2;
  ropts.ttl_ticks = 1;
  ropts.tune_threads = 2;
  ServiceRegistry registry(Factory(TinyOptions()), ropts);

  std::atomic<int> drivers_left{2};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<std::string> apps =
          i == 0 ? std::vector<std::string>{"TPC-H", "Scan"}
                 : std::vector<std::string>{"Join", "Aggregation"};
      for (double ds : {100.0, 400.0, 110.0}) {
        for (const std::string& app : apps) {
          const auto conf = registry.Lookup(app, ds);
          ASSERT_TRUE(conf.ok()) << conf.status().ToString();
          // A tick may evict the app between the two calls.
          const Status st = registry.ReportRun(app, ds, *conf, 50.0 + ds);
          EXPECT_TRUE(st.ok() || st.code() == StatusCode::kNotFound)
              << st.ToString();
        }
      }
      drivers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  threads.emplace_back([&] {
    while (drivers_left.load(std::memory_order_acquire) > 0) {
      registry.AdvanceTick();
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {
    while (drivers_left.load(std::memory_order_acquire) > 0) {
      for (const auto& row : registry.AppRows()) {
        ASSERT_FALSE(row.snapshot.app.empty());
      }
      (void)registry.GetAppRow("Scan");
      (void)registry.GetStats();
      (void)registry.RenderStatusTable();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();

  // Quiescent now: one more tick trims to capacity.
  registry.AdvanceTick();
  const auto stats = registry.GetStats();
  EXPECT_LE(stats.live_apps, 2u);
  // All four apps were admitted at least once and at most two are left.
  EXPECT_GE(stats.evictions_ttl + stats.evictions_capacity, 2u);
}

TEST(ServiceRegistryTest, TrackLatencyReportsLookupQuantiles) {
  // Without a metrics registry nothing is clocked: zero quantiles.
  ServiceRegistry plain(Factory(TinyOptions()));
  ASSERT_TRUE(plain.Lookup("TPC-H", 100.0).ok());
  const auto plain_row = plain.GetAppRow("TPC-H");
  ASSERT_TRUE(plain_row.has_value());
  EXPECT_DOUBLE_EQ(plain_row->snapshot.recommend_p50_s, 0.0);

  obs::MetricsRegistry metrics;
  obs::ObsContext ctx;
  ctx.metrics = &metrics;
  ServiceRegistry registry(Factory(TinyOptions()));
  registry.SetObservability(ctx);
  ASSERT_TRUE(registry.Lookup("TPC-H", 100.0).ok());
  ASSERT_TRUE(registry.Lookup("TPC-H", 105.0).ok());
  EXPECT_GT(metrics.GetHistogram("locat_registry_lookup_seconds", "", {})
                ->Quantile(0.5),
            0.0);
  const auto row = registry.GetAppRow("TPC-H");
  ASSERT_TRUE(row.has_value());
  EXPECT_GT(row->snapshot.recommend_p50_s, 0.0)
      << "the wired registry must flow into the per-service histograms";
}

}  // namespace
}  // namespace locat::core
