#include "core/service_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <utility>

#include "obs/clock.h"
#include "sparksim/properties_io.h"

namespace locat::core {
namespace {

/// Donors a new app's warm start draws prior observations from.
constexpr size_t kTransferK = 3;

/// Microsecond-resolution buckets for the lookup path (the generic
/// latency buckets start too coarse for a ~µs hot path).
std::vector<double> LookupLatencyBuckets() {
  return {1e-6, 2e-6,   5e-6, 1e-5, 2e-5, 5e-5,
          1e-4, 2.5e-4, 1e-3, 1e-2, 1e-1, 1.0};
}

constexpr size_t kFingerprintDim = 17;

}  // namespace

AppFingerprint AppFingerprint::FromProfile(const sparksim::SparkSqlApp& app) {
  AppFingerprint fp;
  fp.features = math::Vector(kFingerprintDim, 0.0);
  const size_t n = app.queries.size();
  if (n == 0) return fp;
  const double inv = 1.0 / static_cast<double>(n);
  double frac_sel = 0, frac_join = 0, frac_agg = 0;
  double input = 0, shuffle = 0, cpu = 0, shuffle_cpu = 0, stages = 0;
  double broadcast = 0, mem = 0, skew = 0, cartesian = 0, rescan = 0;
  for (const auto& q : app.queries) {
    switch (q.category) {
      case sparksim::QueryCategory::kSelection: frac_sel += inv; break;
      case sparksim::QueryCategory::kJoin: frac_join += inv; break;
      case sparksim::QueryCategory::kAggregation: frac_agg += inv; break;
    }
    input += q.input_frac * inv;
    shuffle += std::min(1.0, q.shuffle_ratio) * inv;
    cpu += q.cpu_per_gb * inv;
    shuffle_cpu += q.shuffle_cpu_per_gb * inv;
    stages += static_cast<double>(q.num_shuffle_stages) * inv;
    broadcast += (q.broadcastable_mb > 0.0 ? 1.0 : 0.0) * inv;
    mem += q.mem_per_task_factor * inv;
    skew += q.skew * inv;
    cartesian += (q.has_cartesian ? 1.0 : 0.0) * inv;
    rescan += q.rescan_frac * inv;
  }
  math::Vector& f = fp.features;
  // Scales chosen so typical TPC-DS/TPC-H profiles land in ~[0, 1]; the
  // distance is unweighted Euclidean on top.
  f[0] = std::log1p(static_cast<double>(n)) / 4.0;
  f[1] = frac_sel;
  f[2] = frac_join;
  f[3] = frac_agg;
  f[4] = input;
  f[5] = shuffle;
  f[6] = std::min(1.0, cpu / 20.0);
  f[7] = std::min(1.0, shuffle_cpu / 20.0);
  f[8] = std::min(1.0, stages / 4.0);
  f[9] = broadcast;
  f[10] = std::min(1.0, mem / 4.0);
  f[11] = std::min(1.0, skew / 3.0);
  f[12] = cartesian;
  f[13] = rescan;
  // [14..16] stay 0 ("sensitivity unknown") until AddSensitivity.
  return fp;
}

void AppFingerprint::AddSensitivity(const QcsaResult& qcsa, int num_queries) {
  if (features.size() != kFingerprintDim) {
    features = math::Vector(kFingerprintDim, 0.0);
  }
  const double nq = std::max(1, num_queries);
  features[14] = static_cast<double>(qcsa.csq_indices.size()) / nq;
  features[15] = std::min(1.0, qcsa.threshold);
  features[16] = std::min(1.0, qcsa.max_cv - qcsa.min_cv);
}

double AppFingerprint::Distance(const AppFingerprint& a,
                                const AppFingerprint& b) {
  if (a.features.size() != b.features.size()) return 1e300;
  double sum = 0.0;
  for (size_t i = 0; i < a.features.size(); ++i) {
    const double d = a.features[i] - b.features[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

ServiceRegistry::ServiceRegistry(BackendFactory factory, Options options)
    : factory_(std::move(factory)),
      options_(options),
      // ThreadPool(n) spawns n - 1 workers and Submit runs on a worker
      // whenever there is one, so T > 1 concurrent passes need T + 1.
      tune_pool_(options.tune_threads > 1 ? options.tune_threads + 1 : 1) {}

ServiceRegistry::~ServiceRegistry() = default;

std::shared_ptr<ServiceRegistry::Entry> ServiceRegistry::Find(
    const std::string& app) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = entries_.find(app);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<ServiceRegistry::Entry>>
ServiceRegistry::Entries() const {
  std::vector<std::shared_ptr<Entry>> out;
  std::lock_guard<std::mutex> lock(map_mu_);
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry);
  return out;
}

void ServiceRegistry::SetObservability(const obs::ObsContext& obs) {
  obs_ = obs;
  if (obs_.metrics != nullptr) {
    obs::CounterFamily* lookups = obs_.metrics->GetCounterFamily(
        "locat_registry_lookups_total",
        "Registry lookups, by how the request was answered");
    m_hit_ = lookups->WithLabels(obs::LabelSet({{"result", "hit"}}));
    m_miss_ = lookups->WithLabels(obs::LabelSet({{"result", "miss"}}));
    m_coalesced_ =
        lookups->WithLabels(obs::LabelSet({{"result", "coalesced"}}));
    obs::CounterFamily* retunes = obs_.metrics->GetCounterFamily(
        "locat_registry_retunes_total",
        "Tuning passes triggered through the registry, by reason");
    m_retune_cold_ = retunes->WithLabels(obs::LabelSet({{"reason", "cold"}}));
    m_retune_drift_ =
        retunes->WithLabels(obs::LabelSet({{"reason", "drift"}}));
    obs::CounterFamily* evictions = obs_.metrics->GetCounterFamily(
        "locat_registry_evictions_total", "Evicted registry entries");
    m_evict_ttl_ = evictions->WithLabels(obs::LabelSet({{"reason", "ttl"}}));
    m_evict_cap_ =
        evictions->WithLabels(obs::LabelSet({{"reason", "capacity"}}));
    m_warm_starts_ = obs_.metrics->GetCounter(
        "locat_registry_warm_starts_total",
        "Admissions seeded with transferred prior observations");
    m_lookup_latency_ = obs_.metrics->GetHistogram(
        "locat_registry_lookup_seconds",
        "Wall-clock latency of ServiceRegistry::Lookup",
        LookupLatencyBuckets());
    clock_latency_.store(true, std::memory_order_release);
  } else {
    m_hit_ = nullptr;
    m_miss_ = nullptr;
    m_coalesced_ = nullptr;
    m_retune_cold_ = nullptr;
    m_retune_drift_ = nullptr;
    m_evict_ttl_ = nullptr;
    m_evict_cap_ = nullptr;
    m_warm_starts_ = nullptr;
    m_lookup_latency_ = nullptr;
    clock_latency_.store(false, std::memory_order_release);
  }
  // Re-wire entries admitted before the context arrived.
  for (const auto& entry : Entries()) {
    std::unique_lock<std::mutex> el(entry->mu);
    entry->done.wait(el, [&] { return !entry->tuning_in_flight; });
    entry->backend->service()->SetObservability(obs_);
  }
}

std::vector<LocatTuner::PriorObservation>
ServiceRegistry::BuildPriorsLocked(const std::string& app,
                                   const AppFingerprint& fp,
                                   LocatTuner::TransferHint* hint) const {
  // Candidate donors: live tuned apps plus the persisted history of
  // evicted ones. Sorted by (distance, name) so donor choice is a pure
  // function of the store's content — never of request timing.
  struct Donor {
    double distance;
    const std::string* name;
    const TransferRecord* record;
  };
  std::vector<Donor> donors;
  auto consider = [&](const std::map<std::string, TransferRecord>& store) {
    for (const auto& [name, rec] : store) {
      if (name == app || rec.observations.empty()) continue;
      donors.push_back(
          {AppFingerprint::Distance(fp, rec.fingerprint), &name, &rec});
    }
  };
  consider(transfer_store_);
  consider(evicted_store_);
  std::sort(donors.begin(), donors.end(), [](const Donor& a, const Donor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return *a.name < *b.name;
  });
  if (donors.size() > kTransferK) donors.resize(kTransferK);
  if (donors.empty() || options_.transfer_cap == 0) return {};
  // The hint comes from the single nearest donor: mixing CSQ sets or
  // reductions from donors at different distances would dilute the
  // signal the fingerprint match just established.
  *hint = donors.front().record->hint;

  // Inverse-distance weights decide how much of the (capped) budget each
  // donor contributes; remainders go to the nearest donors first.
  double weight_sum = 0.0;
  for (const auto& d : donors) weight_sum += 1.0 / (1.0 + d.distance);
  std::vector<size_t> take(donors.size(), 0);
  size_t allocated = 0;
  for (size_t i = 0; i < donors.size(); ++i) {
    const double w = (1.0 / (1.0 + donors[i].distance)) / weight_sum;
    take[i] = std::min(donors[i].record->observations.size(),
                       static_cast<size_t>(
                           std::floor(w * options_.transfer_cap)));
    allocated += take[i];
  }
  for (size_t i = 0; i < donors.size() && allocated < options_.transfer_cap;
       ++i) {
    if (take[i] < donors[i].record->observations.size()) {
      ++take[i];
      ++allocated;
    }
  }

  std::vector<LocatTuner::PriorObservation> priors;
  priors.reserve(allocated);
  for (size_t i = 0; i < donors.size(); ++i) {
    // Each donor contributes its BEST observations, not a chronological
    // prefix: the exports are ordered first-to-last, so a prefix would
    // hand over the donor's random warm-up samples and withhold exactly
    // the tuned optimum the transfer exists to share.
    std::vector<size_t> order(donors[i].record->observations.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const auto& obs = donors[i].record->observations;
      if (obs[a].objective_seconds != obs[b].objective_seconds) {
        return obs[a].objective_seconds < obs[b].objective_seconds;
      }
      return a < b;
    });
    for (size_t k = 0; k < take[i]; ++k) {
      priors.push_back(donors[i].record->observations[order[k]]);
    }
  }
  return priors;
}

StatusOr<std::shared_ptr<ServiceRegistry::Entry>>
ServiceRegistry::FindOrAdmit(const std::string& app) {
  // Admission runs under the map mutex, so concurrent first lookups of
  // one app admit (and consume its evicted history) exactly once.
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = entries_.find(app);
  if (it != entries_.end()) return it->second;

  std::unique_ptr<AppBackend> backend = factory_(app);
  if (backend == nullptr) {
    return Status::InvalidArgument("backend factory failed for app " + app);
  }
  auto entry = std::make_shared<Entry>();
  entry->name = app;
  entry->backend = std::move(backend);
  entry->fingerprint = AppFingerprint::FromProfile(entry->backend->app());
  entry->last_used_tick.store(tick_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  OnlineTuningService* svc = entry->backend->service();
  if (obs_.any()) svc->SetObservability(obs_);

  if (options_.warm_start) {
    std::vector<LocatTuner::PriorObservation> priors;
    LocatTuner::TransferHint hint;
    {
      std::lock_guard<std::mutex> tlock(transfer_mu_);
      const auto evicted = evicted_store_.find(app);
      if (evicted != evicted_store_.end()) {
        // Re-admission: the app's own persisted history beats any
        // cross-app donor.
        priors = std::move(evicted->second.observations);
        hint = std::move(evicted->second.hint);
        evicted_store_.erase(evicted);
      } else {
        priors = BuildPriorsLocked(app, entry->fingerprint, &hint);
      }
    }
    if (!priors.empty()) {
      svc->SeedTransferHint(std::move(hint));
      svc->SeedPriorObservations(std::move(priors));
      if (svc->tuner().warm_started()) {
        entry->warm_started = true;
        warm_start_hits_.fetch_add(1, std::memory_order_relaxed);
        if (m_warm_starts_ != nullptr) m_warm_starts_->Increment();
      }
    }
  }

  entries_.emplace(app, entry);
  return entry;
}

StatusOr<sparksim::SparkConf> ServiceRegistry::Lookup(const std::string& app,
                                                      double datasize_gb) {
  if (!(datasize_gb > 0.0)) {
    return Status::InvalidArgument(
        "Lookup needs a strictly positive datasize_gb");
  }
  const bool clocked = clock_latency_.load(std::memory_order_acquire);
  const uint64_t t0_ns =
      clocked ? obs::MonotonicClock::Default()->NowNanos() : 0;
  auto observe_latency = [&] {
    if (!clocked) return;
    const uint64_t t1_ns = obs::MonotonicClock::Default()->NowNanos();
    const double s = static_cast<double>(t1_ns - t0_ns) * 1e-9;
    if (m_lookup_latency_ != nullptr) m_lookup_latency_->Observe(s);
  };

  StatusOr<std::shared_ptr<Entry>> entry_or = FindOrAdmit(app);
  if (!entry_or.ok()) return entry_or.status();
  const std::shared_ptr<Entry> entry = *std::move(entry_or);
  entry->last_used_tick.store(tick_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  OnlineTuningService* svc = entry->backend->service();

  std::unique_lock<std::mutex> lock(entry->mu);
  bool waited = false;
  for (;;) {
    // Serve from the published plan when it covers this size — possibly
    // one a concurrent tune published while this request queued.
    std::optional<sparksim::SparkConf> conf =
        svc->PublishedReuse(datasize_gb);
    if (conf.has_value()) {
      entry->last_served.emplace(datasize_gb, *conf);
      if (waited) {
        ++entry->coalesced;
        lookups_coalesced_.fetch_add(1, std::memory_order_relaxed);
        if (m_coalesced_ != nullptr) m_coalesced_->Increment();
      } else {
        ++entry->hits;
        lookups_hit_.fetch_add(1, std::memory_order_relaxed);
        if (m_hit_ != nullptr) m_hit_->Increment();
      }
      observe_latency();
      return *std::move(conf);
    }
    if (!entry->tuning_in_flight) break;
    waited = true;
    entry->done.wait(lock, [&] { return !entry->tuning_in_flight; });
  }

  // This request owns the tuning pass. The flag extends mutual exclusion
  // over the pool-executed tune without holding the mutex while it runs,
  // so hits on other sizes are served and waiters can queue.
  const bool cold = svc->Published()->tuning_passes == 0;
  entry->tuning_in_flight = true;
  lock.unlock();

  lookups_miss_.fetch_add(1, std::memory_order_relaxed);
  if (m_miss_ != nullptr) m_miss_->Increment();
  if (cold) {
    retunes_cold_.fetch_add(1, std::memory_order_relaxed);
    if (m_retune_cold_ != nullptr) m_retune_cold_->Increment();
  } else {
    retunes_drift_.fetch_add(1, std::memory_order_relaxed);
    if (m_retune_drift_ != nullptr) m_retune_drift_->Increment();
  }

  auto done = std::make_shared<std::promise<StatusOr<sparksim::SparkConf>>>();
  std::future<StatusOr<sparksim::SparkConf>> fut = done->get_future();
  tune_pool_.Submit([svc, datasize_gb, done] {
    done->set_value(svc->RecommendedConf(datasize_gb));
  });
  StatusOr<sparksim::SparkConf> result = fut.get();

  lock.lock();
  if (result.ok()) entry->last_served.emplace(datasize_gb, *result);
  entry->tuning_in_flight = false;
  entry->done.notify_all();
  lock.unlock();
  observe_latency();
  return result;
}

Status ServiceRegistry::ReportRun(const std::string& app, double datasize_gb,
                                  const sparksim::SparkConf& conf,
                                  double observed_seconds) {
  const std::shared_ptr<Entry> entry = Find(app);
  if (entry == nullptr) return Status::NotFound("app not admitted: " + app);
  entry->last_used_tick.store(tick_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(entry->mu);
  entry->done.wait(lock, [&] { return !entry->tuning_in_flight; });
  return entry->backend->service()->ReportRun(datasize_gb, conf,
                                              observed_seconds);
}

Status ServiceRegistry::ReportFailedRun(const std::string& app,
                                        double datasize_gb,
                                        const sparksim::SparkConf& conf,
                                        double partial_seconds) {
  const std::shared_ptr<Entry> entry = Find(app);
  if (entry == nullptr) return Status::NotFound("app not admitted: " + app);
  entry->last_used_tick.store(tick_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(entry->mu);
  entry->done.wait(lock, [&] { return !entry->tuning_in_flight; });
  return entry->backend->service()->ReportFailedRun(datasize_gb, conf,
                                                    partial_seconds);
}

ServiceRegistry::TransferRecord ServiceRegistry::MakeTransferRecord(
    const Entry& entry) const {
  const OnlineTuningService* svc = entry.backend->service();
  TransferRecord rec;
  rec.fingerprint = entry.fingerprint;
  rec.observations = svc->ExportObservations(options_.transfer_cap * 4);
  rec.hint = svc->tuner().ExportTransferHint();
  return rec;
}

void ServiceRegistry::EvictLocked(const Entry& entry) {
  // Persist the observation history so re-admission warm-starts instead
  // of cold-tuning. The backend itself dies with the entry's last
  // shared_ptr — in-flight requests that found the entry before the
  // erase keep it alive until they return.
  TransferRecord rec = MakeTransferRecord(entry);
  {
    std::lock_guard<std::mutex> tlock(transfer_mu_);
    transfer_store_.erase(entry.name);
    if (!rec.observations.empty()) {
      evicted_store_[entry.name] = std::move(rec);
    }
  }
  std::lock_guard<std::mutex> lock(map_mu_);
  entries_.erase(entry.name);
}

uint64_t ServiceRegistry::AdvanceTick() {
  const uint64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;

  // Deterministic scan order: every live entry, in name order.
  std::vector<std::shared_ptr<Entry>> live = Entries();

  // 1. Refresh donor knowledge from tuned entries. Busy entries (a tune
  //    in flight) are skipped — their knowledge lands next tick.
  for (const auto& entry : live) {
    std::unique_lock<std::mutex> el(entry->mu, std::try_to_lock);
    if (!el.owns_lock() || entry->tuning_in_flight) continue;
    OnlineTuningService* svc = entry->backend->service();
    if (!entry->sensitivity_added) {
      if (const QcsaResult* qcsa = svc->tuner().qcsa_result()) {
        entry->fingerprint.AddSensitivity(
            *qcsa, entry->backend->app().num_queries());
        entry->sensitivity_added = true;
      }
    }
    if (svc->Published()->tuning_passes > 0) {
      TransferRecord rec = MakeTransferRecord(*entry);
      if (!rec.observations.empty()) {
        std::lock_guard<std::mutex> tlock(transfer_mu_);
        transfer_store_[entry->name] = std::move(rec);
      }
    }
  }

  // Evicts live[i] unless a request holds it or a tune is in flight;
  // resets the slot so later passes skip it.
  auto try_evict = [&](size_t i) {
    // `entry` is declared before the lock on its mutex, so it outlives
    // the unlock even once `live[i]` (maybe the last reference) is reset.
    const std::shared_ptr<Entry> entry = live[i];
    std::unique_lock<std::mutex> el(entry->mu, std::try_to_lock);
    if (!el.owns_lock() || entry->tuning_in_flight) return false;
    EvictLocked(*entry);
    live[i] = nullptr;
    return true;
  };

  // 2. TTL eviction, in name order.
  if (options_.ttl_ticks > 0) {
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] == nullptr) continue;
      const uint64_t last =
          live[i]->last_used_tick.load(std::memory_order_relaxed);
      if (tick - last <= static_cast<uint64_t>(options_.ttl_ticks)) continue;
      if (!try_evict(i)) continue;
      evictions_ttl_.fetch_add(1, std::memory_order_relaxed);
      if (m_evict_ttl_ != nullptr) m_evict_ttl_->Increment();
    }
  }

  // 3. Capacity trim: evict least-recently-used first (older tick, then
  //    name as the deterministic tie-break — `live` is in name order, so
  //    the index breaks ties). Ticks are read once, before sorting.
  if (options_.capacity > 0) {
    std::vector<std::pair<uint64_t, size_t>> remaining;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] == nullptr) continue;
      remaining.emplace_back(
          live[i]->last_used_tick.load(std::memory_order_relaxed), i);
    }
    if (remaining.size() > options_.capacity) {
      std::sort(remaining.begin(), remaining.end());
      size_t excess = remaining.size() - options_.capacity;
      for (const auto& [last, i] : remaining) {
        if (excess == 0) break;
        if (!try_evict(i)) continue;
        evictions_capacity_.fetch_add(1, std::memory_order_relaxed);
        if (m_evict_cap_ != nullptr) m_evict_cap_->Increment();
        --excess;
      }
    }
  }
  return tick;
}

ServiceRegistry::Stats ServiceRegistry::GetStats() const {
  Stats s;
  s.tick = tick_.load(std::memory_order_relaxed);
  s.lookups_hit = lookups_hit_.load(std::memory_order_relaxed);
  s.lookups_miss = lookups_miss_.load(std::memory_order_relaxed);
  s.lookups_coalesced = lookups_coalesced_.load(std::memory_order_relaxed);
  s.retunes_cold = retunes_cold_.load(std::memory_order_relaxed);
  s.retunes_drift = retunes_drift_.load(std::memory_order_relaxed);
  s.evictions_ttl = evictions_ttl_.load(std::memory_order_relaxed);
  s.evictions_capacity = evictions_capacity_.load(std::memory_order_relaxed);
  s.warm_start_hits = warm_start_hits_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(map_mu_);
  s.live_apps = entries_.size();
  return s;
}

ServiceRegistry::AppRow ServiceRegistry::BuildRow(Entry& entry) {
  AppRow row;
  row.snapshot = entry.backend->service()->Snapshot();
  row.warm_started = entry.warm_started;
  row.last_used_tick = entry.last_used_tick.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(entry.mu);
  row.hits = entry.hits;
  row.coalesced = entry.coalesced;
  // The service only records tuned recommendations as "last"; prefer the
  // registry's record, which also covers reuse hits.
  if (entry.last_served.has_value()) {
    row.snapshot.last_datasize_gb = entry.last_served->first;
    row.snapshot.last_conf =
        sparksim::SparkPropertiesToString(entry.last_served->second);
  }
  return row;
}

std::vector<ServiceRegistry::AppRow> ServiceRegistry::AppRows() const {
  std::vector<AppRow> rows;
  for (const auto& entry : Entries()) rows.push_back(BuildRow(*entry));
  return rows;
}

std::optional<ServiceRegistry::AppRow> ServiceRegistry::GetAppRow(
    const std::string& app) const {
  const std::shared_ptr<Entry> entry = Find(app);
  if (entry == nullptr) return std::nullopt;
  return BuildRow(*entry);
}

std::string ServiceRegistry::RenderStatusTable() const {
  const Stats s = GetStats();
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "registry: %zu live apps | tick %llu | warm starts %llu\n",
                s.live_apps, static_cast<unsigned long long>(s.tick),
                static_cast<unsigned long long>(s.warm_start_hits));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "lookups:  %llu hit | %llu miss | %llu coalesced\n",
      static_cast<unsigned long long>(s.lookups_hit),
      static_cast<unsigned long long>(s.lookups_miss),
      static_cast<unsigned long long>(s.lookups_coalesced));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "retunes:  %llu cold | %llu drift || evictions: %llu ttl | %llu cap\n",
      static_cast<unsigned long long>(s.retunes_cold),
      static_cast<unsigned long long>(s.retunes_drift),
      static_cast<unsigned long long>(s.evictions_ttl),
      static_cast<unsigned long long>(s.evictions_capacity));
  out += line;
  return out;
}

}  // namespace locat::core
