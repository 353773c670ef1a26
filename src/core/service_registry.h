#ifndef LOCAT_CORE_SERVICE_REGISTRY_H_
#define LOCAT_CORE_SERVICE_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/online_service.h"
#include "core/qcsa.h"
#include "obs/metrics.h"
#include "sparksim/query_profile.h"

namespace locat::core {

/// Compact description of *what kind of workload* an application is, used
/// to pick warm-start donors for new tenants (the retrieval-augmented
/// transfer of Suri et al., PAPERS.md). Two sources feed it:
///   - static query-profile aggregates, available at admission time
///     (query-category mix, shuffle intensity, memory pressure, skew);
///   - the QCSA sensitivity signature, available once the donor finished
///     its cold start (how much of the app is configuration-sensitive).
/// All features are scaled to roughly [0, 1] so the unweighted Euclidean
/// distance treats them comparably.
struct AppFingerprint {
  math::Vector features;

  /// Builds the static part from the app's query profiles; the
  /// sensitivity slots start at zero ("unknown").
  static AppFingerprint FromProfile(const sparksim::SparkSqlApp& app);

  /// Fills in the sensitivity slots from a finished QCSA analysis.
  void AddSensitivity(const QcsaResult& qcsa, int num_queries);

  /// Euclidean distance between two fingerprints (both always have the
  /// same fixed dimension).
  static double Distance(const AppFingerprint& a, const AppFingerprint& b);
};

/// Everything the registry owns per application besides the service
/// itself: typically the simulator/session stack the service tunes
/// against. Destroyed when the entry is evicted and the last in-flight
/// reader drops it.
class AppBackend {
 public:
  virtual ~AppBackend() = default;
  /// The per-app tuning service; the registry serializes its mutators.
  virtual OnlineTuningService* service() = 0;
  /// The application profile (fingerprint source).
  virtual const sparksim::SparkSqlApp& app() const = 0;
};

/// Multi-tenant front door for OnlineTuningService: a registry serving
/// hundreds of applications whose input sizes drift over time (Section
/// 3.1 of the paper).
///
/// Request path. `Lookup(app, ds)` finds the app's entry in one
/// name-ordered map under a short map mutex, then takes the entry's mutex
/// and serves the service's published plan when it already covers the
/// size (a hit). Otherwise the request runs the tuning pass on a
/// background worker pool with per-app single-flight dedup: concurrent
/// requests for the same drifting app coalesce behind exactly one tuning
/// pass and are served from its published result. The entry mutex is not
/// held while the pass runs, so hits on other sizes of the same app are
/// served meanwhile.
///
/// Lock order. An entry's mutex is always taken before the map mutex,
/// and the transfer-store mutex is innermost. Readers that visit every
/// entry copy the entry list under the map mutex, release it, and only
/// then lock each entry.
///
/// Lifecycle. Cross-app-visible state — LRU/TTL eviction and the
/// transfer store warm starts read from — mutates ONLY inside
/// `AdvanceTick()`, which the driver calls at quiescent barriers (e.g.
/// between serve rounds), scanning entries in sorted-name order. Because
/// request timing can therefore never influence which apps are evicted
/// or which donors a warm start sees, served configurations are
/// bit-identical for any worker-pool size on a fixed request trace.
/// Evicted apps persist their observation history; re-admission seeds the
/// new tuner from it instead of cold-tuning from scratch.
class ServiceRegistry {
 public:
  struct Options {
    /// Maximum live apps; the excess is evicted (least-recently-used
    /// first) at the next AdvanceTick. 0 = unlimited.
    size_t capacity = 0;
    /// Evict apps idle for more than this many ticks. 0 = never.
    int ttl_ticks = 0;
    /// Cross-app transfer: seed new apps from the 3 nearest tuned apps'
    /// observation histories. `false` leaves every tuner byte-identical
    /// to a registry-less cold start.
    bool warm_start = true;
    /// Total transferred-observation cap per admission.
    size_t transfer_cap = 12;
    /// Tuning passes that may run at once, each on its own worker
    /// thread. 1 = run inline on the requesting thread (fully
    /// deterministic single-threaded mode).
    int tune_threads = 1;

    Options() {}
  };

  /// Creates the per-app backend on first lookup (and on re-admission
  /// after eviction). Returning null fails the lookup with
  /// InvalidArgument.
  using BackendFactory =
      std::function<std::unique_ptr<AppBackend>(const std::string& app)>;

  ServiceRegistry(BackendFactory factory, Options options = Options());
  ~ServiceRegistry();

  ServiceRegistry(const ServiceRegistry&) = delete;
  ServiceRegistry& operator=(const ServiceRegistry&) = delete;

  /// Returns the configuration to run `app` with at `datasize_gb`,
  /// admitting (and warm-starting) the app on first sight and tuning
  /// (single-flight, on the worker pool) when nothing close enough is
  /// published. Safe to call from any number of threads.
  StatusOr<sparksim::SparkConf> Lookup(const std::string& app,
                                       double datasize_gb);

  /// Feeds a finished production run back into `app`'s model. NotFound
  /// when the app was never admitted (or was evicted).
  Status ReportRun(const std::string& app, double datasize_gb,
                   const sparksim::SparkConf& conf, double observed_seconds);

  /// Reports a died production run (censored observation + graceful
  /// degradation, see OnlineTuningService::ReportFailedRun).
  Status ReportFailedRun(const std::string& app, double datasize_gb,
                         const sparksim::SparkConf& conf,
                         double partial_seconds = 0.0);

  /// Advances the registry clock one tick and commits all cross-app
  /// state in deterministic (sorted-name) order: refreshes the transfer
  /// store from tuned entries, applies TTL eviction, then trims to
  /// capacity evicting least-recently-used entries (older tick first,
  /// name as the tie-break). Call from the driver at quiescent barriers;
  /// entries busy in a tuning pass are skipped and retried next tick.
  /// Returns the new tick value.
  uint64_t AdvanceTick();

  /// Point-in-time registry counters for /statusz and benches.
  struct Stats {
    size_t live_apps = 0;
    uint64_t tick = 0;
    uint64_t lookups_hit = 0;
    uint64_t lookups_miss = 0;
    uint64_t lookups_coalesced = 0;
    uint64_t retunes_cold = 0;
    uint64_t retunes_drift = 0;
    uint64_t evictions_ttl = 0;
    uint64_t evictions_capacity = 0;
    uint64_t warm_start_hits = 0;
  };
  Stats GetStats() const;

  /// One serving row per live app, ordered by name: the service snapshot
  /// plus the registry's own per-app bookkeeping.
  struct AppRow {
    OnlineTuningService::StatusSnapshot snapshot;
    uint64_t hits = 0;       // served from the published plan, no tune
    uint64_t coalesced = 0;  // waiters served by another request's tune
    bool warm_started = false;
    uint64_t last_used_tick = 0;
  };
  std::vector<AppRow> AppRows() const;
  std::optional<AppRow> GetAppRow(const std::string& app) const;

  /// Monospace registry table for /statusz: live apps, lookup, retune and
  /// eviction counters, warm-start hits.
  std::string RenderStatusTable() const;

  /// Wires tracing/metrics into the registry and every current and
  /// future entry (services get the same context). Labeled families:
  ///   locat_registry_lookups_total{result="hit"|"miss"|"coalesced"}
  ///   locat_registry_retunes_total{reason="cold"|"drift"}
  ///   locat_registry_evictions_total{reason="ttl"|"capacity"}
  ///   locat_registry_warm_starts_total
  ///   locat_registry_lookup_seconds (histogram)
  /// Lookup latency is clocked exactly while a metrics registry is wired.
  void SetObservability(const obs::ObsContext& obs);

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<AppBackend> backend;
    bool warm_started = false;  // set at admission, before the map insert
    /// Serializes the service's mutators and guards the fields below it
    /// (all but `last_used_tick`). The in_flight flag extends the critical
    /// section over the (pool-executed) tuning pass without holding the
    /// mutex while it runs.
    std::mutex mu;
    std::condition_variable done;
    AppFingerprint fingerprint;
    bool tuning_in_flight = false;
    bool sensitivity_added = false;
    uint64_t hits = 0;
    uint64_t coalesced = 0;
    /// Size and conf of the last successful Lookup (the service only
    /// records tuned recommendations; reuse hits land here so the statusz
    /// "last conf" column covers every served request).
    std::optional<std::pair<double, sparksim::SparkConf>> last_served;
    /// Stamped by requests before they lock `mu` and read by the capacity
    /// sort in AdvanceTick without it.
    std::atomic<uint64_t> last_used_tick{0};
  };

  /// What an evicted (or tuned) app leaves behind for future warm starts.
  struct TransferRecord {
    AppFingerprint fingerprint;
    std::vector<LocatTuner::PriorObservation> observations;
    /// The app's CSQ indices and its IICP reduction (one shared,
    /// immutable object), handed to warm-started recipients: both are
    /// properties of the app, estimated from a budget the recipient's
    /// shrunken schedule cannot afford (see LocatTuner::TransferHint).
    LocatTuner::TransferHint hint;
  };

  /// The live entry for `app`, or null when it is not admitted.
  std::shared_ptr<Entry> Find(const std::string& app) const;

  /// Every live entry, in name order, copied under the map mutex.
  std::vector<std::shared_ptr<Entry>> Entries() const;

  /// Finds the entry for `app`, admitting it (with warm-start seeding)
  /// when absent. Never returns null on OK status.
  StatusOr<std::shared_ptr<Entry>> FindOrAdmit(const std::string& app);

  /// Builds the distance-weighted prior set for a new app from the
  /// transfer store; `hint` receives the nearest donor's transfer hint
  /// (left untouched when there is no donor). Caller holds
  /// `transfer_mu_`.
  std::vector<LocatTuner::PriorObservation> BuildPriorsLocked(
      const std::string& app, const AppFingerprint& fp,
      LocatTuner::TransferHint* hint) const;

  /// What `entry` hands future warm starts: its fingerprint, up to
  /// 4 x transfer_cap exported observations and its transfer hint.
  /// Caller holds `entry.mu`.
  TransferRecord MakeTransferRecord(const Entry& entry) const;

  /// Removes `entry` from the map and persists its history into the
  /// transfer store. Caller holds `entry->mu`.
  void EvictLocked(const Entry& entry);

  /// Assembles one AppRow from the entry's service snapshot plus the
  /// registry-side bookkeeping (taken under `entry.mu`).
  static AppRow BuildRow(Entry& entry);

  BackendFactory factory_;
  Options options_;
  /// Live entries by name. Guards only the map itself; see the class
  /// comment for the lock order.
  mutable std::mutex map_mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  common::ThreadPool tune_pool_;
  std::atomic<uint64_t> tick_{0};

  /// Donor knowledge: live tuned apps (refreshed each tick) and evicted
  /// apps (persisted until re-admission). Guarded by transfer_mu_; read
  /// only on admissions and ticks, never on a hit.
  mutable std::mutex transfer_mu_;
  std::map<std::string, TransferRecord> transfer_store_;
  std::map<std::string, TransferRecord> evicted_store_;

  // Always-on counters (relaxed atomics; metrics mirror them when wired).
  std::atomic<uint64_t> lookups_hit_{0};
  std::atomic<uint64_t> lookups_miss_{0};
  std::atomic<uint64_t> lookups_coalesced_{0};
  std::atomic<uint64_t> retunes_cold_{0};
  std::atomic<uint64_t> retunes_drift_{0};
  std::atomic<uint64_t> evictions_ttl_{0};
  std::atomic<uint64_t> evictions_capacity_{0};
  std::atomic<uint64_t> warm_start_hits_{0};

  /// Whether Lookup clocks its latency (a metrics registry is wired);
  /// stored with release after m_lookup_latency_ so a Lookup that reads
  /// true sees the histogram.
  std::atomic<bool> clock_latency_{false};

  obs::ObsContext obs_;
  obs::Counter* m_hit_ = nullptr;
  obs::Counter* m_miss_ = nullptr;
  obs::Counter* m_coalesced_ = nullptr;
  obs::Counter* m_retune_cold_ = nullptr;
  obs::Counter* m_retune_drift_ = nullptr;
  obs::Counter* m_evict_ttl_ = nullptr;
  obs::Counter* m_evict_cap_ = nullptr;
  obs::Counter* m_warm_starts_ = nullptr;
  obs::Histogram* m_lookup_latency_ = nullptr;
};

}  // namespace locat::core

#endif  // LOCAT_CORE_SERVICE_REGISTRY_H_
