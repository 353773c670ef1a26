#ifndef LOCAT_CORE_ONLINE_SERVICE_H_
#define LOCAT_CORE_ONLINE_SERVICE_H_

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "obs/metrics.h"

namespace locat::core {

/// The production loop the paper targets (Section 3.1: "a Spark SQL
/// application repeatedly runs many times with the size of input data
/// changing over time"), packaged as a service:
///
///   OnlineTuningService service(&session, options);
///   for each incoming run:
///     auto conf = service.RecommendedConf(todays_datasize_gb).value();
///     ... submit with conf; optionally report the outcome back ...
///     service.ReportRun(todays_datasize_gb, conf, observed_seconds);
///
/// The service owns one LocatTuner. The first recommendation triggers the
/// cold-start tuning pass; later recommendations for *new* data sizes run
/// a short warm adaptation only when the size differs enough from
/// anything tuned before (relative gap > kRetuneThreshold); otherwise the
/// nearest tuned configuration is reused instantly. Reported production
/// runs feed the DAGP as free observations.
///
/// Threading: the three mutators (RecommendedConf, ReportRun,
/// ReportFailedRun) must be externally serialized — the ServiceRegistry
/// does this with per-app single-flight; a single-threaded caller gets it
/// for free. Every mutator re-publishes an immutable state snapshot by
/// swapping one shared_ptr under a small plan mutex, so the const readers
/// (Snapshot, tuned_sizes, Published, PublishedReuse)
/// are safe to call concurrently with one running mutator from any
/// number of threads: each copies the pointer under the mutex and reads
/// the snapshot outside it.
class OnlineTuningService {
 public:
  struct Options {
    LocatTuner::Options tuner;

    Options() {}
  };

  /// Re-tune when the requested size differs from every tuned size by
  /// more than this relative factor. The gap is symmetric:
  /// |ds - tuned| / max(ds, tuned), so 100 -> 130 and 130 -> 100 make the
  /// same reuse decision.
  static constexpr double kRetuneThreshold = 0.25;

  /// `session` must outlive the service.
  OnlineTuningService(TuningSession* session, Options options = Options());

  /// Returns a configuration for this data size, tuning (cold or warm)
  /// when the service has nothing close enough yet. InvalidArgument when
  /// `datasize_gb` is not strictly positive.
  StatusOr<sparksim::SparkConf> RecommendedConf(double datasize_gb);

  /// Feeds an observed production run back into the model (not charged to
  /// the optimization meter — the run happened anyway). Improves later
  /// warm adaptations and remembers the conf as last-known-good for the
  /// nearest tuned size. InvalidArgument when `datasize_gb` or
  /// `observed_seconds` is NaN, infinite or not strictly positive — a
  /// corrupt measurement must never poison the DAGP.
  Status ReportRun(double datasize_gb, const sparksim::SparkConf& conf,
                   double observed_seconds);

  /// Reports that a production run with `conf` died (OOM kill, executor
  /// loss, ...). The config is fed to the tuner as a censored observation
  /// so the model steers away, and the service degrades gracefully: the
  /// nearest tuned size falls back to its last-known-good conf (or is
  /// forgotten entirely, forcing a re-tune on the next recommendation, if
  /// no good run was ever reported) and the region is marked penalized.
  /// InvalidArgument on a non-finite or non-positive `datasize_gb` or a
  /// negative/non-finite `partial_seconds`.
  Status ReportFailedRun(double datasize_gb, const sparksim::SparkConf& conf,
                         double partial_seconds = 0.0);

  /// Failed production runs reported so far.
  int failed_reports() const { return Published()->failed_reports; }


  /// Simulated time spent on tuning so far (the service's total
  /// optimization overhead).
  double optimization_seconds() const {
    return session_->optimization_seconds();
  }

  /// Number of cold/warm tuning passes performed.
  int tuning_passes() const { return Published()->tuning_passes; }

  /// Data sizes with a tuned configuration, ascending.
  std::vector<double> tuned_sizes() const;

  const LocatTuner& tuner() const { return tuner_; }

  /// Seeds the tuner with observations transferred from similar apps
  /// (cross-app warm start). Must run before the first RecommendedConf;
  /// later calls are no-ops. See LocatTuner::SeedPriorObservations.
  void SeedPriorObservations(std::vector<LocatTuner::PriorObservation> p) {
    tuner_.SeedPriorObservations(std::move(p));
  }

  /// Transfers a donor's CSQ set and IICP reduction, adopted during a
  /// warm-started cold start. See LocatTuner::SeedTransferHint.
  void SeedTransferHint(LocatTuner::TransferHint hint) {
    tuner_.SeedTransferHint(std::move(hint));
  }

  /// Exports up to `cap` of the tuner's successful observations for
  /// transfer to another app. See LocatTuner::ExportObservations.
  std::vector<LocatTuner::PriorObservation> ExportObservations(
      size_t cap) const {
    return tuner_.ExportObservations(cap);
  }

  /// Immutable serving plan, re-published by every mutator and readable
  /// from any thread. This is the structure the ServiceRegistry's lookup
  /// path consumes.
  struct PublishedState {
    std::map<double, sparksim::SparkConf> tuned;  // ds -> best conf
    std::map<double, int> penalized;              // tuned ds -> failures
    int recommendations = 0;
    int reuses = 0;
    int tuning_passes = 0;
    int failed_reports = 0;
    double last_datasize_gb = std::numeric_limits<double>::quiet_NaN();
    sparksim::SparkConf last_conf;
    bool has_last_conf = false;
    /// Session optimization meter at publish time, so concurrent readers
    /// never touch the session itself.
    double optimization_seconds = 0.0;
  };

  /// Current serving plan; never null. The snapshot stays valid (and
  /// immutable) for as long as the caller holds the shared_ptr, even
  /// across concurrent re-tunes.
  std::shared_ptr<const PublishedState> Published() const {
    std::lock_guard<std::mutex> lock(plan_mu_);
    return published_;
  }

  /// Reuse check on the published plan: the tuned conf closest to
  /// `datasize_gb` when its symmetric gap is within kRetuneThreshold,
  /// nullopt when the request must go through a (cold or warm) tuning
  /// pass. Does NOT count as a recommendation — callers that serve from it
  /// are expected to report it via the owning registry's bookkeeping.
  std::optional<sparksim::SparkConf> PublishedReuse(double datasize_gb) const;

  /// Key of the tuned size in `tuned` closest to `datasize_gb` when its
  /// symmetric gap is within `threshold`; NaN when nothing is close
  /// enough.
  static double NearestTunedKeyIn(
      const std::map<double, sparksim::SparkConf>& tuned, double datasize_gb,
      double threshold);

  /// Point-in-time serving state of this service, the row /statusz renders
  /// for each app.
  struct StatusSnapshot {
    std::string app;
    int recommendations = 0;
    int reuses = 0;
    int tuning_passes = 0;
    int failed_reports = 0;
    std::vector<double> tuned_sizes;
    /// NaN until the first recommendation.
    double last_datasize_gb = std::numeric_limits<double>::quiet_NaN();
    /// Spark-properties form of the last recommended conf ("" until the
    /// first recommendation).
    std::string last_conf;
    double recommend_p50_s = 0.0;
    double recommend_p95_s = 0.0;
    double recommend_p99_s = 0.0;
    /// Optimization meter as of the last mutation (see PublishedState).
    double optimization_seconds = 0.0;
  };
  /// The recommend-latency quantiles come from the labeled histogram a
  /// wired metrics registry holds; without one the recommend path never
  /// reads a clock and the quantiles are 0.
  StatusSnapshot Snapshot() const;

  /// Wires observability into the service and its tuner (the session is
  /// wired separately by whoever owns it). Purely observational. The
  /// service exports labeled families keyed by the session's app name:
  ///   locat_service_recommendations{app,source="reuse"|"tuned"}
  ///   locat_service_runs_total{app,status="ok"|"failed"}
  ///   locat_service_recommend_seconds{app}   (histogram)
  void SetObservability(const obs::ObsContext& obs);

 private:
  /// Key of the tuned size closest to `datasize_gb` when its symmetric
  /// gap is within kRetuneThreshold; NaN when nothing is close enough.
  double NearestTunedKey(double datasize_gb) const {
    return NearestTunedKeyIn(tuned_, datasize_gb, kRetuneThreshold);
  }

  /// Rebuilds the immutable snapshot from the mutable state and swaps it
  /// in. Called at the end of every mutator.
  void Publish();

  TuningSession* session_;
  LocatTuner tuner_;
  std::map<double, sparksim::SparkConf> tuned_;  // ds -> best conf
  /// Last conf that *finished* a reported production run, per tuned size —
  /// the fallback target when a recommended conf starts failing.
  std::map<double, sparksim::SparkConf> last_good_;
  std::map<double, int> penalized_;  // tuned ds -> failure reports
  int tuning_passes_ = 0;
  int failed_reports_ = 0;
  int recommendations_ = 0;
  int reuses_ = 0;
  double last_datasize_gb_ = std::numeric_limits<double>::quiet_NaN();
  sparksim::SparkConf last_conf_;
  bool has_last_conf_ = false;
  /// Guards only the `published_` pointer swap; never held while the
  /// snapshot is built or read.
  mutable std::mutex plan_mu_;
  std::shared_ptr<const PublishedState> published_;
  obs::ObsContext obs_;
  // Labeled children, resolved once at wiring time (app name is fixed for
  // the session) so the hot path stays one relaxed atomic op.
  obs::Counter* rec_reuse_ = nullptr;        // {app,source="reuse"}
  obs::Counter* rec_tuned_ = nullptr;        // {app,source="tuned"}
  obs::Counter* runs_ok_ = nullptr;          // {app,status="ok"}
  obs::Counter* runs_failed_ = nullptr;      // {app,status="failed"}
  /// {app}; RecommendedConf reads a clock only when it is set.
  obs::Histogram* recommend_latency_ = nullptr;
};

}  // namespace locat::core

#endif  // LOCAT_CORE_ONLINE_SERVICE_H_
