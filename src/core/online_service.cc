#include "core/online_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/clock.h"
#include "sparksim/properties_io.h"

namespace locat::core {

OnlineTuningService::OnlineTuningService(TuningSession* session,
                                         Options options)
    : session_(session),
      tuner_(options.tuner),
      // Published() must never return null, even before the first mutator.
      published_(std::make_shared<const PublishedState>()) {}

void OnlineTuningService::SetObservability(const obs::ObsContext& obs) {
  obs_ = obs;
  tuner_.SetObservability(obs);
  if (obs_.metrics != nullptr) {
    // Children are resolved here, once, so recording stays one relaxed
    // atomic op.
    const std::string& app = session_->app().name;
    obs::CounterFamily* rec = obs_.metrics->GetCounterFamily(
        "locat_service_recommendations",
        "RecommendedConf calls, by app and how they were answered");
    rec_reuse_ = rec->WithLabels(
        obs::LabelSet({{"app", app}, {"source", "reuse"}}));
    rec_tuned_ = rec->WithLabels(
        obs::LabelSet({{"app", app}, {"source", "tuned"}}));
    obs::CounterFamily* runs = obs_.metrics->GetCounterFamily(
        "locat_service_runs_total",
        "Production runs reported back to the service, by app and outcome");
    runs_ok_ = runs->WithLabels(
        obs::LabelSet({{"app", app}, {"status", "ok"}}));
    runs_failed_ = runs->WithLabels(
        obs::LabelSet({{"app", app}, {"status", "failed"}}));
    recommend_latency_ =
        obs_.metrics
            ->GetHistogramFamily(
                "locat_service_recommend_seconds",
                "Wall-clock latency of RecommendedConf, by app",
                obs::LatencySecondsBuckets())
            ->WithLabels(obs::LabelSet({{"app", app}}));
  } else {
    rec_reuse_ = nullptr;
    rec_tuned_ = nullptr;
    runs_ok_ = nullptr;
    runs_failed_ = nullptr;
    recommend_latency_ = nullptr;
  }
}

double OnlineTuningService::NearestTunedKeyIn(
    const std::map<double, sparksim::SparkConf>& tuned, double datasize_gb,
    double threshold) {
  // The gap is symmetric in the two sizes so the reuse decision does not
  // depend on which of the pair was tuned first (|ds - x| / max(ds, x)
  // instead of dividing by the tuned size).
  double best_gap = 1e300;
  double best_key = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [ds, conf] : tuned) {
    const double gap =
        std::fabs(ds - datasize_gb) / std::max(ds, datasize_gb);
    if (gap < best_gap) {
      best_gap = gap;
      best_key = ds;
    }
  }
  if (best_gap > threshold) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return best_key;
}

void OnlineTuningService::Publish() {
  auto next = std::make_shared<PublishedState>();
  next->tuned = tuned_;
  next->penalized = penalized_;
  next->recommendations = recommendations_;
  next->reuses = reuses_;
  next->tuning_passes = tuning_passes_;
  next->failed_reports = failed_reports_;
  next->last_datasize_gb = last_datasize_gb_;
  next->last_conf = last_conf_;
  next->has_last_conf = has_last_conf_;
  next->optimization_seconds = session_->optimization_seconds();
  std::shared_ptr<const PublishedState> prev = std::move(next);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    published_.swap(prev);
  }
  // `prev` (the superseded plan) is released here, outside the lock.
}

std::optional<sparksim::SparkConf> OnlineTuningService::PublishedReuse(
    double datasize_gb) const {
  if (!(datasize_gb > 0.0)) return std::nullopt;
  const std::shared_ptr<const PublishedState> plan = Published();
  const double key =
      NearestTunedKeyIn(plan->tuned, datasize_gb, kRetuneThreshold);
  if (std::isnan(key)) return std::nullopt;
  return plan->tuned.at(key);
}

StatusOr<sparksim::SparkConf> OnlineTuningService::RecommendedConf(
    double datasize_gb) {
  if (!(datasize_gb > 0.0)) {
    return Status::InvalidArgument(
        "RecommendedConf needs a strictly positive datasize_gb");
  }
  obs::ScopedSpan span(obs_.tracer, "service/recommend", "service");
  span.Arg("datasize_gb", datasize_gb);
  ++recommendations_;
  // Latency is only clocked when a histogram is wired: the disabled path
  // must never read a clock.
  obs::Histogram* latency = recommend_latency_;
  const uint64_t t0_ns =
      latency != nullptr ? obs::MonotonicClock::Default()->NowNanos() : 0;
  auto finish = [&](const sparksim::SparkConf& conf) -> sparksim::SparkConf {
    last_datasize_gb_ = datasize_gb;
    last_conf_ = conf;
    has_last_conf_ = true;
    Publish();
    if (latency != nullptr) {
      const uint64_t t1_ns = obs::MonotonicClock::Default()->NowNanos();
      latency->Observe(static_cast<double>(t1_ns - t0_ns) * 1e-9);
    }
    return conf;
  };
  const double key = NearestTunedKey(datasize_gb);
  if (!std::isnan(key)) {
    span.Arg("reused", 1.0);
    ++reuses_;
    if (rec_reuse_ != nullptr) rec_reuse_->Increment();
    return finish(tuned_.at(key));
  }
  span.Arg("reused", 0.0);
  const TuningResult result = tuner_.Tune(session_, datasize_gb);
  ++tuning_passes_;
  if (rec_tuned_ != nullptr) rec_tuned_->Increment();
  tuned_[datasize_gb] = result.best_conf;
  return finish(tuned_[datasize_gb]);
}

Status OnlineTuningService::ReportRun(double datasize_gb,
                                      const sparksim::SparkConf& conf,
                                      double observed_seconds) {
  if (!std::isfinite(datasize_gb) || datasize_gb <= 0.0) {
    return Status::InvalidArgument(
        "ReportRun needs a finite, strictly positive datasize_gb");
  }
  if (!std::isfinite(observed_seconds) || observed_seconds <= 0.0) {
    return Status::InvalidArgument(
        "ReportRun needs a finite, strictly positive observed_seconds");
  }
  tuner_.ObserveExternalRun(session_->space(), conf, datasize_gb,
                            observed_seconds);
  if (runs_ok_ != nullptr) runs_ok_->Increment();
  const double key = NearestTunedKey(datasize_gb);
  if (!std::isnan(key)) last_good_[key] = conf;
  Publish();
  return Status::OK();
}

Status OnlineTuningService::ReportFailedRun(double datasize_gb,
                                            const sparksim::SparkConf& conf,
                                            double partial_seconds) {
  if (!std::isfinite(datasize_gb) || datasize_gb <= 0.0) {
    return Status::InvalidArgument(
        "ReportFailedRun needs a finite, strictly positive datasize_gb");
  }
  if (!std::isfinite(partial_seconds) || partial_seconds < 0.0) {
    return Status::InvalidArgument(
        "ReportFailedRun needs a finite, non-negative partial_seconds");
  }
  obs::ScopedSpan span(obs_.tracer, "service/report_failed", "service");
  span.Arg("datasize_gb", datasize_gb);
  ++failed_reports_;
  if (runs_failed_ != nullptr) runs_failed_->Increment();
  tuner_.ObserveFailedExternalRun(session_->space(), conf, datasize_gb,
                                  partial_seconds);
  const double key = NearestTunedKey(datasize_gb);
  if (!std::isnan(key)) {
    ++penalized_[key];
    const auto good = last_good_.find(key);
    if (good != last_good_.end()) {
      // Graceful degradation: serve the last conf known to finish.
      tuned_[key] = good->second;
    } else {
      // Nothing ever finished here — forget the size so the next
      // recommendation triggers a fresh (warm) tuning pass.
      tuned_.erase(key);
    }
  }
  Publish();
  return Status::OK();
}

OnlineTuningService::StatusSnapshot OnlineTuningService::Snapshot() const {
  const std::shared_ptr<const PublishedState> plan = Published();
  StatusSnapshot snap;
  snap.app = session_->app().name;
  snap.recommendations = plan->recommendations;
  snap.reuses = plan->reuses;
  snap.tuning_passes = plan->tuning_passes;
  snap.failed_reports = plan->failed_reports;
  snap.tuned_sizes.reserve(plan->tuned.size());
  for (const auto& [ds, conf] : plan->tuned) snap.tuned_sizes.push_back(ds);
  snap.last_datasize_gb = plan->last_datasize_gb;
  snap.optimization_seconds = plan->optimization_seconds;
  if (plan->has_last_conf) {
    snap.last_conf = sparksim::SparkPropertiesToString(plan->last_conf);
  }
  if (recommend_latency_ != nullptr) {
    snap.recommend_p50_s = recommend_latency_->Quantile(0.50);
    snap.recommend_p95_s = recommend_latency_->Quantile(0.95);
    snap.recommend_p99_s = recommend_latency_->Quantile(0.99);
  }
  return snap;
}

std::vector<double> OnlineTuningService::tuned_sizes() const {
  const std::shared_ptr<const PublishedState> plan = Published();
  std::vector<double> sizes;
  sizes.reserve(plan->tuned.size());
  for (const auto& [ds, conf] : plan->tuned) sizes.push_back(ds);
  return sizes;
}

}  // namespace locat::core
