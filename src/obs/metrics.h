#ifndef LOCAT_OBS_METRICS_H_
#define LOCAT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/labels.h"

namespace locat::obs {

/// Monotonically increasing value (events, totals). Thread-safe: one
/// relaxed fetch_add on the hot path (C++20 atomic<double>).
class Counter {
 public:
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  void Increment(double delta = 1.0) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus classic histogram semantics:
/// cumulative `le` buckets plus an implicit +Inf, with _sum and _count).
///
/// Lock-free: Observe is a bucket search plus three relaxed atomic adds,
/// so it can sit under the BO/simulator hot paths without serializing
/// threads. Reads (export, quantiles) are relaxed snapshots — exact once
/// writers quiesce, momentarily torn (count vs buckets) while they write,
/// which is fine for monitoring output.
class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending; an +Inf bucket is always
  /// appended implicitly.
  Histogram(std::string name, std::string help,
            std::vector<double> upper_bounds);

  void Observe(double value);

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket (non-cumulative) counts, last entry = +Inf bucket.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Histogram-derived quantile (q in [0,1]), linearly interpolated
  /// inside the winning bucket (the first bucket interpolates from 0 or
  /// from its negative upper bound; the +Inf bucket reports the largest
  /// finite bound). Returns 0 when the histogram is empty.
  double Quantile(double q) const;

 private:
  std::string name_;
  std::string help_;
  std::vector<double> upper_bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // upper_bounds_ + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket boundaries for latency-in-seconds histograms
/// (sub-millisecond through minutes, roughly x4 per step).
std::vector<double> LatencySecondsBuckets();

/// --- Labeled metric families -------------------------------------------
///
/// A family is one metric name with many children, one per LabelSet (e.g.
/// locat_runs_total{app="tpcds",status="failed"}). `WithLabels` registers
/// on first use and returns a stable child pointer; call sites cache the
/// pointer at wiring time so the hot path stays one relaxed atomic op —
/// the family lookup itself takes a mutex and is NOT for hot loops.

class CounterFamily {
 public:
  CounterFamily(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  Counter* WithLabels(const LabelSet& labels);

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  /// Children in label order (stable pointers; safe to read after return).
  std::vector<std::pair<LabelSet, const Counter*>> Children() const;

 private:
  std::string name_;
  std::string help_;
  mutable std::mutex mu_;
  std::map<LabelSet, std::unique_ptr<Counter>> children_;
};

class HistogramFamily {
 public:
  HistogramFamily(std::string name, std::string help,
                  std::vector<double> upper_bounds)
      : name_(std::move(name)),
        help_(std::move(help)),
        upper_bounds_(std::move(upper_bounds)) {}

  Histogram* WithLabels(const LabelSet& labels);

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  std::vector<std::pair<LabelSet, const Histogram*>> Children() const;

 private:
  std::string name_;
  std::string help_;
  std::vector<double> upper_bounds_;
  mutable std::mutex mu_;
  std::map<LabelSet, std::unique_ptr<Histogram>> children_;
};

/// Owner and exporter for all metrics of one tuning process.
///
/// Get*() registers on first use and returns a stable pointer; callers
/// cache the pointer at wiring time so the hot path is a single atomic
/// add. Exports as Prometheus text exposition format and as JSON. A
/// metric name must not be reused across kinds (plain vs family, counter
/// vs histogram, ...) — the exposition self-check rejects such output.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  /// Returns the existing histogram when `name` was registered before
  /// (the bounds of the first registration win).
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> upper_bounds);

  CounterFamily* GetCounterFamily(const std::string& name,
                                  const std::string& help = "");
  HistogramFamily* GetHistogramFamily(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upper_bounds);

  /// Prometheus text exposition (one # HELP/# TYPE pair and one or more
  /// sample lines per metric), name-sorted per kind, with help strings
  /// and label values escaped per the text-format spec. Always passes
  /// CheckPrometheusExposition.
  void WritePrometheus(std::ostream& os) const;

  /// Flat JSON object:
  /// {"counters":{...},"histograms":{...},
  ///  "families":{"<name>":{"kind":...,"children":[{"labels":{...},...}]}}}
  /// Histogram entries carry bucket counts plus derived p50/p95/p99.
  void WriteJson(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<CounterFamily>> counter_families_;
  std::map<std::string, std::unique_ptr<HistogramFamily>> histogram_families_;
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_METRICS_H_
