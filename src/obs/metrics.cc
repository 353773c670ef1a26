#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "obs/trace.h"

namespace locat::obs {
namespace {

std::string FormatNumber(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> upper_bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      upper_bounds_(std::move(upper_bounds)),
      counts_(new std::atomic<uint64_t>[upper_bounds_.size() + 1]) {
  assert(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()));
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(upper_bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target && counts[i] > 0) {
      if (i == upper_bounds_.size()) {
        // +Inf bucket: no upper edge to interpolate toward.
        return upper_bounds_.empty() ? 0.0 : upper_bounds_.back();
      }
      const double hi = upper_bounds_[i];
      const double lo =
          i > 0 ? upper_bounds_[i - 1] : std::min(0.0, hi);
      const double frac =
          (target - cumulative) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative = next;
  }
  return upper_bounds_.empty() ? 0.0 : upper_bounds_.back();
}

std::vector<double> LatencySecondsBuckets() {
  return {0.0001, 0.0005, 0.002, 0.01, 0.05, 0.2, 1.0, 5.0, 20.0, 60.0, 300.0};
}

Counter* CounterFamily::WithLabels(const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = children_.find(labels);
  if (it == children_.end()) {
    it = children_.emplace(labels, std::make_unique<Counter>(name_, help_))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<LabelSet, const Counter*>> CounterFamily::Children()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<LabelSet, const Counter*>> out;
  out.reserve(children_.size());
  for (const auto& [labels, child] : children_) {
    out.emplace_back(labels, child.get());
  }
  return out;
}

Histogram* HistogramFamily::WithLabels(const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = children_.find(labels);
  if (it == children_.end()) {
    it = children_
             .emplace(labels, std::make_unique<Histogram>(name_, help_,
                                                          upper_bounds_))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<LabelSet, const Histogram*>> HistogramFamily::Children()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<LabelSet, const Histogram*>> out;
  out.reserve(children_.size());
  for (const auto& [labels, child] : children_) {
    out.emplace_back(labels, child.get());
  }
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(name, help)).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>(name, help)).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(
                                name, help, std::move(upper_bounds)))
             .first;
  }
  return it->second.get();
}

CounterFamily* MetricsRegistry::GetCounterFamily(const std::string& name,
                                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_families_.find(name);
  if (it == counter_families_.end()) {
    it = counter_families_
             .emplace(name, std::make_unique<CounterFamily>(name, help))
             .first;
  }
  return it->second.get();
}

HistogramFamily* MetricsRegistry::GetHistogramFamily(
    const std::string& name, const std::string& help,
    std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_families_.find(name);
  if (it == histogram_families_.end()) {
    it = histogram_families_
             .emplace(name, std::make_unique<HistogramFamily>(
                                name, help, std::move(upper_bounds)))
             .first;
  }
  return it->second.get();
}

namespace {

void WriteHeader(std::ostream& os, const std::string& name,
                 const std::string& help, const char* type) {
  if (!help.empty()) {
    os << "# HELP " << name << " " << PromEscapeHelp(help) << "\n";
  }
  os << "# TYPE " << name << " " << type << "\n";
}

void WriteHistogramSamples(std::ostream& os, const std::string& name,
                           const LabelSet& labels, const Histogram& h) {
  const auto counts = h.bucket_counts();
  uint64_t cumulative = 0;
  for (size_t i = 0; i < h.upper_bounds().size(); ++i) {
    cumulative += counts[i];
    os << name << "_bucket"
       << labels.ToPrometheus("le", FormatNumber(h.upper_bounds()[i])) << " "
       << cumulative << "\n";
  }
  cumulative += counts.back();
  os << name << "_bucket" << labels.ToPrometheus("le", "+Inf") << " "
     << cumulative << "\n";
  os << name << "_sum" << labels.ToPrometheus() << " "
     << FormatNumber(h.sum()) << "\n";
  os << name << "_count" << labels.ToPrometheus() << " " << cumulative
     << "\n";
}

void WriteHistogramJson(std::ostream& os, const Histogram& h) {
  os << "{\"buckets\":[";
  const auto counts = h.bucket_counts();
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) os << ",";
    const std::string le = i < h.upper_bounds().size()
                               ? FormatNumber(h.upper_bounds()[i])
                               : std::string("\"+Inf\"");
    os << "[" << le << "," << counts[i] << "]";
  }
  os << "],\"sum\":" << FormatNumber(h.sum()) << ",\"count\":" << h.count()
     << ",\"p50\":" << FormatNumber(h.Quantile(0.50))
     << ",\"p95\":" << FormatNumber(h.Quantile(0.95))
     << ",\"p99\":" << FormatNumber(h.Quantile(0.99)) << "}";
}

}  // namespace

void MetricsRegistry::WritePrometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    WriteHeader(os, name, c->help(), "counter");
    os << name << " " << FormatNumber(c->value()) << "\n";
  }
  for (const auto& [name, fam] : counter_families_) {
    WriteHeader(os, name, fam->help(), "counter");
    for (const auto& [labels, child] : fam->Children()) {
      os << name << labels.ToPrometheus() << " "
         << FormatNumber(child->value()) << "\n";
    }
  }
  for (const auto& [name, g] : gauges_) {
    WriteHeader(os, name, g->help(), "gauge");
    os << name << " " << FormatNumber(g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    WriteHeader(os, name, h->help(), "histogram");
    WriteHistogramSamples(os, name, LabelSet(), *h);
  }
  for (const auto& [name, fam] : histogram_families_) {
    WriteHeader(os, name, fam->help(), "histogram");
    for (const auto& [labels, child] : fam->Children()) {
      WriteHistogramSamples(os, name, labels, *child);
    }
  }
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << FormatNumber(c->value());
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << FormatNumber(g->value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":";
    WriteHistogramJson(os, *h);
  }
  os << "},\"families\":{";
  first = true;
  for (const auto& [name, fam] : counter_families_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":{\"kind\":\"counter\",\"children\":[";
    bool cfirst = true;
    for (const auto& [labels, child] : fam->Children()) {
      if (!cfirst) os << ",";
      cfirst = false;
      os << "{\"labels\":" << labels.ToJson()
         << ",\"value\":" << FormatNumber(child->value()) << "}";
    }
    os << "]}";
  }
  for (const auto& [name, fam] : histogram_families_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name)
       << "\":{\"kind\":\"histogram\",\"children\":[";
    bool cfirst = true;
    for (const auto& [labels, child] : fam->Children()) {
      if (!cfirst) os << ",";
      cfirst = false;
      os << "{\"labels\":" << labels.ToJson() << ",\"histogram\":";
      WriteHistogramJson(os, *child);
      os << "}";
    }
    os << "]}";
  }
  os << "}}\n";
}

}  // namespace locat::obs
