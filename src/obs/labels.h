#ifndef LOCAT_OBS_LABELS_H_
#define LOCAT_OBS_LABELS_H_

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace locat::obs {

/// Immutable, canonically ordered label key/value list — the identity of
/// one child inside a metric family (e.g. {app="tpcds",status="failed"}).
/// Keys are sorted at construction so two sets with the same pairs in any
/// order compare equal; a duplicate key keeps the last value given.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kv);
  explicit LabelSet(std::vector<std::pair<std::string, std::string>> kv);

  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return kv_;
  }
  bool empty() const { return kv_.empty(); }
  size_t size() const { return kv_.size(); }

  /// Prometheus exposition form: `{k1="v1",k2="v2"}` with label values
  /// escaped per the text format; "" for the empty set. `extra` appends
  /// one more pair (used for histogram `le` labels) and renders `{...}`
  /// even when the set itself is empty.
  std::string ToPrometheus() const;
  std::string ToPrometheus(const std::string& extra_key,
                           const std::string& extra_value) const;

  /// JSON object form: `{"k1":"v1","k2":"v2"}`.
  std::string ToJson() const;

  bool operator<(const LabelSet& o) const { return kv_ < o.kv_; }
  bool operator==(const LabelSet& o) const { return kv_ == o.kv_; }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;  // sorted by key
};

/// Escapes a Prometheus label *value*: `\` -> `\\`, `"` -> `\"`, newline
/// -> `\n` (the three escapes the text exposition format defines).
std::string PromEscapeLabelValue(const std::string& s);

/// Escapes a `# HELP` string: `\` -> `\\` and newline -> `\n` (quotes are
/// legal in help text and must NOT be escaped there).
std::string PromEscapeHelp(const std::string& s);

/// Validates a Prometheus text exposition payload: line grammar, metric
/// and label name charsets, label-value escaping, numeric sample values,
/// one `# TYPE` per metric (before its samples), and histogram structure
/// (cumulative non-decreasing buckets ending in le="+Inf", with matching
/// `_count` and a `_sum`, per label set). Returns OK for an empty payload.
/// Shared self-check of the exporters: tests and the CI smoke run every
/// scrape/snapshot through it.
Status CheckPrometheusExposition(const std::string& text);

}  // namespace locat::obs

#endif  // LOCAT_OBS_LABELS_H_
