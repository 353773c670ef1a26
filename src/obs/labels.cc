#include "obs/labels.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "obs/trace.h"

namespace locat::obs {
namespace {

void Canonicalize(std::vector<std::pair<std::string, std::string>>* kv) {
  std::stable_sort(kv->begin(), kv->end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Duplicate keys keep the last value given (stable sort preserves the
  // caller's order within one key).
  auto out = kv->begin();
  for (auto it = kv->begin(); it != kv->end(); ++it) {
    auto next = it + 1;
    if (next != kv->end() && next->first == it->first) continue;
    if (out != it) *out = std::move(*it);
    ++out;
  }
  kv->erase(out, kv->end());
}

}  // namespace

LabelSet::LabelSet(
    std::initializer_list<std::pair<std::string, std::string>> kv)
    : kv_(kv) {
  Canonicalize(&kv_);
}

LabelSet::LabelSet(std::vector<std::pair<std::string, std::string>> kv)
    : kv_(std::move(kv)) {
  Canonicalize(&kv_);
}

std::string LabelSet::ToPrometheus() const {
  if (kv_.empty()) return std::string();
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : kv_) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += PromEscapeLabelValue(v);
    out += '"';
  }
  out += '}';
  return out;
}

std::string LabelSet::ToPrometheus(const std::string& extra_key,
                                   const std::string& extra_value) const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : kv_) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += PromEscapeLabelValue(v);
    out += '"';
  }
  if (!first) out += ',';
  out += extra_key;
  out += "=\"";
  out += PromEscapeLabelValue(extra_value);
  out += "\"}";
  return out;
}

std::string LabelSet::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : kv_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(k);
    out += "\":\"";
    out += JsonEscape(v);
    out += '"';
  }
  out += '}';
  return out;
}

std::string PromEscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string PromEscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

bool ValidMetricName(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(s[0])) return false;
  for (size_t i = 1; i < s.size(); ++i) {
    if (!tail(s[i])) return false;
  }
  return true;
}

bool ValidLabelName(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  if (!head(s[0])) return false;
  for (size_t i = 1; i < s.size(); ++i) {
    if (!head(s[i]) && !std::isdigit(static_cast<unsigned char>(s[i]))) {
      return false;
    }
  }
  return true;
}

bool ParseSampleValue(const std::string& s, double* out) {
  if (s == "+Inf" || s == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  const char* start = s.c_str();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end == start + s.size() && !s.empty();
}

/// One parsed sample line.
struct Sample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // as written
  double value = 0.0;
};

/// Parses `name{k="v",...} value [timestamp]`; returns false with *err set
/// on any syntax violation.
bool ParseSampleLine(const std::string& line, Sample* out, std::string* err) {
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ' &&
         line[i] != '\t') {
    ++i;
  }
  out->name = line.substr(0, i);
  if (!ValidMetricName(out->name)) {
    *err = "invalid metric name '" + out->name + "'";
    return false;
  }
  out->labels.clear();
  if (i < line.size() && line[i] == '{') {
    ++i;
    bool first = true;
    while (true) {
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      if (!first) {
        if (i >= line.size() || line[i] != ',') {
          *err = "expected ',' between labels";
          return false;
        }
        ++i;
        // A trailing comma before '}' is legal in the exposition format.
        if (i < line.size() && line[i] == '}') {
          ++i;
          break;
        }
      }
      first = false;
      const size_t key_start = i;
      while (i < line.size() && line[i] != '=') ++i;
      if (i >= line.size()) {
        *err = "unterminated label pair";
        return false;
      }
      const std::string key = line.substr(key_start, i - key_start);
      if (!ValidLabelName(key)) {
        *err = "invalid label name '" + key + "'";
        return false;
      }
      ++i;  // '='
      if (i >= line.size() || line[i] != '"') {
        *err = "label value must be double-quoted";
        return false;
      }
      ++i;
      std::string value;
      bool closed = false;
      while (i < line.size()) {
        const char c = line[i];
        if (c == '\\') {
          if (i + 1 >= line.size()) {
            *err = "dangling backslash in label value";
            return false;
          }
          const char esc = line[i + 1];
          if (esc == '\\') {
            value += '\\';
          } else if (esc == '"') {
            value += '"';
          } else if (esc == 'n') {
            value += '\n';
          } else {
            *err = std::string("invalid escape '\\") + esc +
                   "' in label value";
            return false;
          }
          i += 2;
        } else if (c == '"') {
          closed = true;
          ++i;
          break;
        } else {
          value.push_back(c);
          ++i;
        }
      }
      if (!closed) {
        *err = "unterminated label value";
        return false;
      }
      out->labels.emplace_back(key, std::move(value));
    }
  }
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  const size_t val_start = i;
  while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
  const std::string value_str = line.substr(val_start, i - val_start);
  if (!ParseSampleValue(value_str, &out->value)) {
    *err = "malformed sample value '" + value_str + "'";
    return false;
  }
  // Optional timestamp: must be an integer if present.
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i < line.size()) {
    const size_t ts_start = i;
    if (line[i] == '-' || line[i] == '+') ++i;
    while (i < line.size() && std::isdigit(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i != line.size() || i == ts_start) {
      *err = "trailing garbage after sample value";
      return false;
    }
  }
  return true;
}

}  // namespace

Status CheckPrometheusExposition(const std::string& text) {
  std::map<std::string, std::string> types;      // name -> TYPE
  std::set<std::string> names_with_samples;      // base names sampled so far
  // Histogram state per (base name, serialized non-le labels).
  struct HistState {
    double last_bucket = -1.0;
    double last_le = -std::numeric_limits<double>::infinity();
    bool saw_inf = false;
    double inf_value = 0.0;
    bool saw_count = false;
    double count_value = 0.0;
    bool saw_sum = false;
  };
  std::map<std::string, HistState> hists;

  auto fail = [](int line_no, const std::string& what) {
    return Status::InvalidArgument("exposition line " +
                                   std::to_string(line_no) + ": " + what);
  };

  size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    const std::string line = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" | "# TYPE name kind" | arbitrary comment.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line[2] == 'T';
        const size_t name_start = 7;
        const size_t name_end = line.find(' ', name_start);
        const std::string name =
            line.substr(name_start, name_end == std::string::npos
                                        ? std::string::npos
                                        : name_end - name_start);
        if (!ValidMetricName(name)) {
          return fail(line_no, "invalid metric name in comment line");
        }
        if (is_type) {
          if (name_end == std::string::npos) {
            return fail(line_no, "# TYPE without a type");
          }
          const std::string kind = line.substr(name_end + 1);
          if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
              kind != "summary" && kind != "untyped") {
            return fail(line_no, "unknown metric type '" + kind + "'");
          }
          if (types.count(name) != 0) {
            return fail(line_no, "duplicate # TYPE for '" + name + "'");
          }
          if (names_with_samples.count(name) != 0) {
            return fail(line_no,
                        "# TYPE for '" + name + "' after its samples");
          }
          types[name] = kind;
        } else {
          // HELP text: a raw backslash must begin a \\ or \n escape.
          const std::string help =
              name_end == std::string::npos ? "" : line.substr(name_end + 1);
          for (size_t i = 0; i < help.size(); ++i) {
            if (help[i] != '\\') continue;
            if (i + 1 >= help.size() ||
                (help[i + 1] != '\\' && help[i + 1] != 'n')) {
              return fail(line_no, "invalid escape in HELP text");
            }
            ++i;
          }
        }
      }
      continue;
    }
    Sample s;
    std::string err;
    if (!ParseSampleLine(line, &s, &err)) return fail(line_no, err);
    // Resolve the base name: _bucket/_sum/_count of a TYPE'd histogram.
    std::string base = s.name;
    std::string suffix;
    for (const char* suf : {"_bucket", "_sum", "_count"}) {
      const std::string sufs(suf);
      if (base.size() > sufs.size() &&
          base.compare(base.size() - sufs.size(), sufs.size(), sufs) == 0) {
        const std::string candidate =
            base.substr(0, base.size() - sufs.size());
        const auto it = types.find(candidate);
        if (it != types.end() && it->second == "histogram") {
          base = candidate;
          suffix = sufs;
          break;
        }
      }
    }
    names_with_samples.insert(base);
    const auto type_it = types.find(base);
    if (type_it == types.end()) {
      return fail(line_no,
                  "sample for '" + base + "' without a preceding # TYPE");
    }
    if (type_it != types.end() && type_it->second == "histogram") {
      if (suffix.empty()) {
        return fail(line_no, "histogram '" + base +
                                 "' sampled without _bucket/_sum/_count");
      }
      // Key histogram series by their labels minus `le`.
      std::string le;
      std::vector<std::pair<std::string, std::string>> rest;
      for (const auto& [k, v] : s.labels) {
        if (k == "le" && suffix == "_bucket") {
          le = v;
        } else {
          rest.emplace_back(k, v);
        }
      }
      HistState& hs = hists[base + LabelSet(std::move(rest)).ToPrometheus()];
      if (suffix == "_bucket") {
        if (le.empty()) {
          return fail(line_no, "_bucket sample without an le label");
        }
        double le_value = 0.0;
        if (!ParseSampleValue(le, &le_value)) {
          return fail(line_no, "malformed le value '" + le + "'");
        }
        if (le_value <= hs.last_le) {
          return fail(line_no, "le values must be strictly ascending");
        }
        if (s.value < hs.last_bucket) {
          return fail(line_no, "cumulative bucket counts must not decrease");
        }
        hs.last_le = le_value;
        hs.last_bucket = s.value;
        if (std::isinf(le_value) && le_value > 0.0) {
          hs.saw_inf = true;
          hs.inf_value = s.value;
        }
      } else if (suffix == "_count") {
        hs.saw_count = true;
        hs.count_value = s.value;
      } else {
        hs.saw_sum = true;
      }
    }
  }
  for (const auto& [key, hs] : hists) {
    if (!hs.saw_inf) {
      return Status::InvalidArgument("histogram series " + key +
                                     " has no le=\"+Inf\" bucket");
    }
    if (!hs.saw_sum || !hs.saw_count) {
      return Status::InvalidArgument("histogram series " + key +
                                     " is missing _sum or _count");
    }
    if (hs.count_value != hs.inf_value) {
      return Status::InvalidArgument(
          "histogram series " + key +
          ": _count disagrees with the +Inf bucket");
    }
  }
  return Status::OK();
}

}  // namespace locat::obs
