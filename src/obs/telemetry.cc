#include "obs/telemetry.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace locat::obs {
namespace {

/// Telemetry records name their source and phase "tuner"/"phase"; log and
/// fault records name them "component"/"msg".
bool IsTelemetry(std::string_view type) {
  return type == "iteration" || type == "phase";
}

/// Lowers `*best` to `v` when `v` is positive; 0 reads as "none yet".
void KeepBest(double* best, double v) {
  if (v > 0.0 && (*best <= 0.0 || v < *best)) *best = v;
}

}  // namespace

void Field::SetKey(std::string_view k) {
  const size_t n = std::min(k.size(), kKeySize - 1);
  std::memcpy(key, k.data(), n);
  key[n] = '\0';
}

Event::Event(std::string type, std::string source, std::string name,
             std::initializer_list<Field> fields)
    : type(std::move(type)), source(std::move(source)), name(std::move(name)) {
  for (const Field& f : fields) Add(f);
}

bool Event::Add(Field field) {
  if (size_ == kMaxFields) return false;
  fields_[size_++] = std::move(field);
  return true;
}

const Field* Event::Find(std::string_view key) const {
  for (const Field& f : fields()) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

double Event::Num(std::string_view key, double fallback) const {
  const Field* f = Find(key);
  return f != nullptr && f->kind != Field::Kind::kString ? f->num : fallback;
}

std::string_view FormatNumber(double v, char (&buf)[32]) {
  // Byte-identical to printf's "%.10g" (the standard specifies to_chars
  // with a precision as printf's conversion), without its locale and
  // format-string parsing.
  const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 10);
  return {buf, static_cast<size_t>(r.ptr - buf)};
}

void WriteJsonl(std::ostream& os, const Event& e) {
  const bool telemetry = IsTelemetry(e.type);
  os << "{\"type\":\"" << JsonEscape(e.type) << "\"";
  if (e.t_ns != 0) os << ",\"t_ns\":" << e.t_ns;
  if (!e.level.empty()) os << ",\"level\":\"" << JsonEscape(e.level) << "\"";
  os << (telemetry ? ",\"tuner\":\"" : ",\"component\":\"")
     << JsonEscape(e.source)
     << (telemetry ? "\",\"phase\":\"" : "\",\"msg\":\"") << JsonEscape(e.name)
     << "\"";
  char buf[32];
  for (const Field& f : e.fields()) {
    // Keys need no escaping: emitters use literals and the parser
    // rejects keys with quotes, backslashes or control bytes.
    os << ",\"" << f.key << "\":";
    if (f.kind == Field::Kind::kString) {
      os << "\"" << JsonEscape(f.str) << "\"";
    } else if (f.kind == Field::Kind::kBool) {
      os << (f.num != 0.0 ? "true" : "false");
    } else {
      os << FormatNumber(f.num, buf);
    }
  }
  os << "}\n";
}

void EmitPhase(Sink* sink, std::string source, const char* phase,
               std::initializer_list<Field> fields) {
  if (sink == nullptr) return;
  sink->Emit(Event("phase", std::move(source), phase, fields));
}

StatusOr<std::vector<Event>> ParseTelemetry(const std::string& text) {
  std::vector<Event> events;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fail = [&](const char* what) {
      return Status::InvalidArgument("telemetry line " +
                                     std::to_string(line_no) + ": " + what);
    };
    size_t i = 0;
    const auto skip_ws = [&] {
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
    };
    // Reads the string value whose opening quote is line[i]; false when
    // the closing quote is missing.
    const auto read_string = [&](std::string* out) {
      for (++i; i < line.size() && line[i] != '"'; ++i) {
        char c = line[i];
        if (c == '\\' && i + 1 < line.size()) {
          c = line[++i];
          if (c == 'n') c = '\n';
          if (c == 'r') c = '\r';
          if (c == 't') c = '\t';
          if (c == 'u' && i + 4 < line.size()) {  // \u00XX: a control byte
            c = static_cast<char>(
                std::strtol(line.substr(i + 1, 4).c_str(), nullptr, 16));
            i += 4;
          }
        }
        out->push_back(c);
      }
      if (i >= line.size()) return false;
      ++i;  // closing quote
      return true;
    };

    Event ev;
    skip_ws();
    if (i >= line.size() || line[i] != '{') return fail("expected '{'");
    ++i;
    for (bool first = true;; first = false) {
      skip_ws();
      if (i < line.size() && line[i] == '}') break;
      if (!first) {
        if (i >= line.size() || line[i] != ',') return fail("expected ','");
        ++i;
        skip_ws();
      }
      // Keys are plain: no quotes, backslashes or control bytes.
      if (i >= line.size() || line[i] != '"') return fail("expected key");
      const size_t end = line.find('"', i + 1);
      if (end == std::string::npos) return fail("unterminated key");
      const std::string_view key(line.data() + i + 1, end - i - 1);
      for (const char c : key) {
        if (c == '\\' || static_cast<unsigned char>(c) < 0x20) {
          return fail("unsupported character in key");
        }
      }
      if (key.size() >= Field::kKeySize) return fail("key too long");
      i = end + 1;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      if (i >= line.size()) return fail("missing value");
      Field f;
      f.SetKey(key);
      if (line[i] == '"') {
        f.kind = Field::Kind::kString;
        if (!read_string(&f.str)) return fail("unterminated string value");
      } else if (line.compare(i, 4, "true") == 0 ||
                 line.compare(i, 5, "false") == 0) {
        f.kind = Field::Kind::kBool;
        f.num = line[i] == 't' ? 1.0 : 0.0;
        i += line[i] == 't' ? 4 : 5;
      } else {
        const char* start = line.c_str() + i;
        char* num_end = nullptr;
        f.num = std::strtod(start, &num_end);
        if (num_end == start) return fail("malformed value");
        i += static_cast<size_t>(num_end - start);
      }

      // The record's own keys are lifted out of the fields; "type" leads
      // every line WriteJsonl writes, and it decides the source and name
      // keys of the rest.
      const bool is_str = f.kind == Field::Kind::kString;
      const bool telemetry = IsTelemetry(ev.type);
      if (first) {
        if (key != "type" || !is_str || f.str.empty()) {
          return fail("missing \"type\" field");
        }
        ev.type = std::move(f.str);
      } else if (is_str && key == (telemetry ? "tuner" : "component")) {
        ev.source = std::move(f.str);
      } else if (is_str && key == (telemetry ? "phase" : "msg")) {
        ev.name = std::move(f.str);
      } else if (is_str && key == "level") {
        ev.level = std::move(f.str);
      } else if (!is_str && key == "t_ns" && f.num > 0.0 && f.num < 1.8e19) {
        ev.t_ns = static_cast<uint64_t>(f.num);
      } else if (!ev.Add(std::move(f))) {
        return fail("too many fields");
      }
    }
    if (ev.type.empty()) return fail("missing \"type\" field");
    events.push_back(std::move(ev));
  }
  return events;
}

double TelemetryReport::MeterDrift() const {
  return meter_seconds > 0.0
             ? 100.0 * (total.eval_seconds - meter_seconds) / meter_seconds
             : 0.0;
}

StatusOr<TelemetryReport> SummarizeTelemetry(const std::vector<Event>& events) {
  TelemetryReport r;
  for (const Event& e : events) {
    if (e.type == "iteration") {
      if (r.tuner.empty()) r.tuner = e.source;
      auto agg =
          std::find_if(r.phases.begin(), r.phases.end(),
                       [&e](const auto& p) { return p.phase == e.name; });
      if (agg == r.phases.end()) agg = r.phases.insert(agg, {e.name});
      const double eval = e.Num("eval_seconds");
      ++agg->events;
      agg->eval_seconds += eval;
      // Only the first event after an MCMC refit carries its ensemble.
      if (e.Num("mcmc_ensemble") > 0.0) ++agg->refits;
      agg->fit_seconds += e.Num("dagp_fit_seconds");
      agg->acq_seconds += e.Num("acq_seconds");
      KeepBest(&agg->best_seconds, e.Num("incumbent_seconds"));
      if (e.Find("pred_log_sd") != nullptr) r.has_calibration = true;
      const double sd = e.Num("pred_log_sd");
      const double objective = e.Num("objective_seconds");
      if (sd > 0.0 && objective > 0.0) {
        const double z =
            std::abs(std::log(objective) - e.Num("pred_log_mean")) / sd;
        ++agg->calibrated;
        agg->abs_z_sum += z;
        if (z <= 1.0) ++agg->within_1sd;
        if (z <= 2.0) ++agg->within_2sd;
      }
      ++r.total.events;
      r.total.eval_seconds += eval;
    } else if (e.type != "phase") {
      continue;
    } else if (e.name == "summary") {
      ++r.summaries;
      r.meter_seconds += e.Num("optimization_seconds");
      r.meter_evaluations += e.Num("evaluations");
      KeepBest(&r.meter_best_seconds, e.Num("best_seconds"));
    } else if (e.name == "iicp") {
      if (e.Num("transferred") > 0.0) {
        ++r.iicp_transferred;
      } else {
        ++r.iicp_own;
      }
      r.iicp_params_sum += e.Num("selected_params");
      r.iicp_latent_sum += e.Num("latent_dim");
    } else if (e.name == "linalg") {
      r.linalg_backend_id = e.Num("backend_id");
    } else if (e.name == "serving") {
      r.serving.push_back(e);
    }
  }
  for (const auto& p : r.phases) {
    r.total.refits += p.refits;
    r.total.fit_seconds += p.fit_seconds;
    r.total.acq_seconds += p.acq_seconds;
  }
  if (r.total.events == 0 && r.serving.empty()) {
    return Status::InvalidArgument("no iteration events");
  }
  return r;
}

}  // namespace locat::obs
