#ifndef LOCAT_OBS_TELEMETRY_H_
#define LOCAT_OBS_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace locat::obs {

/// One key of an Event and its value: a number (bools are 0/1 numbers that
/// print as true/false) or a string. The key is stored inline, so a record
/// built from literal keys allocates nothing for them.
struct Field {
  static constexpr size_t kKeySize = 24;  // longest key: kKeySize - 1 bytes
  enum class Kind : uint8_t { kNumber, kBool, kString };

  Field() = default;
  Field(const char* k, double v) : num(v) { SetKey(k); }
  Field(const char* k, int v) : Field(k, static_cast<double>(v)) {}
  Field(const char* k, int64_t v) : Field(k, static_cast<double>(v)) {}
  Field(const char* k, bool v) : kind(Kind::kBool), num(v) { SetKey(k); }
  Field(const char* k, std::string v) : kind(Kind::kString), str(std::move(v)) {
    SetKey(k);
  }
  Field(const char* k, const char* v) : Field(k, std::string(v)) {}

  /// Copies `k`, truncated to kKeySize - 1 bytes.
  void SetKey(std::string_view k);

  char key[kKeySize] = {0};
  Kind kind = Kind::kNumber;
  double num = 0.0;
  std::string str;
};

/// The one observability record. A tuner's charged evaluation ("iteration")
/// and analysis result or summary ("phase"), a log line ("log") and a
/// simulator fault ("fault") are all an Event: a type, the source that
/// emitted it (tuner, app or log component), a name (phase label, or the
/// log/fault message), and up to kMaxFields ordered fields. The JSONL
/// sinks, the flight ring and `locat report` all read this one shape.
struct Event {
  static constexpr size_t kMaxFields = 24;

  Event() = default;
  Event(std::string type, std::string source, std::string name,
        std::initializer_list<Field> fields = {});

  /// Appends one field; returns false (and drops it) when the record is full.
  bool Add(Field field);
  std::span<const Field> fields() const { return {fields_.data(), size_}; }

  /// First field named `key`, or null.
  const Field* Find(std::string_view key) const;
  /// The number (or bool as 0/1) under `key`; `fallback` otherwise.
  double Num(std::string_view key, double fallback = 0.0) const;

  std::string type;    // "iteration" | "phase" | "log" | "fault"
  std::string source;  // tuner or app ("tuner" key); component otherwise
  std::string name;    // phase label ("phase" key); message ("msg") otherwise
  std::string level;   // log/fault severity; "" for telemetry
  uint64_t t_ns = 0;   // monotonic stamp of a log record; 0 for telemetry

 private:
  std::array<Field, kMaxFields> fields_;
  size_t size_ = 0;
};

/// Where events go. A null sink (the default everywhere) means telemetry
/// is off; emitters check for null *before* building an event, so the
/// disabled path builds and allocates nothing.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void Emit(const Event& event) = 0;
};

/// The one number format of every JSONL channel and the stderr log line
/// ("%.10g"); writes into `buf` and returns the text.
std::string_view FormatNumber(double v, char (&buf)[32]);

/// The one JSONL encoder: writes `event` as one flat JSON object line.
/// Keys, in order: "type"; "t_ns" and "level" when set; the source and
/// name as "tuner"/"phase" (iteration and phase records) or
/// "component"/"msg" (log and fault records); then the fields.
void WriteJsonl(std::ostream& os, const Event& event);

/// Writes one JSONL line per event to a stream, which must outlive the
/// sink. Emit is serialized, so concurrent tunes never interleave lines.
class JsonlSink : public Sink {
 public:
  explicit JsonlSink(std::ostream* os) : os_(os) {}
  void Emit(const Event& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    WriteJsonl(*os_, event);
  }

 private:
  std::mutex mu_;
  std::ostream* os_;
};

/// In-memory sink for tests: keeps every event.
class CollectingSink : public Sink {
 public:
  void Emit(const Event& event) override { events.push_back(event); }

  std::vector<Event> events;
};

/// Emits a "phase" record — a named analysis result or summary with flat
/// fields, e.g. {"csq":33,"ciq":71} for QCSA. No-op when `sink` is null.
void EmitPhase(Sink* sink, std::string source, const char* phase,
               std::initializer_list<Field> fields);

/// The one parser: reads JSONL written by WriteJsonl (flat objects whose
/// first key is "type") back into events; empty lines are skipped.
/// InvalidArgument on a malformed line, a missing or late "type", a key
/// with a quote, backslash or control byte or of kKeySize bytes or more,
/// or more than kMaxFields fields.
StatusOr<std::vector<Event>> ParseTelemetry(const std::string& text);

/// The per-phase audit of a telemetry file that `locat report` prints:
/// charged simulated seconds and the tuner's own wall time, per phase,
/// reconciled against the optimization-time meter.
struct TelemetryReport {
  /// Iteration records of one phase label, in first-seen order.
  struct Phase {
    std::string phase;
    int events = 0;
    int refits = 0;             // EI-MCMC refits (rank-1 appends not counted)
    double eval_seconds = 0.0;  // simulated seconds charged to the meter
    double fit_seconds = 0.0;   // surrogate (DAGP) fitting wall time
    double acq_seconds = 0.0;   // acquisition-scoring wall time
    double best_seconds = 0.0;  // lowest positive incumbent; 0 when none
    /// Calibration of the surrogate's prediction for each proposed,
    /// successful run (pred_log_sd > 0): z = (ln objective - mean) / sd.
    int calibrated = 0;
    double abs_z_sum = 0.0;
    int within_1sd = 0;
    int within_2sd = 0;
  };
  std::string tuner;  // of the first iteration record
  std::vector<Phase> phases;
  Phase total;  // sums over phases (best_seconds and calibration stay 0)
  /// True when iteration records carry the prediction keys
  /// (pred_log_mean, pred_log_sd); older telemetry does not.
  bool has_calibration = false;

  /// The meter, over every "summary" record: each tuning pass emits one,
  /// so multi-pass telemetry sums its passes' optimization seconds and
  /// evaluations and keeps the lowest positive best.
  int summaries = 0;
  double meter_seconds = 0.0;
  double meter_evaluations = 0.0;
  double meter_best_seconds = 0.0;

  int iicp_own = 0;          // reductions from a tune's own samples
  int iicp_transferred = 0;  // reductions handed over from a donor
  double iicp_params_sum = 0.0;
  double iicp_latent_sum = 0.0;

  double linalg_backend_id = -1.0;  // math::kern::Backend; -1 when absent

  std::vector<Event> serving;  // `locat serve`'s "serving" records

  /// Percent by which the iteration records' charged seconds miss the
  /// meter (0 when the meter reads 0).
  double MeterDrift() const;
};

/// Aggregates parsed telemetry. Records without a branch here (log lines,
/// the sim_engine and sim_cache phases older files carry) are skipped.
/// InvalidArgument when there is neither an iteration nor a serving record.
StatusOr<TelemetryReport> SummarizeTelemetry(const std::vector<Event>& events);

/// Bundle of observability sinks threaded through the stack. All pointers
/// are borrowed and may independently be null; a default-constructed
/// context disables everything.
struct ObsContext {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  Sink* observer = nullptr;

  bool any() const {
    return tracer != nullptr || metrics != nullptr || observer != nullptr;
  }
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_TELEMETRY_H_
