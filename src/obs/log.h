#ifndef LOCAT_OBS_LOG_H_
#define LOCAT_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "common/status.h"

namespace locat::obs {

class FlightRecorder;

/// Log severities, ascending. kOff disables everything (the default):
/// a disabled logger costs one relaxed atomic load per call site and
/// never reads a clock, allocates, or perturbs any RNG.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

const char* LogLevelName(LogLevel level);                     // "debug"...
StatusOr<LogLevel> ParseLogLevel(const std::string& name);    // + "off"

/// One structured field attached to a log record (numeric or string).
struct LogField {
  LogField(const char* k, double v) : key(k), num(v), is_num(true) {}
  LogField(const char* k, int v)
      : key(k), num(static_cast<double>(v)), is_num(true) {}
  LogField(const char* k, std::string v)
      : key(k), str(std::move(v)), is_num(false) {}
  LogField(const char* k, const char* v) : key(k), str(v), is_num(false) {}

  const char* key;
  double num = 0.0;
  std::string str;
  bool is_num;
};

/// Leveled, thread-safe structured logger.
///
/// Sinks: human-readable stderr (the default) or JSONL to a stream/file —
/// one flat JSON object per record ({"type":"log","level":...,...}),
/// parseable by obs::ParseTelemetry. An optional token bucket caps the
/// sustained record rate (drops are counted and reported on the next
/// record that passes); an optional FlightRecorder tee mirrors every
/// record into the crash window regardless of sink.
///
/// `Global()` is the process logger the CLI/harness write to; libraries
/// must tolerate it being off (the default) at zero cost.
class Log {
 public:
  Log();
  ~Log();

  static Log* Global();

  void SetLevel(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  /// Routes records to `os` as JSONL; `os` must outlive the logger.
  void SetJsonlSink(std::ostream* os);
  /// Opens `path` and routes records there as JSONL.
  Status OpenJsonlFile(const std::string& path);

  /// Mirrors every record into `recorder` (null disconnects).
  void SetFlightRecorder(FlightRecorder* recorder) {
    flight_ = recorder;
  }

  /// Token-bucket rate limit: at most `burst` records instantly and
  /// `per_sec` sustained; excess records are dropped (counted). 0
  /// disables limiting (the default).
  void SetRateLimit(double per_sec, double burst);

  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t written() const {
    return written_.load(std::memory_order_relaxed);
  }

  void Write(LogLevel level, const char* component, const std::string& message,
             std::initializer_list<LogField> fields = {});

  void Debug(const char* component, const std::string& message,
             std::initializer_list<LogField> fields = {}) {
    if (Enabled(LogLevel::kDebug)) {
      Write(LogLevel::kDebug, component, message, fields);
    }
  }
  void Info(const char* component, const std::string& message,
            std::initializer_list<LogField> fields = {}) {
    if (Enabled(LogLevel::kInfo)) {
      Write(LogLevel::kInfo, component, message, fields);
    }
  }
  void Warn(const char* component, const std::string& message,
            std::initializer_list<LogField> fields = {}) {
    if (Enabled(LogLevel::kWarn)) {
      Write(LogLevel::kWarn, component, message, fields);
    }
  }
  void Error(const char* component, const std::string& message,
             std::initializer_list<LogField> fields = {}) {
    if (Enabled(LogLevel::kError)) {
      Write(LogLevel::kError, component, message, fields);
    }
  }

 private:
  /// Takes one token; returns false (and counts a drop) when the bucket
  /// is empty. Called with mu_ held.
  bool TakeToken();

  std::atomic<int> level_{static_cast<int>(LogLevel::kOff)};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> written_{0};
  FlightRecorder* flight_ = nullptr;

  std::mutex mu_;
  std::ostream* os_ = nullptr;  // null => stderr sink
  bool jsonl_ = false;
  std::unique_ptr<std::ostream> owned_os_;
  // Token bucket (guarded by mu_).
  double rate_per_sec_ = 0.0;  // 0 => unlimited
  double burst_ = 0.0;
  double tokens_ = 0.0;
  uint64_t last_refill_ns_ = 0;
  uint64_t dropped_unreported_ = 0;
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_LOG_H_
