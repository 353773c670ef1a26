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
#include "obs/telemetry.h"

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

/// Leveled, thread-safe structured logger.
///
/// Each record is an obs::Event of type "log" (component as source, the
/// message as name, structured fields). Sinks: human-readable stderr (the
/// default) or JSONL to a stream/file through the telemetry encoder
/// ({"type":"log","t_ns":...,"level":...,...}), parseable by
/// obs::ParseTelemetry; an optional FlightRecorder tee mirrors every
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

  uint64_t written() const {
    return written_.load(std::memory_order_relaxed);
  }

  void Write(LogLevel level, const char* component, const std::string& message,
             std::initializer_list<Field> fields = {});

  void Debug(const char* component, const std::string& message,
             std::initializer_list<Field> fields = {}) {
    if (Enabled(LogLevel::kDebug)) {
      Write(LogLevel::kDebug, component, message, fields);
    }
  }
  void Info(const char* component, const std::string& message,
            std::initializer_list<Field> fields = {}) {
    if (Enabled(LogLevel::kInfo)) {
      Write(LogLevel::kInfo, component, message, fields);
    }
  }
  void Warn(const char* component, const std::string& message,
            std::initializer_list<Field> fields = {}) {
    if (Enabled(LogLevel::kWarn)) {
      Write(LogLevel::kWarn, component, message, fields);
    }
  }
  void Error(const char* component, const std::string& message,
             std::initializer_list<Field> fields = {}) {
    if (Enabled(LogLevel::kError)) {
      Write(LogLevel::kError, component, message, fields);
    }
  }

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::kOff)};
  std::atomic<uint64_t> written_{0};
  FlightRecorder* flight_ = nullptr;

  std::mutex mu_;
  std::ostream* os_ = nullptr;  // JSONL sink; null => stderr lines
  std::unique_ptr<std::ostream> owned_os_;
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_LOG_H_
