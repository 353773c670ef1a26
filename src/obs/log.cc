#include "obs/log.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "obs/clock.h"
#include "obs/flight_recorder.h"

namespace locat::obs {
namespace {

/// Wall-clock timestamp "2026-08-08T12:34:56.789Z" for the stderr sink.
/// (The JSONL sink records monotonic t_ns instead, which is what the
/// flight recorder and trace lanes use — wall time only exists for
/// humans tailing stderr.)
std::string WallTimestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const int millis = static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          now.time_since_epoch())
          .count() %
      1000);
  std::tm tm_utc;
  gmtime_r(&secs, &tm_utc);
  char buf[40];
  const size_t n = std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm_utc);
  std::snprintf(buf + n, sizeof(buf) - n, ".%03dZ", millis);
  return buf;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "off";
}

StatusOr<LogLevel> ParseLogLevel(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return Status::InvalidArgument(
      "log level must be debug|info|warn|error|off, got '" + name + "'");
}

Log::Log() = default;
Log::~Log() = default;

Log* Log::Global() {
  static Log* log = new Log();  // leaked: outlives every logging thread
  return log;
}

void Log::SetJsonlSink(std::ostream* os) {
  std::lock_guard<std::mutex> lock(mu_);
  os_ = os;
  owned_os_.reset();
}

Status Log::OpenJsonlFile(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::app);
  if (!*file) {
    return Status::InvalidArgument("cannot open log file " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  os_ = file.get();
  owned_os_ = std::move(file);
  return Status::OK();
}

void Log::Write(LogLevel level, const char* component,
                const std::string& message,
                std::initializer_list<Field> fields) {
  if (!Enabled(level) || level == LogLevel::kOff) return;
  Event ev("log", component, message, fields);
  ev.level = LogLevelName(level);
  ev.t_ns = MonotonicClock::Default()->NowNanos();
  if (flight_ != nullptr) flight_->Record(ev);

  std::lock_guard<std::mutex> lock(mu_);
  written_.fetch_add(1, std::memory_order_relaxed);
  if (os_ != nullptr) {
    WriteJsonl(*os_, ev);
    os_->flush();
    return;
  }

  // Human-readable stderr line.
  std::string line = WallTimestamp();
  line += ' ';
  line +=
      static_cast<char>(std::toupper(static_cast<unsigned char>(ev.level[0])));
  line += ' ';
  line += component;
  line += ": ";
  line += message;
  char buf[32];
  for (const Field& f : ev.fields()) {
    line += ' ';
    line += f.key;
    line += '=';
    if (f.kind == Field::Kind::kString) {
      line += f.str;
    } else {
      line += FormatNumber(f.num, buf);
    }
  }
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace locat::obs
