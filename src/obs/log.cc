#include "obs/log.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace locat::obs {
namespace {

std::string Fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

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
  jsonl_ = true;
  owned_os_.reset();
}

Status Log::OpenJsonlFile(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::app);
  if (!*file) {
    return Status::InvalidArgument("cannot open log file " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  os_ = file.get();
  jsonl_ = true;
  owned_os_ = std::move(file);
  return Status::OK();
}

void Log::SetRateLimit(double per_sec, double burst) {
  std::lock_guard<std::mutex> lock(mu_);
  rate_per_sec_ = per_sec;
  burst_ = burst > 0.0 ? burst : per_sec;
  tokens_ = burst_;
  last_refill_ns_ = MonotonicClock::Default()->NowNanos();
}

bool Log::TakeToken() {
  if (rate_per_sec_ <= 0.0) return true;
  const uint64_t now = MonotonicClock::Default()->NowNanos();
  const double elapsed_s =
      static_cast<double>(now - last_refill_ns_) * 1e-9;
  last_refill_ns_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_per_sec_);
  if (tokens_ < 1.0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    ++dropped_unreported_;
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

void Log::Write(LogLevel level, const char* component,
                const std::string& message,
                std::initializer_list<LogField> fields) {
  if (!Enabled(level) || level == LogLevel::kOff) return;
  const uint64_t t_ns = MonotonicClock::Default()->NowNanos();

  if (flight_ != nullptr) {
    flight_->Record("log", LogLevelName(level), component, message.c_str());
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!TakeToken()) return;
  const uint64_t dropped_note = dropped_unreported_;
  dropped_unreported_ = 0;
  written_.fetch_add(1, std::memory_order_relaxed);

  if (jsonl_ && os_ != nullptr) {
    std::ostream& os = *os_;
    os << "{\"type\":\"log\",\"t_ns\":" << t_ns << ",\"level\":\""
       << LogLevelName(level) << "\",\"component\":\"" << JsonEscape(component)
       << "\",\"msg\":\"" << JsonEscape(message) << "\"";
    for (const LogField& f : fields) {
      os << ",\"" << JsonEscape(f.key) << "\":";
      if (f.is_num) {
        os << Fmt(f.num);
      } else {
        os << "\"" << JsonEscape(f.str) << "\"";
      }
    }
    if (dropped_note > 0) os << ",\"dropped_before\":" << dropped_note;
    os << "}\n";
    os.flush();
    return;
  }

  // Human-readable stderr line.
  std::string line = WallTimestamp();
  line += ' ';
  const char* name = LogLevelName(level);
  line += static_cast<char>(std::toupper(static_cast<unsigned char>(name[0])));
  line += ' ';
  line += component;
  line += ": ";
  line += message;
  for (const LogField& f : fields) {
    line += ' ';
    line += f.key;
    line += '=';
    line += f.is_num ? Fmt(f.num) : f.str;
  }
  if (dropped_note > 0) {
    line += " (dropped ";
    line += std::to_string(dropped_note);
    line += " earlier records)";
  }
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace locat::obs
