#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "obs/clock.h"

// The ring is a per-slot seqlock: writers bump the slot stamp to odd
// before touching the payload and to even after; readers copy the payload
// between two stamp loads and discard the copy when the stamps disagree.
// The payload accesses are deliberately plain (the whole point is one
// wait-free memcpy-style write), so TSan reports them as races even
// though torn reads are detected and dropped. Exempt just the seqlock
// functions from instrumentation rather than suppressing the whole file.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LOCAT_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#endif
#endif
#if !defined(LOCAT_NO_SANITIZE_THREAD) && defined(__SANITIZE_THREAD__)
#define LOCAT_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#endif
#ifndef LOCAT_NO_SANITIZE_THREAD
#define LOCAT_NO_SANITIZE_THREAD
#endif

namespace locat::obs {
namespace {

// Byte loop rather than strncpy: sanitizer interceptors instrument libc
// string calls even inside no-sanitize functions, and the crash path
// should not depend on libc either.
LOCAT_NO_SANITIZE_THREAD
void CopyTruncated(char* dst, size_t dst_size, const char* src) {
  size_t i = 0;
  if (src != nullptr) {
    for (; i + 1 < dst_size && src[i] != '\0'; ++i) dst[i] = src[i];
  }
  dst[i] = '\0';
}

/// Escapes into a fixed buffer (no allocation — usable from the crash
/// path). Stops when the output buffer is full.
void EscapeInto(char* out, size_t out_size, const char* s) {
  size_t o = 0;
  for (const char* p = s; *p != '\0' && o + 7 < out_size; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      out[o++] = '\\';
      out[o++] = static_cast<char>(c);
    } else if (c < 0x20) {
      o += static_cast<size_t>(
          std::snprintf(out + o, out_size - o, "\\u%04x", c));
    } else {
      out[o++] = static_cast<char>(c);
    }
  }
  out[o] = '\0';
}

/// Formats one event as a JSON line into `buf`; returns the length.
int FormatEvent(char* buf, size_t buf_size, const FlightEvent& ev) {
  char msg[224];
  char comp[48];
  EscapeInto(msg, sizeof(msg), ev.message);
  EscapeInto(comp, sizeof(comp), ev.component);
  return std::snprintf(
      buf, buf_size,
      "{\"seq\":%llu,\"t_ns\":%llu,\"kind\":\"%s\",\"level\":\"%s\","
      "\"component\":\"%s\",\"message\":\"%s\",\"value\":%.10g}\n",
      static_cast<unsigned long long>(ev.seq),
      static_cast<unsigned long long>(ev.t_ns), ev.kind, ev.level, comp, msg,
      ev.value);
}

// Crash-handler state. Plain (not atomic) char array: written once before
// handlers are installed.
std::atomic<FlightRecorder*> g_global{nullptr};
char g_crash_path[256] = {0};

void CrashHandler(int signo) {
  FlightRecorder* recorder = g_global.load(std::memory_order_acquire);
  if (recorder != nullptr && g_crash_path[0] != '\0') {
    const int fd =
        ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      recorder->DumpToFd(fd);
      ::close(fd);
    }
  }
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (core dump, wait status, ...).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity), slots_(new Slot[capacity_]) {}

LOCAT_NO_SANITIZE_THREAD
void FlightRecorder::Record(const Event& event) {
  const auto fields = event.fields();
  const double value =
      !fields.empty() && fields[0].kind == Field::Kind::kNumber ? fields[0].num
                                                                : 0.0;
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  slot.stamp.store(2 * seq + 1, std::memory_order_release);
  FlightEvent& ev = slot.event;
  ev.seq = seq;
  ev.t_ns = MonotonicClock::Default()->NowNanos();
  CopyTruncated(ev.kind, sizeof(ev.kind), event.type.c_str());
  CopyTruncated(ev.level, sizeof(ev.level), event.level.c_str());
  CopyTruncated(ev.component, sizeof(ev.component), event.source.c_str());
  CopyTruncated(ev.message, sizeof(ev.message), event.name.c_str());
  ev.value = value;
  slot.stamp.store(2 * seq + 2, std::memory_order_release);
  if (!dump_on_fault_.empty() && std::strcmp(ev.kind, "fault") == 0) {
    // Best-effort: a failing dump must never disturb the recording path.
    (void)DumpToFile(dump_on_fault_);
  }
}

LOCAT_NO_SANITIZE_THREAD
std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t end = next_seq_.load(std::memory_order_acquire);
  const uint64_t begin =
      end > capacity_ ? end - capacity_ : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t seq = begin; seq < end; ++seq) {
    const Slot& slot = slots_[seq % capacity_];
    const uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
    if (s1 != 2 * seq + 2) continue;  // overwritten or mid-write
    FlightEvent ev = slot.event;
    const uint64_t s2 = slot.stamp.load(std::memory_order_acquire);
    if (s2 != s1) continue;  // torn read
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::WriteJsonl(std::ostream& os) const {
  char buf[512];
  for (const FlightEvent& ev : Snapshot()) {
    const int n = FormatEvent(buf, sizeof(buf), ev);
    os.write(buf, n);
  }
}

Status FlightRecorder::DumpToFile(const std::string& path) const {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot write flight dump to " + path);
  }
  DumpToFd(fd);
  ::close(fd);
  return Status::OK();
}

LOCAT_NO_SANITIZE_THREAD
void FlightRecorder::DumpToFd(int fd) const {
  const uint64_t end = next_seq_.load(std::memory_order_acquire);
  const uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  char buf[512];
  for (uint64_t seq = begin; seq < end; ++seq) {
    const Slot& slot = slots_[seq % capacity_];
    const uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
    if (s1 != 2 * seq + 2) continue;
    const FlightEvent ev = slot.event;
    const uint64_t s2 = slot.stamp.load(std::memory_order_acquire);
    if (s2 != s1) continue;
    const int n = FormatEvent(buf, sizeof(buf), ev);
    if (n > 0) {
      ssize_t off = 0;
      while (off < n) {
        const ssize_t w = ::write(fd, buf + off, static_cast<size_t>(n - off));
        if (w <= 0) return;
        off += w;
      }
    }
  }
}

void FlightRecorder::SetDumpOnFault(const std::string& path) {
  dump_on_fault_ = path;
}

FlightRecorder* FlightRecorder::InstallGlobal(size_t capacity) {
  FlightRecorder* existing = g_global.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  // Leaked deliberately: the recorder must outlive every thread and the
  // crash handler, and it is installed at most once per process.
  FlightRecorder* recorder = new FlightRecorder(capacity);
  g_global.store(recorder, std::memory_order_release);
  return recorder;
}

void FlightRecorder::InstallCrashHandlers(const std::string& path) {
  std::snprintf(g_crash_path, sizeof(g_crash_path), "%s", path.c_str());
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace locat::obs
