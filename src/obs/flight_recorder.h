#ifndef LOCAT_OBS_FLIGHT_RECORDER_H_
#define LOCAT_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace locat::obs {

/// One event in the flight-recorder ring. All payload fields are
/// fixed-size character arrays so recording never allocates and the
/// crash-signal dump path can format them without touching the heap.
struct FlightEvent {
  uint64_t seq = 0;   // global sequence number (monotonic)
  uint64_t t_ns = 0;  // steady-clock nanoseconds at record time
  char kind[8] = {0};       // "log" | "span" | "fault" | ...
  char level[8] = {0};      // log severity; "" otherwise
  char component[24] = {0};
  char message[104] = {0};  // truncated to fit
  double value = 0.0;       // generic numeric payload (duration, count...)
};

/// Fixed-size lock-free ring buffer of recent log/span/fault events — the
/// post-mortem "what happened just before this" record of a serving
/// process.
///
/// Writers claim a slot with one fetch_add and publish it with a per-slot
/// seqlock, so recording is wait-free for any number of threads. Readers
/// (Snapshot, the /flightz endpoint, the crash dump) walk the last
/// `capacity` sequence numbers and skip slots that are mid-write. Events
/// overwritten between claim and read are silently dropped — by design:
/// the recorder is a window, not a log.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 1024);

  /// Records one event; truncates every string to its field size. Safe
  /// from any thread; never allocates, never takes a lock.
  void Record(const char* kind, const char* level, const char* component,
              const char* message, double value = 0.0);

  /// Events still in the window, oldest first, ascending seq.
  std::vector<FlightEvent> Snapshot() const;

  /// One JSON object per event (JSONL), same order as Snapshot.
  void WriteJsonl(std::ostream& os) const;

  /// Dumps the window to `path` (truncating). Used by /flightz-style "on
  /// demand" dumps and by the fault hook.
  Status DumpToFile(const std::string& path) const;

  /// Dumps to an already-open file descriptor using only write(2) and
  /// stack buffers — the crash-signal path. Not signal-safe in the
  /// letter-of-POSIX sense (snprintf), but allocation-free and reentrant
  /// enough for a last-gasp dump.
  void DumpToFd(int fd) const;

  /// When set, every "fault" event immediately dumps the window to this
  /// path (the OOM app-kill hook of the simulator). Call before wiring
  /// the recorder into writers; not thread-safe against Record.
  void SetDumpOnFault(const std::string& path);

  uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// --- process-global instance & crash handlers -----------------------
  /// The global recorder is what the SIGSEGV/SIGABRT handlers dump; it is
  /// null until InstallGlobal runs. Install once, early (the CLI does it
  /// when --flight is given).
  static FlightRecorder* InstallGlobal(size_t capacity = 1024);

  /// Installs SIGSEGV/SIGABRT handlers that dump the global recorder to
  /// `path`, restore the default disposition and re-raise (so the crash
  /// still produces a core/exit status). No-op handlers when no global
  /// recorder is installed.
  static void InstallCrashHandlers(const std::string& path);

 private:
  struct Slot {
    /// Seqlock stamp: 0 = never written, odd = write in progress,
    /// 2*(seq+1) = published for sequence number `seq`.
    std::atomic<uint64_t> stamp{0};
    FlightEvent event;
  };

  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_seq_{0};
  std::string dump_on_fault_;
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_FLIGHT_RECORDER_H_
