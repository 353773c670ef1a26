#ifndef LOCAT_OBS_CLOCK_H_
#define LOCAT_OBS_CLOCK_H_

#include <cstdint>

namespace locat::obs {

/// Time source the tracer reads. Injectable so tests (and the determinism
/// suite) can drive traces from a fake clock and get byte-identical trace
/// files, while production uses the process steady clock.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds since an arbitrary fixed origin; must never go backwards.
  virtual uint64_t NowNanos() = 0;
};

/// std::chrono::steady_clock. Stateless; one shared instance suffices.
class MonotonicClock : public Clock {
 public:
  uint64_t NowNanos() override;

  /// Process-wide instance used when a Tracer is built without a clock.
  static MonotonicClock* Default();
};

/// Deterministic clock for tests: every reading advances time by a fixed
/// tick, so consecutive spans get strictly increasing, reproducible
/// timestamps without any wall-clock dependence.
class ManualClock : public Clock {
 public:
  explicit ManualClock(uint64_t start_ns = 0, uint64_t tick_ns = 1000)
      : now_ns_(start_ns), tick_ns_(tick_ns) {}

  uint64_t NowNanos() override {
    now_ns_ += tick_ns_;
    return now_ns_;
  }

 private:
  uint64_t now_ns_;
  uint64_t tick_ns_;
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_CLOCK_H_
