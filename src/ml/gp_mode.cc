#include "ml/gp_mode.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace locat::ml {
namespace {

constexpr size_t kDefaultSwitchThreshold = 240;

/// Initial mode from LOCAT_GP_MODE. Runs once, thread-safe via the
/// function-local static in ModeSlot() (same pattern as kern.cc's
/// LOCAT_SIMD backend slot).
GpMode InitialMode() {
  const char* env = std::getenv("LOCAT_GP_MODE");
  if (env == nullptr || *env == '\0') return GpMode::kExact;
  const std::string v(env);
  if (v == "incremental") return GpMode::kIncremental;
  if (v == "sparse") return GpMode::kSparse;
  if (v != "exact") {
    std::fprintf(stderr,
                 "locat: ignoring invalid LOCAT_GP_MODE=%s "
                 "(expected exact|incremental|sparse); using exact\n",
                 env);
  }
  return GpMode::kExact;
}

size_t InitialThreshold() {
  const char* env = std::getenv("LOCAT_GP_THRESHOLD");
  if (env == nullptr || *env == '\0') return kDefaultSwitchThreshold;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || parsed == 0) {
    std::fprintf(stderr,
                 "locat: ignoring invalid LOCAT_GP_THRESHOLD=%s "
                 "(expected a positive integer); using %zu\n",
                 env, kDefaultSwitchThreshold);
    return kDefaultSwitchThreshold;
  }
  return static_cast<size_t>(parsed);
}

std::atomic<GpMode>& ModeSlot() {
  static std::atomic<GpMode> slot(InitialMode());
  return slot;
}

std::atomic<size_t>& ThresholdSlot() {
  static std::atomic<size_t> slot(InitialThreshold());
  return slot;
}

}  // namespace

GpMode ActiveGpMode() { return ModeSlot().load(std::memory_order_acquire); }

void SetGpMode(GpMode m) { ModeSlot().store(m, std::memory_order_release); }

Status SetGpModeByName(std::string_view name) {
  if (name == "exact") {
    SetGpMode(GpMode::kExact);
    return Status::OK();
  }
  if (name == "incremental") {
    SetGpMode(GpMode::kIncremental);
    return Status::OK();
  }
  if (name == "sparse") {
    SetGpMode(GpMode::kSparse);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown gp mode '" + std::string(name) +
                                 "' (expected exact|incremental|sparse)");
}

const char* GpModeName(GpMode m) {
  switch (m) {
    case GpMode::kExact:
      return "exact";
    case GpMode::kIncremental:
      return "incremental";
    case GpMode::kSparse:
      return "sparse";
  }
  return "exact";
}

const char* ActiveGpModeName() { return GpModeName(ActiveGpMode()); }

size_t GpSwitchThreshold() {
  return ThresholdSlot().load(std::memory_order_acquire);
}

void SetGpSwitchThreshold(size_t n) {
  ThresholdSlot().store(n == 0 ? InitialThreshold() : n,
                        std::memory_order_release);
}

}  // namespace locat::ml
