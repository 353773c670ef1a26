#ifndef LOCAT_ML_GP_MODE_H_
#define LOCAT_ML_GP_MODE_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"

namespace locat::ml {

/// Process-wide surrogate scaling mode for the DAGP refit loop
/// (`--gp-mode` / `LOCAT_GP_MODE`). While the observation count stays at
/// or below the switch threshold, all modes share one refit schedule
/// (core::Dagp::Refit: full EI-MCMC refits on every 10% of growth of a
/// single-data-size history, rank-1 appends in between, and a full refit
/// every time once the history spans several data sizes), so tuner
/// output is bit-identical across modes there. Above it:
///
///   kExact       keeps refitting the full-history EI-MCMC surrogate every
///                iteration (O(n^3) per hyperparameter evaluation).
///   kIncremental freezes the hyperparameter ensemble at the threshold fit
///                and extends every member by rank-1 bordered Cholesky
///                appends — O(n^2) per new observation, no MCMC, no RNG
///                consumption.
///   kSparse      refits on a greedy max-min (farthest-point) subset of
///                the history, seeded at the incumbent — O(m^3) with m
///                capped at the inducing-set size, independent of n.
enum class GpMode {
  kExact = 0,
  kIncremental = 1,
  kSparse = 2,
};

/// The mode DAGP instances without an explicit per-instance override use.
/// Lazily initialized from LOCAT_GP_MODE on first use ("exact" |
/// "incremental" | "sparse"; unset = exact). Invalid values warn once on
/// stderr and fall back to exact.
GpMode ActiveGpMode();

/// Forces the process-wide mode. Thread-safe; takes effect at each
/// DAGP's next Refit.
void SetGpMode(GpMode m);

/// Parses "exact" | "incremental" | "sparse" (the LOCAT_GP_MODE /
/// --gp-mode values) and switches the process-wide mode.
Status SetGpModeByName(std::string_view name);

const char* GpModeName(GpMode m);
const char* ActiveGpModeName();

/// Observation count above which incremental/sparse modes stop doing full
/// refits. Lazily initialized from LOCAT_GP_THRESHOLD (default 240 — the
/// size where BENCH_linalg.json puts a full EI-MCMC fit at ~1.35 s even
/// on the AVX2 backend).
size_t GpSwitchThreshold();

/// Overrides the process-wide switch threshold (0 restores the default).
void SetGpSwitchThreshold(size_t n);

}  // namespace locat::ml

#endif  // LOCAT_ML_GP_MODE_H_
