// Shared pieces of the end-to-end benchmark: run options, the result
// record every workload fills, timing/quantile helpers, an output digest,
// and the self-time analysis of recorded spans.
#ifndef LOCAT_PERFBENCH_COMMON_H_
#define LOCAT_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sparksim/config.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for files the library writes (results caches).
  std::string tmp_dir = ".bench_build/perfbench/tmp";
  /// Tiny inputs: every code path and every metric, in a few seconds.
  bool smoke = false;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Geometric mean of positive values; 0 for an empty sample.
double GeoMean(const std::vector<double>& values);

/// FNV-1a over the raw bits of everything added, so any change in a
/// produced configuration or result shows up in the printed digest.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  void Add(const locat::sparksim::SparkConf& conf);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Everything one run reports. Workloads set metrics by name; main()
/// prints them all and run.py picks the ones the mode reports.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  /// Counts one output check; a failed check is printed to stderr and
  /// makes the run exit non-zero. Safe to call from several threads.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// A human-readable line printed above the JSON result.
  void Info(const std::string& line) { info.push_back(line); }

  std::mutex check_mu;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;
};

/// Times `build` — a pass's set-up before its first timed call — several
/// times after a few untimed warm-up calls, running the untimed `reset`
/// before each, and returns the fastest; the pass then uses what the last
/// `build` made. Set-up here takes microseconds to a millisecond, and its
/// timing is bimodal (on a 4-core x86-64 host the grid's reads about 50 or
/// 80 us, one mode holding for a whole pass), so a median flips between
/// the modes from run to run while the fastest sample does not; workloads
/// report the fastest over all passes.
double TimeSetup(const std::function<void()>& reset,
                 const std::function<void()>& build);

/// Peak resident set of the process (VmHWM) in MiB; 0 without /proc.
double PeakRssMb();

/// Repeats the workload's fixed unit of work ("pass", k = 0, 1, ...) to
/// fill `seconds`: the pass count, between `min_passes` and `max_passes`,
/// is fixed from how long the first call took, set-up and teardown
/// included, so the work measured never depends on how long the tail of
/// a run happened to take. Sets `peak_rss_mb` right after the first pass,
/// before allocator churn from later passes can add to it.
template <class PassOutput, class Fn>
std::vector<PassOutput> RunPasses(double seconds, int min_passes,
                                  int max_passes, Result* result, Fn pass) {
  std::vector<PassOutput> out;
  const auto t0 = Clock::now();
  out.push_back(pass(0));
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  const double fit = seconds / std::max(SecondsSince(t0), 1e-6);
  const int n =
      std::clamp(static_cast<int>(fit + 0.5), min_passes, max_passes);
  for (int k = 1; k < n; ++k) out.push_back(pass(k));
  return out;
}

/// Per-layer totals derived from recorded wall-lane spans. Self time of a
/// span is its duration minus its direct children's, computed per thread
/// lane from how spans nest; every span's self time is charged to the
/// module that owns it (see LayerOf in common.cc).
struct SpanTotals {
  std::map<std::string, double> self_s;  // module -> self seconds
  std::set<int> lanes;                   // thread lanes that hold spans
  double refits = 0.0;
  double refit_s = 0.0;
  double refit_n_max = 0.0;
  double density_evals = 0.0;
  double qcsa_s = 0.0;
  double iicp_s = 0.0;
  double session_s = 0.0;
  double sim_s = 0.0;

  double SelfSum() const;
  /// Adds the wall-lane spans of `events`. Spans named "tune" and
  /// "tune/..." belong to core/locat_tuner unless `baseline_tuners`, in
  /// which case they come from the baseline tuners (Random's "tune").
  void Add(const std::vector<locat::obs::TraceEvent>& events,
           bool baseline_tuners);
};

/// Work counted by the library's own counters during a traced pass.
struct LayerCounts {
  double tuner_evals = 0.0;  // LocatTuner observations
  double failed_evals = 0.0;
  double rqa_queries = 0.0;  // queries in each LOCAT tuner's RQA
  double session_evals = 0.0;
  double opt_h = 0.0;        // simulated optimization hours
  double app_runs = 0.0;     // application runs the workload asked for
  double query_cells = 0.0;  // (configuration, query) simulations
  double batch_lanes = 0.0;
};

/// Sets the span- and counter-derived per-layer metrics of a traced pass
/// and prints the self-time lines: per-module self time, the
/// reconciliation of their sum against the traced wall time of each lane,
/// and the overhead of tracing against untraced passes of the same
/// inputs. Metrics of layers the workload bypasses read zero.
void ReportLayers(const SpanTotals& spans, const LayerCounts& counts,
                  double traced_wall_s, double untraced_wall_s,
                  Result* result);

/// Validates `conf` against `space` as a checked output.
bool ValidConf(const locat::sparksim::ConfigSpace& space,
               const locat::sparksim::SparkConf& conf);

/// The three workloads.
void RunTuneCold(const RunOptions& opts, Result* result);
void RunGridSim(const RunOptions& opts, Result* result);
void RunServeDrift(const RunOptions& opts, Result* result);

}  // namespace perfbench

#endif  // LOCAT_PERFBENCH_COMMON_H_
