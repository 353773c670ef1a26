#ifndef LOCAT_HARNESS_EXPERIMENTS_H_
#define LOCAT_HARNESS_EXPERIMENTS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/tuning.h"
#include "sparksim/cluster.h"
#include "sparksim/eval_cache.h"
#include "sparksim/simulator.h"

namespace locat::harness {

/// Identifies one (tuner, application, cluster, data size) experiment.
struct CellSpec {
  std::string tuner;    // "LOCAT", "Tuneful", ..., "Tuneful+QIT", ...
  std::string app;      // "TPC-DS", "TPC-H", "Join", "Scan", "Aggregation"
  std::string cluster;  // "arm" or "x86"
  double datasize_gb = 100.0;
  uint64_t seed = 0;    // repetition salt

  /// The cell's identity. Its hash also seeds the cell's simulator, so
  /// the string must stay stable for results to stay reproducible.
  std::string Key() const;
};

/// Everything the figures need from one tuning run.
struct CellResult {
  double optimization_seconds = 0.0;  // simulated search cost
  double best_app_seconds = 0.0;      // full app under the tuned config
  double default_app_seconds = 0.0;   // full app under Spark defaults
  double gc_seconds = 0.0;            // GC time under the tuned config
  double csq_seconds = 0.0;           // tuned time spent in CSQ queries
  double ciq_seconds = 0.0;           // tuned time spent in CIQ queries
  int evaluations = 0;

  std::string Serialize() const;
  static bool Deserialize(const std::string& line, CellResult* out);
};

/// Builds the named cluster spec ("arm" / "x86").
sparksim::ClusterSpec MakeCluster(const std::string& name);

/// Builds the named application (Table 1 names).
sparksim::SparkSqlApp MakeApp(const std::string& name);

/// Builds a tuner by name. Supported: "LOCAT", "LOCAT-AP" (IICP off),
/// "Random", "Tuneful", "DAC", "GBO-RL", "QTune", and the Section 5.10
/// composites "<Baseline>+QCSA", "<Baseline>+IICP", "<Baseline>+QIT".
std::unique_ptr<core::Tuner> MakeTuner(const std::string& name,
                                       uint64_t seed_salt);

/// The four SOTA baselines in the paper's order.
const std::vector<std::string>& SotaTunerNames();

/// Runs experiment cells with an on-disk cache so every bench binary can
/// share one computation of the expensive comparison grid.
///
/// The cache lives at $LOCAT_CACHE_DIR/results.csv (default
/// ".locat_cache/results.csv" under the current directory) and is keyed by
/// the cell spec plus a cache-format version.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(std::string cache_path = "");
  ~ExperimentRunner();

  /// Returns the cell result, computing and caching it if missing.
  CellResult Run(const CellSpec& spec);

  /// Computes many cells, using up to `threads` worker threads (0 = one
  /// per hardware core, capped at the number of cells). Workers claim
  /// cells one at a time, so a few slow cells don't idle the others.
  /// Results are returned in input order.
  std::vector<CellResult> RunAll(const std::vector<CellSpec>& specs,
                                 int threads = 0);

  /// Looks up a cached cell without computing it. Returns true and fills
  /// `out` (may be null) when present.
  bool Find(const CellSpec& spec, CellResult* out) const;

  /// Inserts (or overwrites) a cell result, marking the cache dirty.
  void InsertResult(const CellSpec& spec, const CellResult& result);

  /// Always zero: the simulator has no evaluation cache. The accessor
  /// stays until perfbench's grid-sim workload stops reading it.
  sparksim::EvalCacheStats sim_cache_stats() const { return {}; }

  /// The canonical CSQ index set for an (app, cluster) pair, computed by
  /// a fixed-seed 30-sample QCSA (cached in memory for the process).
  std::vector<int> CanonicalCsq(const std::string& app,
                                const std::string& cluster);

  /// Flushes the cache to disk (also done by the destructor).
  void Save();

 private:
  CellResult Compute(const CellSpec& spec);
  void Load();

  std::string cache_path_;
  mutable std::mutex mu_;
  std::map<std::string, CellResult> cache_;
  std::map<std::string, std::vector<int>> csq_cache_;
  bool dirty_ = false;
};

/// Result of tuning one application across a sequence of data sizes with
/// a single (warm) LOCAT instance — the online adaptation path.
struct WarmSequenceResult {
  std::vector<double> datasizes_gb;
  std::vector<double> incremental_optimization_seconds;
  std::vector<double> best_app_seconds;
};

/// Tunes `app` at each data size in order, reusing the LOCAT state (DAGP
/// transfers across sizes). Not cached (cheap relative to the grid).
WarmSequenceResult RunLocatWarmSequence(const std::string& app,
                                        const std::string& cluster,
                                        const std::vector<double>& ds_list,
                                        uint64_t seed = 0);

}  // namespace locat::harness

#endif  // LOCAT_HARNESS_EXPERIMENTS_H_
