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

  /// All fields as one comma-separated line at full precision; perfbench's
  /// grid-sim digest hashes it.
  std::string Serialize() const;
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

/// The five tuners of Figures 11-14 and 18-20: LOCAT, then the four SOTA
/// baselines.
const std::vector<std::string>& ComparedTunerNames();

/// The five Table 1 applications in the paper's order.
const std::vector<std::string>& AppNames();

/// The input sizes the Section 5 figures sweep: 100 to 500 GB.
const std::vector<double>& GridSizesGb();

/// Every cell the Section 5 grid figures (2, 11-15 and 18-21) read, each
/// listed once: ComparedTunerNames() x AppNames() x GridSizesGb() x
/// {arm, x86}, LOCAT-AP on TPC-DS x86 at every size, and the twelve
/// Section 5.10 composites "<SOTA>+QCSA|+IICP|+QIT" on TPC-DS x86 500 GB.
std::vector<CellSpec> PaperGridSpecs();

/// Computed cells, read by identity instead of by position.
class GridResults {
 public:
  /// Pairs `specs[i]` with `results[i]`, the order RunAll returns. Aborts
  /// when the lengths differ or two specs share a Key().
  GridResults(const std::vector<CellSpec>& specs,
              std::vector<CellResult> results);

  /// The seed-0 cell (tuner, app, cluster, datasize_gb). A cell the
  /// results do not hold is a bug in the caller: it aborts, naming the
  /// cell, and never yields a default.
  const CellResult& At(const std::string& tuner, const std::string& app,
                       const std::string& cluster, double datasize_gb) const;

 private:
  std::map<std::string, CellResult> cells_;
};

/// Computes experiment cells. A cell's result depends only on its spec,
/// so every call recomputes it; there is no results cache.
class ExperimentRunner {
 public:
  /// The argument is ignored. It stays until perfbench's grid-sim
  /// workload stops passing a results path.
  explicit ExperimentRunner(std::string /*unused*/ = "") {}

  /// Computes one cell.
  CellResult Run(const CellSpec& spec);

  /// Computes many cells, using up to `threads` worker threads (0 = one
  /// per hardware core, capped at the number of cells). Workers claim
  /// cells one at a time, so a few slow cells don't idle the others.
  /// Results are returned in input order.
  std::vector<CellResult> RunAll(const std::vector<CellSpec>& specs,
                                 int threads = 0);

  /// Always zero: the simulator has no evaluation cache. The accessor
  /// stays until perfbench's grid-sim workload stops reading it.
  sparksim::EvalCacheStats sim_cache_stats() const { return {}; }

  /// The canonical CSQ index set for an (app, cluster) pair, computed by
  /// a fixed-seed 30-sample QCSA (cached in memory for the process).
  std::vector<int> CanonicalCsq(const std::string& app,
                                const std::string& cluster);

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<int>> csq_cache_;
};

/// Result of tuning one application across a sequence of data sizes with
/// a single (warm) LOCAT instance — the online adaptation path.
struct WarmSequenceResult {
  std::vector<double> datasizes_gb;
  std::vector<double> incremental_optimization_seconds;
  std::vector<double> best_app_seconds;
};

/// Tunes `app` at each data size in order, reusing the LOCAT state (DAGP
/// transfers across sizes).
WarmSequenceResult RunLocatWarmSequence(const std::string& app,
                                        const std::string& cluster,
                                        const std::vector<double>& ds_list,
                                        uint64_t seed = 0);

}  // namespace locat::harness

#endif  // LOCAT_HARNESS_EXPERIMENTS_H_
