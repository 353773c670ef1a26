#ifndef LOCAT_SPARKSIM_SIMULATOR_H_
#define LOCAT_SPARKSIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sparksim/cluster.h"
#include "sparksim/config.h"
#include "sparksim/faults.h"
#include "sparksim/query_profile.h"

namespace locat::sparksim {

class EvalCache;

/// Tunable constants of the analytical cost model. Exposed so tests can
/// probe individual effects and ablation benches can switch them off.
struct SimParams {
  /// HDFS split size driving the scan task count, GB.
  double split_gb = 0.128;
  /// Driver-side dispatch overhead per task, seconds.
  double task_overhead_s = 0.0025;
  /// Extra per-reduce-task cost (shuffle index reads, connection setup,
  /// output commit), seconds. Makes very high partition counts pay, so
  /// the optimal sql.shuffle.partitions sits in the interior and moves
  /// with the data size.
  double reduce_task_overhead_s = 0.012;
  /// Per-core JVM throughput degradation beyond `contention_free_cores`
  /// cores per executor (allocation/lock contention in one heap).
  double core_contention = 0.06;
  int contention_free_cores = 6;
  /// User (non-unified) memory a task's code objects need, GB:
  /// user_mem_base + user_mem_per_core * cores. Starving it by pushing
  /// memory.fraction too high causes GC pressure — the reason Spark's
  /// default fraction is 0.6.
  double user_mem_base_gb = 0.4;
  double user_mem_per_core_gb = 0.05;
  /// Fixed per-query latency (planning, codegen, job submit), seconds.
  double query_latency_s = 0.8;
  /// Per-application submit overhead (context/executor startup), seconds.
  double app_submit_overhead_s = 25.0;
  /// Zstd compression ratio at level 1 (output bytes / input bytes);
  /// each additional level multiplies by compression_level_gain.
  double compression_ratio_l1 = 0.45;
  double compression_level_gain = 0.93;
  /// Compression CPU cost at level 1, core-seconds per (input) GB; each
  /// additional level multiplies by compression_level_cpu.
  double compression_cpu_l1 = 1.6;
  double compression_level_cpu = 1.35;
  /// Decompression CPU, core-seconds per GB.
  double decompression_cpu = 0.8;
  /// Map-side sort cost, core-seconds per shuffled GB (skipped when the
  /// bypass-merge threshold applies).
  double map_sort_cpu = 2.2;
  /// Disk write+read cost for spilled bytes, core-seconds per GB.
  double spill_cpu_per_gb = 18.0;
  /// Demand/available ratio beyond which tasks OOM and stages re-run.
  double oom_threshold = 2.0;
  /// Execution-time multiplier per unit of OOM severity.
  double oom_penalty = 5.0;
  /// Maximum total OOM multiplier (Yarn eventually kills the app; the
  /// paper treats those runs as extremely slow, not failed).
  double oom_penalty_cap = 10.0;
  /// GC base cost, seconds per GB allocated (young-gen churn).
  double gc_base_s_per_gb = 0.15;
  /// GC pressure penalty coefficient (thrashing when the working set
  /// approaches the usable heap).
  double gc_pressure_coeff = 10.0;
  /// Full-GC pause seconds per heap GB.
  double gc_pause_s_per_gb = 0.09;
  /// Run-to-run multiplicative noise (lognormal sigma). 0 disables noise.
  double noise_sigma = 0.06;

  SimParams() {}
};

/// Per-query outcome of one simulated run.
struct QueryMetrics {
  std::string name;
  double exec_seconds = 0.0;     // wall-clock, includes gc_seconds
  double gc_seconds = 0.0;       // JVM GC time attributed to this query
  double scan_seconds = 0.0;     // narrow-stage time
  double shuffle_seconds = 0.0;  // wide-stage time (network + reduce)
  double shuffle_gb = 0.0;       // bytes shuffled (uncompressed)
  double spill_gb = 0.0;         // bytes spilled to disk
  double scan_tasks = 0.0;       // map/scan tasks launched
  double task_waves = 0.0;       // scheduling waves across all stages
  bool oom = false;              // hit the OOM retry path
  /// Memory-pressure overshoot (pressure ratio / effective threshold);
  /// >= 1 means the OOM retry path fired. Part of the noise-free model
  /// output (cached), drives the fault layer's hard-kill decision.
  double oom_severity = 0.0;
  bool failed = false;           // query killed the app (fault injection)
  int retries = 0;               // fetch-failure stage retries
};

/// Aggregate outcome of one simulated application run.
struct AppRunResult {
  std::vector<QueryMetrics> per_query;
  double total_seconds = 0.0;  // sum of query times + submit overhead
  double gc_seconds = 0.0;
  double shuffle_gb = 0.0;
  bool any_oom = false;
  /// Fault-injection outcome. A failed run was killed mid-app:
  /// `per_query` holds only the queries that ran (the last one marked
  /// `failed`) and `total_seconds` is the partial time up to the kill.
  bool failed = false;
  int failed_at_query = -1;  // index into the run's query list
  int retries = 0;           // fetch-failure stage retries, whole run
  int lost_executors = 0;    // executors lost to the injected loss event
  std::string fail_reason;   // empty when !failed
};

/// Counters of the removed batch evaluation API; always zero.
struct BatchStats {
  uint64_t batch_lanes = 0;
};

/// Deterministic analytical simulator of a Spark SQL cluster. Replaces the
/// paper's physical ARM/x86 clusters (see DESIGN.md, Substitutions).
///
/// The model executes each query as a scan stage followed by
/// `num_shuffle_stages` wide stages, with first-order analytical effects
/// for: task-wave parallelism (executor.instances x executor.cores), I/O
/// floors, shuffle partitioning (sql.shuffle.partitions), unified-memory
/// spill and OOM cliffs (executor.memory / memory.fraction /
/// storageFraction / off-heap), shuffle & spill compression (zstd level),
/// broadcast-join elimination (autoBroadcastJoinThreshold), JVM GC
/// (allocation churn + heap-size pauses), and a tail of second-order
/// parameters (kryo buffers, locality wait, scheduler revive, codegen
/// fields, columnar cache, ...).
///
/// Same seed + same call sequence => identical results.
class ClusterSimulator {
 public:
  ClusterSimulator(const ClusterSpec& cluster, uint64_t seed,
                   SimParams params = SimParams());

  /// Runs one query and returns its metrics (no submit overhead).
  QueryMetrics RunQuery(const QueryProfile& query, const SparkConf& conf,
                        double datasize_gb);

  /// Runs a whole application (all queries, one submit overhead).
  /// Convenience wrapper over RunAppSubset: an injected app kill comes
  /// back as a result with `failed` set (partial metrics preserved)
  /// rather than a Status, so measurement-style callers keep working.
  AppRunResult RunApp(const SparkSqlApp& app, const SparkConf& conf,
                      double datasize_gb);

  /// Runs only the listed query indices (the RQA path of QCSA).
  /// Errors: InvalidArgument for a non-finite or non-positive datasize,
  /// OutOfRange for a query index outside the app. A fault-injected app
  /// kill is NOT an error — it returns ok() with result.failed set, so
  /// callers can bill the partial runtime and impute a censored cost.
  StatusOr<AppRunResult> RunAppSubset(const SparkSqlApp& app,
                                      const std::vector<int>& query_indices,
                                      const SparkConf& conf,
                                      double datasize_gb);

  /// Always zero: configurations are evaluated one RunAppSubset at a
  /// time, so there is no batch to count. The accessor stays until
  /// perfbench stops reading it.
  BatchStats engine_stats() const { return {}; }

  const ClusterSpec& cluster() const { return cluster_; }
  const SimParams& params() const { return params_; }

  /// Total runs performed (used by tests to check accounting).
  int64_t runs_performed() const { return runs_performed_; }

  /// Wires a tracer (null disables, the default). App runs then emit a
  /// wall-lane "sim/app" span plus a *simulated-time* timeline in
  /// obs::kSimulatedPid: one span per app/query/stage whose duration is
  /// the simulated Spark seconds (encoded at 1 simulated second = 1 ms of
  /// trace time), laid out back-to-back across runs. Purely
  /// observational: results and the noise RNG stream are unaffected.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Wires a memoizing evaluation cache (null disables, the default).
  /// The cache stores *noise-free* cost-model outputs keyed by
  /// (conf, datasize, query, cluster+params) fingerprints; the per-run
  /// noise factor is drawn and applied regardless of hit or miss, so
  /// every result — and the RNG stream — is bit-identical with the cache
  /// on or off. The same cache may be shared by many simulators (even
  /// with different seeds or noise sigmas) and is safe under concurrent
  /// app runs.
  void set_eval_cache(EvalCache* cache) { eval_cache_ = cache; }
  EvalCache* eval_cache() const { return eval_cache_; }

  /// Installs a fault-injection plan. Resets the dedicated fault RNG to
  /// spec.seed and clears the fault counters, so the schedule is a pure
  /// function of (spec, run order) — independent of the noise stream,
  /// thread count and cache state. With faults enabled the cache key
  /// space shifts by the plan fingerprint (failed runs additionally
  /// bypass insertion), so entries never leak across plans.
  void set_faults(const FaultSpec& spec);
  const FaultSpec& faults() const { return faults_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Wires a flight recorder (null disables, the default). Injected
  /// app-kill faults then record a "fault" event — which, when the
  /// recorder was configured with SetDumpOnFault, snapshots the window to
  /// disk at the moment of the kill. Purely observational.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

 private:
  /// Cost-model terms that depend only on the configuration (given this
  /// simulator's cluster and params), not on the query or the data size.
  /// Derived once per RunAppSubset / RunQuery call and shared by every
  /// query of the run; each keeps the exact expression SimulateQuery
  /// used to compute per query, so the outputs keep their bits.
  struct ConfTerms {
    int executors = 1;        // actually launched (Yarn may grant fewer)
    int cores_per_executor = 1;
    int slots = 1;            // executors * cores
    double heap_gb = 1.0;
    double overhead_gb = 0.0;
    double offheap_per_task_gb = 0.0;
    double pool_gb = 0.1;     // unified (execution + storage) memory
    double speed = 1.0;       // per-core speed after heap contention
    double comp_ratio = 1.0;  // zstd output/input bytes at the level
    double comp_cpu = 0.0;    // zstd core-seconds per GB at the level
    double gc_pause_s = 0.0;  // one full-GC pause
    double user_pressure = 0.0;  // user-memory shortfall ratio
    double user_thrash = 1.0;    // GC multiplier from that shortfall
    int codegen_max_fields = 0;
  };

  ConfTerms DeriveConfTerms(const SparkConf& conf) const;

  /// The per-query half of the cost model: pure and noise-free, const,
  /// draws no randomness, so app runs can evaluate queries concurrently
  /// and the output can be memoized across noise draws. `terms` is
  /// DeriveConfTerms(conf).
  QueryMetrics SimulateQuery(const QueryProfile& query, const SparkConf& conf,
                             const ConfTerms& terms,
                             double datasize_gb) const;

  /// Scales the noise-free metrics by one drawn lognormal factor,
  /// reproducing exactly the arithmetic the pre-memoization model applied
  /// inline (total scaled as a sum, then each component).
  static void ApplyNoise(QueryMetrics* m, double noise);

  /// SimulateQuery through the eval cache (straight call when no cache is
  /// wired). `terms` is DeriveConfTerms(conf) and `conf_fp` is
  /// FingerprintConf(conf), both hoisted by the caller so app runs derive
  /// and hash the configuration once, not per query.
  QueryMetrics EvaluateQuery(const QueryProfile& query, const SparkConf& conf,
                             const ConfTerms& terms, double datasize_gb,
                             uint64_t conf_fp) const;

  /// FingerprintApp(app), memoized for the app this simulator last
  /// simulated. Folding every query profile costs ~30 ns per query, which
  /// would dominate the app-level warm path, so the full fold runs only
  /// when the memo misses. The memo is keyed by the queries buffer
  /// (pointer + size) and guarded by the content fingerprints of the
  /// first and last query, so rebuilding an app in place — the only
  /// mutation pattern the codebase uses — re-fingerprints correctly;
  /// profiles of an app object must not be mutated mid-simulation.
  uint64_t AppFingerprint(const SparkSqlApp& app);

  /// Tail of RunAppSubset: aggregates `count` per-query metrics (noise
  /// already applied) into one AppRunResult and emits the simulated-time
  /// lane. `app_span` receives the wall-span summary args.
  AppRunResult FinishAppRun(const SparkSqlApp& app, const SparkConf& conf,
                            double datasize_gb, QueryMetrics* metrics,
                            size_t count, obs::ScopedSpan* app_span);

  ClusterSpec cluster_;
  SimParams params_;
  Rng noise_rng_;
  int64_t runs_performed_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  EvalCache* eval_cache_ = nullptr;
  /// CombineEnvFingerprint(cluster, params), computed once at
  /// construction.
  uint64_t env_fp_ = 0;
  /// Cache environment key actually used for lookups:
  /// CombineFaultFingerprint(env_fp_, fault plan). Equals env_fp_ when
  /// faults are off.
  uint64_t eval_env_fp_ = 0;
  /// Fault-injection plan + its dedicated RNG stream and counters.
  FaultSpec faults_;
  Rng fault_rng_{0};
  FaultStats fault_stats_;
  /// AppFingerprint memo (see the method comment).
  const void* app_fp_queries_data_ = nullptr;
  size_t app_fp_queries_size_ = 0;
  uint64_t app_fp_guard_ = 0;
  uint64_t app_fp_ = 0;
  /// Per-run scratch reused across RunAppSubset calls so the tuning hot
  /// loop stops allocating three vectors per evaluation. Safe because a
  /// simulator instance is driven from one thread at a time (the noise
  /// RNG already requires that).
  std::vector<int> scratch_valid_;
  std::vector<double> scratch_noises_;
  std::vector<QueryMetrics> scratch_metrics_;
  std::vector<int> scratch_all_;
  std::vector<double> scratch_fault_draws_;
  std::vector<char> scratch_missed_;
  /// Virtual-time cursor of the simulated lane (ns of trace time); app
  /// runs are appended back-to-back so the exported timeline reads as one
  /// continuous cluster schedule.
  uint64_t sim_lane_cursor_ns_ = 0;
};

}  // namespace locat::sparksim

#endif  // LOCAT_SPARKSIM_SIMULATOR_H_
