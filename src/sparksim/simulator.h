#ifndef LOCAT_SPARKSIM_SIMULATOR_H_
#define LOCAT_SPARKSIM_SIMULATOR_H_

#include <cstdint>
#include <string_view>
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

/// Per-query outcome of one simulated run. Trivially copyable.
struct QueryMetrics {
  /// View of the query's name in the profile (or app) that was run: valid
  /// only while that profile lives.
  std::string_view name;
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
  /// output; drives the fault layer's hard-kill decision.
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

class ClusterSimulator;

/// The terms of one app's cost model that depend on the query and the
/// data size but not on the configuration: scanned GB, scan tasks, the
/// I/O floor, the storage need, the codegen field count, the shuffle
/// volume with its pow(ds/100, ds_exponent) and the broadcast side with
/// its sqrt. Derived by ClusterSimulator::DeriveSizeTerms for one app at
/// one data size. A run refuses terms derived by another simulator or
/// for another number of queries; that they were derived for the same
/// app is the caller's to keep. A caller that runs one app many times at
/// one size (TuningSession) derives them once and passes them to every
/// run.
class AppSizeTerms {
 public:
  double datasize_gb() const { return datasize_gb_; }

 private:
  friend class ClusterSimulator;
  struct Query {
    double scanned_gb = 0.0;
    double scan_tasks = 1.0;
    double scan_overhead_s = 0.0;  // scan_tasks * task_overhead_s
    double io_floor_s = 0.0;
    double storage_need = 0.0;     // share of the storage pool held
    double rescan_gb = 0.0;        // re-scanned bytes before pruning
    double scan_alloc_gb = 0.0;    // GC allocation of the scan
    int codegen_fields = 0;
    double shuffle_gb = 0.0;       // before a broadcast join
    double broadcast_shuffle_gb = 0.0;  // after one
    double bcast_mb = 0.0;
  };
  const ClusterSimulator* simulator_ = nullptr;  // that derived them
  double datasize_gb_ = 0.0;
  std::vector<Query> queries_;
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
  /// The same at `sized.datasize_gb()`, with `sized` from
  /// DeriveSizeTerms(app, ...) on this simulator.
  AppRunResult RunApp(const SparkSqlApp& app, const AppSizeTerms& sized,
                      const SparkConf& conf);

  /// Runs only the listed query indices (the RQA path of QCSA).
  /// Errors: InvalidArgument for a non-finite or non-positive datasize,
  /// OutOfRange for a query index outside the app. A fault-injected app
  /// kill is NOT an error — it returns ok() with result.failed set, so
  /// callers can bill the partial runtime and impute a censored cost.
  /// Each query's name in the result views `app`.
  StatusOr<AppRunResult> RunAppSubset(const SparkSqlApp& app,
                                      const std::vector<int>& query_indices,
                                      const SparkConf& conf,
                                      double datasize_gb);
  /// The same at `sized.datasize_gb()`, with `sized` from
  /// DeriveSizeTerms(app, ...) on this simulator; InvalidArgument when
  /// another simulator derived `sized` or it holds another number of
  /// queries than `app`. Same bits as the call above, which derives the
  /// terms into scratch and makes this call.
  StatusOr<AppRunResult> RunAppSubset(const SparkSqlApp& app,
                                      const AppSizeTerms& sized,
                                      const std::vector<int>& query_indices,
                                      const SparkConf& conf);

  /// The (query, data size) terms of every query of `app` on this
  /// simulator. Pure: draws no randomness and counts no run.
  AppSizeTerms DeriveSizeTerms(const SparkSqlApp& app,
                               double datasize_gb) const;

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

  /// A no-op: there is no evaluation cache (see sparksim/eval_cache.h).
  void set_eval_cache(EvalCache*) {}

  /// Installs a fault-injection plan. Resets the dedicated fault RNG to
  /// spec.seed and clears the fault counters, so the schedule is a pure
  /// function of (spec, run order), independent of the noise stream.
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
  /// The model has three tiers: these terms once per run, the
  /// AppSizeTerms once per (app, data size), and SimulateQuery per query
  /// with only the arithmetic that needs both. Every hoisted term keeps
  /// the expression and operand order it had inside SimulateQuery
  /// (simulator.cc builds with -ffp-contract=off), so the outputs keep
  /// their bits.
  struct ConfTerms {
    int executors = 1;        // actually launched (Yarn may grant fewer)
    int cores_per_executor = 1;
    int slots = 1;            // executors * cores
    double heap_gb = 1.0;
    double overhead_gb = 0.0;
    double offheap_per_task_gb = 0.0;
    double pool_gb = 0.1;     // unified (execution + storage) memory
    double storage_unit_gb = 0.0;  // pool_gb * storageFraction
    double speed = 1.0;       // per-core speed after heap contention
    double comp_ratio = 1.0;  // zstd output/input bytes at the level
    double comp_cpu = 0.0;    // zstd core-seconds per GB at the level
    double gc_pause_s = 0.0;  // one full-GC pause
    double user_pressure = 0.0;  // user-memory shortfall ratio
    double user_thrash = 1.0;    // GC multiplier from that shortfall
    int codegen_max_fields = 0;
    // Scan stage.
    bool columnar_pruning = false;
    double columnar_cache_cpu = 0.0;  // core-s per cached GB re-read
    double rdd_tasks = 8.0;
    // Broadcast join.
    double broadcast_threshold = 0.0;
    bool broadcast_compress = false;
    double broadcast_block_mb = 1.0;
    // Shuffle stages.
    double partitions = 8.0;
    double kryo_factor = 1.0;
    bool prefer_smj = false;
    bool bypass_sort = false;
    bool radix_sort = false;
    bool agg_two_level = false;
    bool retain_group_columns = false;
    double cartesian_factor = 1.0;
    bool shuffle_compress = false;
    double zstd_buffer_factor = 1.0;
    double file_buffer_factor = 1.0;  // 32 KB / shuffle.file.buffer
    double fetch_denom = 1.0;         // network GB/s x connection factor
    double inflight_factor = 1.0;
    bool spill_compress = false;
    // OOM cliff from the overhead allocation.
    double oom_threshold = 1.0;       // after overhead adequacy
    double kill_multiplier = 1.0;     // stage retries from the kill risk
    bool kill_oom = false;            // kill risk > 0.5
    // GC.
    bool rdd_compress = false;
    double offheap_gc_factor = 1.0;   // allocation share left on heap
    double gc_executors = 1.0;        // max(1, executors)
    double full_gc_heap_gb = 0.4;     // max(0.4, pool_gb * 0.8)
    double user_gc_heap_gb = 0.5;     // max(0.5, heap_gb)
    // Latency.
    double shuffle_waves = 0.0;       // ceil(partitions setting / slots)
    double revive_s_per_wave = 0.0;
    double locality_s = 0.0;          // per (1 + shuffle stages), x 0.3
    double mmap_s = 0.0;
  };

  ConfTerms DeriveConfTerms(const SparkConf& conf) const;

  /// One query's size terms, as DeriveSizeTerms stores them.
  AppSizeTerms::Query DeriveQuerySizeTerms(const QueryProfile& query,
                                           double datasize_gb) const;
  /// DeriveSizeTerms into `sized`, reusing its storage.
  void FillSizeTerms(const SparkSqlApp& app, double datasize_gb,
                     AppSizeTerms* sized) const;

  /// The per-query tier of the cost model: pure and noise-free, const,
  /// draws no randomness. `terms` is DeriveConfTerms(conf) and `sized`
  /// DeriveQuerySizeTerms(query, datasize_gb).
  QueryMetrics SimulateQuery(const QueryProfile& query, const ConfTerms& terms,
                             const AppSizeTerms::Query& sized) const;

  /// 0..n-1 for `app`, in scratch_all_.
  const std::vector<int>& AllQueries(const SparkSqlApp& app);

  /// Scales the noise-free metrics' times by one drawn lognormal factor.
  static void ApplyNoise(QueryMetrics* m, double noise);

  /// Tail of RunAppSubset: aggregates `count` per-query metrics (noise
  /// already applied) into one AppRunResult and emits the simulated-time
  /// lane. `app_span` receives the wall-span summary args.
  AppRunResult FinishAppRun(const SparkSqlApp& app, const SparkConf& conf,
                            double datasize_gb, const QueryMetrics* metrics,
                            size_t count, obs::ScopedSpan* app_span);

  ClusterSpec cluster_;
  SimParams params_;
  double disk_bw_;  // cluster disk GB/s: disk_gbps * worker_nodes
  Rng noise_rng_;
  int64_t runs_performed_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  /// Fault-injection plan + its dedicated RNG stream and counters.
  FaultSpec faults_;
  Rng fault_rng_{0};
  FaultStats fault_stats_;
  /// Per-run scratch reused across RunAppSubset calls so the tuning hot
  /// loop does not allocate per evaluation. Safe because a simulator
  /// instance is driven from one thread at a time (the noise RNG already
  /// requires that).
  std::vector<QueryMetrics> scratch_metrics_;
  std::vector<int> scratch_all_;
  AppSizeTerms scratch_sized_;  // a one-shot run's size terms
  std::vector<double> scratch_fault_draws_;
  /// Virtual-time cursor of the simulated lane (ns of trace time); app
  /// runs are appended back-to-back so the exported timeline reads as one
  /// continuous cluster schedule.
  uint64_t sim_lane_cursor_ns_ = 0;
};

}  // namespace locat::sparksim

#endif  // LOCAT_SPARKSIM_SIMULATOR_H_
