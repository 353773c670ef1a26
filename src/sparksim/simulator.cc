#include "sparksim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <utility>

namespace locat::sparksim {
namespace {

// Time to run `tasks` tasks totalling `core_seconds` of work on `slots`
// parallel slots, with the final wave stretched by the straggler factor
// `skew` (>= 1).
double WaveTime(double core_seconds, double tasks, double slots, double speed,
                double skew) {
  if (core_seconds <= 0.0 || tasks <= 0.0) return 0.0;
  slots = std::max(1.0, slots);
  const double per_task = core_seconds / tasks / std::max(0.05, speed);
  const double waves = std::ceil(tasks / slots);
  return per_task * (waves - 1.0 + std::max(1.0, skew));
}

// Deterministic pseudo "number of projected fields" for the codegen
// maxFields effect, derived from the query name.
int CodegenFields(const std::string& name) {
  const size_t h = std::hash<std::string>{}(name);
  return 50 + static_cast<int>(h % 150);
}

// Simulated seconds -> nanoseconds of simulated-lane trace time. The lane
// uses 1 simulated second = 1 ms of trace time so hour-long apps stay
// readable next to the wall-clock lane.
uint64_t SimLaneNs(double seconds) {
  return static_cast<uint64_t>(std::max(0.0, seconds) * 1e6);
}

std::string NumArg(const char* key, double value) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.9g", key, value);
  return buf;
}

}  // namespace

ClusterSimulator::ClusterSimulator(const ClusterSpec& cluster, uint64_t seed,
                                   SimParams params)
    : cluster_(cluster), params_(params), noise_rng_(seed) {}

void ClusterSimulator::set_faults(const FaultSpec& spec) {
  faults_ = spec;
  fault_rng_ = Rng(spec.seed);
  fault_stats_ = FaultStats{};
}

ClusterSimulator::ConfTerms ClusterSimulator::DeriveConfTerms(
    const SparkConf& conf) const {
  ConfTerms t;
  t.cores_per_executor = std::clamp(conf.GetInt(kExecutorCores), 1,
                                    cluster_.container_max_cores);
  t.heap_gb = std::max(1.0, conf.Get(kExecutorMemory));
  t.overhead_gb = std::max(0.384, conf.Get(kExecutorMemoryOverhead) / 1024.0);
  const bool offheap_on = conf.GetBool(kMemoryOffHeapEnabled);
  const double offheap_gb =
      offheap_on ? conf.Get(kMemoryOffHeapSize) / 1024.0 : 0.0;

  const double per_exec_mem = t.heap_gb + t.overhead_gb + offheap_gb;
  const int requested = std::max(1, conf.GetInt(kExecutorInstances));
  // Yarn grants only as many containers as the cluster can host.
  const int max_by_mem = std::max(
      1, static_cast<int>(cluster_.total_memory_gb() / per_exec_mem));
  const int max_by_cores =
      std::max(1, cluster_.total_cores() / t.cores_per_executor);
  t.executors = std::min({requested, max_by_mem, max_by_cores});
  t.slots = t.executors * t.cores_per_executor;

  // Spark unified memory: (heap - 300MB) * memory.fraction is shared by
  // execution and storage.
  t.pool_gb = std::max(0.1, (t.heap_gb - 0.3) * conf.Get(kMemoryFraction));
  t.offheap_per_task_gb = offheap_gb / t.cores_per_executor;

  // Cores sharing one JVM heap contend on allocation and locks beyond a
  // few cores per executor.
  const double contention =
      1.0 + params_.core_contention *
                std::max(0, t.cores_per_executor -
                                params_.contention_free_cores);
  t.speed = cluster_.core_speed / contention;

  // Compression of map output and spills at the zstd level.
  const int zlevel = std::clamp(conf.GetInt(kZstdLevel), 1, 5);
  t.comp_ratio = params_.compression_ratio_l1 *
                 std::pow(params_.compression_level_gain, zlevel - 1);
  t.comp_cpu = params_.compression_cpu_l1 *
               std::pow(params_.compression_level_cpu, zlevel - 1);

  t.gc_pause_s = params_.gc_pause_s_per_gb * std::pow(t.heap_gb, 1.1);
  // User-memory shortage: code objects live outside the unified pool, so
  // memory.fraction ~0.9 starves them and the collector runs hot.
  const double user_mem =
      std::max(0.02, (t.heap_gb - 0.3) * (1.0 - conf.Get(kMemoryFraction)));
  const double user_need =
      params_.user_mem_base_gb +
      params_.user_mem_per_core_gb * t.cores_per_executor;
  t.user_pressure = std::max(0.0, user_need / user_mem - 1.0);
  t.user_thrash = 1.0 + 3.0 * t.user_pressure;

  t.codegen_max_fields = conf.GetInt(kSqlCodegenMaxFields);
  return t;
}

QueryMetrics ClusterSimulator::SimulateQuery(const QueryProfile& query,
                                             const SparkConf& conf,
                                             const ConfTerms& terms,
                                             double datasize_gb) const {
  QueryMetrics m;
  m.name = query.name;

  // storageFraction protects cached blocks from eviction, shrinking what
  // shuffles can use; how much the query caches sets how much it holds.
  const double storage_need =
      0.25 + 0.65 * std::min(1.0, query.rescan_frac * 4.0);
  const double storage_pool_gb =
      terms.pool_gb * conf.Get(kMemoryStorageFraction) * storage_need;
  const double exec_avail = std::max(0.05, terms.pool_gb - storage_pool_gb);
  const double exec_mem_per_task_gb = exec_avail / terms.cores_per_executor;

  const double speed = terms.speed;
  const double slots = terms.slots;
  const double disk_bw = cluster_.disk_gbps * cluster_.worker_nodes;
  const double scanned_gb = datasize_gb * query.input_frac;

  // ---------------------------------------------------------------- scan
  const double scan_tasks =
      std::max(1.0, std::ceil(scanned_gb / params_.split_gb));
  double scan_cpu_per_gb = query.cpu_per_gb;

  // Whole-stage codegen falls back to interpreted mode when the plan has
  // more fields than sql.codegen.maxFields.
  if (CodegenFields(query.name) > terms.codegen_max_fields) {
    scan_cpu_per_gb *= 1.12;
  }

  // In-memory columnar cache for the re-scanned portion.
  double rescan_cost = 0.0;
  if (query.rescan_frac > 0.0) {
    double rescan_gb = scanned_gb * query.rescan_frac;
    if (conf.GetBool(kSqlInMemoryColumnarPruning)) rescan_gb *= 0.7;
    double cache_cpu = 2.0;  // core-s/GB reading cached columnar batches
    if (!conf.GetBool(kSqlInMemoryColumnarCompressed)) cache_cpu *= 0.9;
    const double batch = conf.Get(kSqlInMemoryColumnarBatchSize);
    cache_cpu *= 1.0 + 0.05 * (10000.0 / std::max(2500.0, batch) - 1.0);
    rescan_cost = rescan_gb * cache_cpu;
  }

  double scan_core_seconds = scanned_gb * scan_cpu_per_gb + rescan_cost;
  // A slice of map-side work runs at RDD parallelism
  // (spark.default.parallelism) rather than at split granularity.
  const double rdd_tasks = std::max(8.0, conf.Get(kDefaultParallelism));
  const double rdd_share = 0.2;
  const double scan_cpu_time =
      WaveTime(scan_core_seconds * (1.0 - rdd_share), scan_tasks, slots, speed,
               1.1) +
      WaveTime(scan_core_seconds * rdd_share, rdd_tasks, slots, speed, 1.1);
  const double io_floor = scanned_gb / disk_bw;
  m.scan_seconds = std::max(scan_cpu_time, io_floor) +
                   scan_tasks * params_.task_overhead_s;

  // ------------------------------------------------------------- shuffle
  double shuffle_time = 0.0;
  double spill_gb = 0.0;
  double oom_multiplier = 1.0;
  double shuffle_gb = 0.0;
  if (query.num_shuffle_stages > 0 && query.shuffle_ratio > 0.0) {
    shuffle_gb = scanned_gb * query.shuffle_ratio *
                 std::pow(datasize_gb / 100.0, query.ds_exponent);

    // Broadcast join: a small enough dimension table removes part of the
    // shuffle entirely.
    double broadcast_time = 0.0;
    if (query.broadcastable_mb > 0.0) {
      const double bcast_mb =
          query.broadcastable_mb * std::sqrt(datasize_gb / 100.0);
      if (bcast_mb * 1024.0 <= conf.Get(kSqlAutoBroadcastJoinThreshold)) {
        shuffle_gb *= 1.0 - query.broadcast_avoid_frac;
        double bcast_gb = bcast_mb / 1024.0;
        double bcast_cpu = 0.0;
        if (conf.GetBool(kBroadcastCompress)) {
          bcast_cpu = bcast_gb * params_.compression_cpu_l1;
          bcast_gb *= params_.compression_ratio_l1;
        }
        const double block_mb = std::max(1.0, conf.Get(kBroadcastBlockSize));
        const double piece_overhead =
            (bcast_mb / block_mb) * 0.002;  // torrent piece bookkeeping
        broadcast_time = bcast_gb * terms.executors / cluster_.network_gbps /
                             cluster_.worker_nodes +
                         bcast_cpu / speed + piece_overhead;
      }
    }

    const double partitions =
        std::max(8.0, conf.Get(kSqlShufflePartitions));
    const double stages = std::max(1, query.num_shuffle_stages);

    // ---- map side: serialize (+sort) (+compress) and write.
    double map_cpu = shuffle_gb * 1.2;  // serialization baseline
    const double kryo_max = std::max(16.0, conf.Get(kKryoBufferMax));
    const double kryo_buf = std::max(16.0, conf.Get(kKryoBuffer));
    map_cpu *= 1.0 + 0.08 * std::max(0.0, 64.0 / kryo_max - 0.5) +
               0.04 * std::max(0.0, 64.0 / kryo_buf - 0.5);

    const bool prefer_smj = conf.GetBool(kSqlPreferSortMergeJoin);
    const bool bypass_sort =
        partitions <= conf.Get(kShuffleSortBypassMergeThreshold);
    double mem_demand_factor = query.mem_per_task_factor;
    if (query.category == QueryCategory::kJoin && !prefer_smj) {
      // Shuffled hash join: no sort, but the hash table lives in memory.
      mem_demand_factor *= 1.6;
    } else if (!bypass_sort) {
      double sort_cpu = params_.map_sort_cpu;
      if (query.category == QueryCategory::kAggregation &&
          conf.GetBool(kSqlSortEnableRadixSort)) {
        sort_cpu *= 0.8;
      }
      map_cpu += shuffle_gb * sort_cpu;
    }
    if (query.category == QueryCategory::kAggregation) {
      if (conf.GetBool(kSqlCodegenAggTwoLevel)) map_cpu *= 0.88;
      if (conf.GetBool(kSqlRetainGroupColumns)) map_cpu *= 1.02;
    }
    if (query.has_cartesian) {
      // Larger in-memory cartesian buffers avoid re-computation.
      map_cpu *= 1.0 + 0.3 * (4096.0 /
                              std::max(512.0,
                                       conf.Get(kSqlCartesianProductThreshold)) -
                              0.5);
    }

    // Compression of map output.
    double wire_gb = shuffle_gb;
    if (conf.GetBool(kShuffleCompress)) {
      const double zbuf = std::max(8.0, conf.Get(kZstdBufferSize));
      map_cpu +=
          shuffle_gb * terms.comp_cpu * (1.0 + 0.05 * (32.0 / zbuf - 0.33));
      wire_gb = shuffle_gb * terms.comp_ratio;
    }
    // Small shuffle-file write buffers force extra flushes.
    const double file_buffer = std::max(8.0, conf.Get(kShuffleFileBuffer));
    map_cpu += shuffle_gb * 0.35 * (32.0 / file_buffer);

    const double map_time =
        WaveTime(map_cpu, scan_tasks, slots, speed, 1.15) + wire_gb / disk_bw;

    // ---- network fetch.
    const double conn_factor =
        std::min(1.0, 0.7 + 0.06 * conf.Get(kShuffleIoNumConnections));
    const double inflight_factor =
        0.9 + 0.1 * (48.0 / std::max(12.0, conf.Get(kReducerMaxSizeInFlight)));
    const double net_time =
        wire_gb / (cluster_.network_gbps * conn_factor) * inflight_factor;

    // ---- reduce side: decompress, (spill), aggregate/join.
    const double partition_gb = shuffle_gb / partitions;
    const double demand_gb = partition_gb * mem_demand_factor;
    const double avail_gb = exec_mem_per_task_gb + terms.offheap_per_task_gb;

    double reduce_cpu = shuffle_gb * query.shuffle_cpu_per_gb;
    if (conf.GetBool(kShuffleCompress)) {
      reduce_cpu += shuffle_gb * params_.decompression_cpu;
    }

    double spill_time = 0.0;
    if (demand_gb > avail_gb) {
      const double spill_ratio = 1.0 - avail_gb / demand_gb;
      // External sort/aggregation merges spilled runs in multiple passes
      // when memory is scarce; each pass re-reads the spilled bytes.
      const double merge_passes =
          1.0 + std::log2(std::max(1.0, demand_gb / avail_gb));
      spill_gb = shuffle_gb * spill_ratio * (1.0 + merge_passes);
      double spill_disk_gb = spill_gb;
      if (conf.GetBool(kShuffleSpillCompress)) {
        reduce_cpu += spill_gb * terms.comp_cpu * 0.8;
        spill_disk_gb *= terms.comp_ratio;
      }
      reduce_cpu += spill_gb * params_.spill_cpu_per_gb;
      spill_time = spill_disk_gb / disk_bw;
    }

    // OOM cliff: when per-task demand far exceeds what the executor can
    // give, tasks die, stages retry, Yarn may kill containers
    // (aggravated by a skimpy memoryOverhead).
    // Network buffers and JVM internals live in the overhead allocation;
    // it must scale with the heap and the fetch concurrency or Yarn kills
    // the container mid-stage.
    const double overhead_need =
        0.07 * terms.heap_gb + 0.3 +
        0.004 * conf.Get(kReducerMaxSizeInFlight) * terms.cores_per_executor;
    const double overhead_adequacy =
        std::min(1.0, terms.overhead_gb / overhead_need);
    const double eff_threshold =
        params_.oom_threshold * (0.45 + 0.55 * overhead_adequacy);
    // Containers with skimpy overhead get killed by Yarn under shuffle
    // load even when heap execution memory is plentiful (netty buffers
    // live in the overhead region): stages retry.
    const double kill_risk = std::max(0.0, 1.0 - overhead_adequacy);
    oom_multiplier = 1.0 + 1.2 * kill_risk * kill_risk;
    if (kill_risk > 0.5) m.oom = true;
    const double pressure_ratio = demand_gb / std::max(1e-3, avail_gb);
    m.oom_severity = pressure_ratio / eff_threshold;
    if (pressure_ratio > eff_threshold) {
      // Continuous ramp: 1x exactly at the threshold, then task retries
      // multiply the stage cost with the log of the overshoot.
      oom_multiplier = std::min(
          params_.oom_penalty_cap,
          oom_multiplier + params_.oom_penalty *
                               std::log2(pressure_ratio / eff_threshold));
      m.oom = true;
    }

    const double reduce_time =
        WaveTime(reduce_cpu, partitions, slots, speed, query.skew) +
        net_time + spill_time +
        partitions * stages * params_.task_overhead_s +
        // Every reducer fetches from every mapper: up to P x M
        // shuffle-service requests — the real cost of over-partitioning
        // *large* shuffles. Small shuffles leave most (mapper, reducer)
        // blocks empty, and empty blocks are skipped via the shuffle
        // index, so the request count is also bounded by bytes / minimum
        // block size. This keeps configuration-insensitive queries
        // insensitive to sql.shuffle.partitions.
        std::min(partitions * scan_tasks, shuffle_gb / 6.4e-5) * stages *
            1.0e-5;

    shuffle_time =
        (map_time + reduce_time) * oom_multiplier + broadcast_time +
        stages * 0.15;
  }
  m.shuffle_gb = shuffle_gb;
  m.spill_gb = spill_gb;
  m.shuffle_seconds = shuffle_time;

  // ------------------------------------------------------------------ GC
  double alloc_gb = scanned_gb * 0.35 + shuffle_gb * 1.2 + spill_gb * 0.5;
  if (conf.GetBool(kRddCompress)) alloc_gb *= 0.92;
  const double pool = terms.pool_gb;
  // Off-heap allocations bypass the garbage collector entirely.
  if (terms.offheap_per_task_gb > 0.0) {
    const double offheap_total =
        terms.offheap_per_task_gb * terms.cores_per_executor;
    alloc_gb *= 1.0 - 0.5 * offheap_total / (offheap_total + pool);
  }
  const double alloc_per_exec = alloc_gb / std::max(1, terms.executors);
  const double concurrent_demand =
      terms.cores_per_executor *
      std::min(query.mem_per_task_factor * shuffle_gb /
                   std::max(8.0, conf.Get(kSqlShufflePartitions)),
               exec_mem_per_task_gb * 1.5);
  const double occupancy = std::min(1.5, concurrent_demand / pool +
                                             query.rescan_frac * 0.3 + 0.15);
  const double thrash =
      1.0 + params_.gc_pressure_coeff *
                std::pow(std::max(0.0, occupancy - 0.6), 2.0);
  const double full_gc_count =
      std::ceil(alloc_per_exec / std::max(0.4, pool * 0.8)) +
      terms.user_pressure * 6.0 * alloc_per_exec /
          std::max(0.5, terms.heap_gb);
  m.gc_seconds =
      alloc_per_exec * params_.gc_base_s_per_gb * thrash * terms.user_thrash +
      full_gc_count * terms.gc_pause_s * std::min(1.0, alloc_per_exec / pool);

  // -------------------------------------------------------------- totals
  const double total_waves =
      std::ceil(scan_tasks / slots) +
      (query.num_shuffle_stages > 0
           ? std::ceil(conf.Get(kSqlShufflePartitions) / slots)
           : 0.0);
  double latency = params_.query_latency_s;
  latency += 0.03 * (conf.Get(kSchedulerReviveInterval) - 1.0) * total_waves;
  latency += 0.12 * conf.Get(kLocalityWait) *
             (1.0 + query.num_shuffle_stages) * 0.3;
  // Tiny effect: memory-mapping threshold for local block reads.
  latency += 0.02 * (10.0 - conf.Get(kStorageMemoryMapThreshold)) / 10.0;

  m.exec_seconds =
      m.scan_seconds + m.shuffle_seconds + m.gc_seconds + latency;
  m.scan_tasks = scan_tasks;
  m.task_waves = total_waves;
  return m;
}

void ClusterSimulator::ApplyNoise(QueryMetrics* m, double noise) {
  // The total scales as one product of the component sum (exactly the
  // expression the noise-inline model computed), then each component is
  // scaled to stay consistent with the noisy total.
  m->exec_seconds *= noise;
  m->scan_seconds *= noise;
  m->shuffle_seconds *= noise;
  m->gc_seconds *= noise;
}

QueryMetrics ClusterSimulator::RunQuery(const QueryProfile& query,
                                        const SparkConf& conf,
                                        double datasize_gb) {
  ++runs_performed_;
  const double noise = params_.noise_sigma > 0.0
                           ? noise_rng_.LognormalNoise(params_.noise_sigma)
                           : 1.0;
  QueryMetrics m =
      SimulateQuery(query, conf, DeriveConfTerms(conf), datasize_gb);
  ApplyNoise(&m, noise);
  return m;
}

AppRunResult ClusterSimulator::RunApp(const SparkSqlApp& app,
                                      const SparkConf& conf,
                                      double datasize_gb) {
  scratch_all_.resize(app.queries.size());
  for (size_t i = 0; i < scratch_all_.size(); ++i) {
    scratch_all_[i] = static_cast<int>(i);
  }
  StatusOr<AppRunResult> result =
      RunAppSubset(app, scratch_all_, conf, datasize_gb);
  if (!result.ok()) {
    AppRunResult bad;
    bad.failed = true;
    bad.fail_reason = result.status().ToString();
    return bad;
  }
  return std::move(*result);
}

StatusOr<AppRunResult> ClusterSimulator::RunAppSubset(
    const SparkSqlApp& app, const std::vector<int>& query_indices,
    const SparkConf& conf, double datasize_gb) {
  if (!std::isfinite(datasize_gb) || datasize_gb <= 0.0) {
    return Status::InvalidArgument("datasize_gb must be finite and > 0");
  }
  for (int idx : query_indices) {
    if (idx < 0 || idx >= app.num_queries()) {
      return Status::OutOfRange("query index " + std::to_string(idx) +
                                " outside app of " +
                                std::to_string(app.num_queries()) + " queries");
    }
  }
  obs::ScopedSpan app_span(tracer_, "sim/app", "sim");

  const size_t n = query_indices.size();

  // Fault draws come from their own stream, with a fixed count per run
  // (independent of outcomes), so they never perturb the noise draws.
  const bool faults_on = faults_.enabled();
  if (faults_on) {
    scratch_fault_draws_.resize(FaultDrawCount(n));
    DrawRunFaults(&fault_rng_, n, scratch_fault_draws_.data());
  }

  // The noise-free cost model, query by query, each scaled by its own
  // noise draw.
  const ConfTerms terms = DeriveConfTerms(conf);
  scratch_metrics_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ++runs_performed_;
    const double noise = params_.noise_sigma > 0.0
                             ? noise_rng_.LognormalNoise(params_.noise_sigma)
                             : 1.0;
    scratch_metrics_[i] =
        SimulateQuery(app.queries[static_cast<size_t>(query_indices[i])],
                      conf, terms, datasize_gb);
    ApplyNoise(&scratch_metrics_[i], noise);
  }

  FaultOutcome outcome;
  size_t run_count = n;
  if (faults_on) {
    outcome = ApplyRunFaults(faults_, scratch_fault_draws_.data(),
                             std::max(1, conf.GetInt(kExecutorInstances)),
                             scratch_metrics_.data(), n);
    run_count = outcome.queries_run;
    fault_stats_.executor_losses += outcome.executor_losses;
    fault_stats_.stragglers += outcome.stragglers;
    fault_stats_.fetch_failures += outcome.fetch_failures;
    if (outcome.killed) {
      fault_stats_.app_kills += 1;
      fault_stats_.failed_runs += 1;
      if (flight_ != nullptr) {
        char msg[96];
        std::snprintf(msg, sizeof(msg), "oom_kill app=%s ds=%g at_query=%d",
                      app.name.c_str(), datasize_gb, outcome.killed_at);
        // A "fault" event also triggers the recorder's dump-on-fault
        // snapshot when one is configured.
        flight_->Record("fault", "warn", "sparksim", msg,
                        static_cast<double>(outcome.killed_at));
      }
    }
  }

  AppRunResult result = FinishAppRun(app, conf, datasize_gb,
                                     scratch_metrics_.data(), run_count,
                                     &app_span);
  if (faults_on) {
    result.failed = outcome.killed;
    result.failed_at_query = outcome.killed_at;
    result.retries = outcome.retries;
    result.lost_executors = outcome.lost_executors;
    if (outcome.killed) result.fail_reason = "oom_kill";
  }
  return result;
}

AppRunResult ClusterSimulator::FinishAppRun(const SparkSqlApp& app,
                                            const SparkConf& conf,
                                            double datasize_gb,
                                            QueryMetrics* metrics,
                                            size_t count,
                                            obs::ScopedSpan* app_span) {
  AppRunResult result;
  result.per_query.reserve(count);

  // Driver pressure: many tasks + a small driver heap slow down
  // scheduling for the whole application.
  const double driver_relief =
      std::min(1.0, conf.Get(kDriverMemory) / 16.0) *
      std::min(1.0, conf.Get(kDriverCores) / 4.0);
  double submit = params_.app_submit_overhead_s * (1.2 - 0.2 * driver_relief);

  const uint64_t lane_start = sim_lane_cursor_ns_;
  uint64_t cursor = lane_start;
  if (tracer_ != nullptr) {
    tracer_->RecordComplete("submit", "sim", cursor, SimLaneNs(submit),
                            obs::kSimulatedPid, 0);
  }
  cursor += SimLaneNs(submit);

  result.total_seconds = submit;
  for (size_t i = 0; i < count; ++i) {
    QueryMetrics qm = std::move(metrics[i]);
    result.total_seconds += qm.exec_seconds;
    result.gc_seconds += qm.gc_seconds;
    result.shuffle_gb += qm.shuffle_gb;
    result.any_oom = result.any_oom || qm.oom;
    if (tracer_ != nullptr) {
      // Query span with stage children laid out back-to-back inside it;
      // containment gives Perfetto the nesting.
      std::string args = NumArg("scan_tasks", qm.scan_tasks);
      args += ',';
      args += NumArg("task_waves", qm.task_waves);
      args += ',';
      args += NumArg("shuffle_gb", qm.shuffle_gb);
      args += ',';
      args += NumArg("spill_gb", qm.spill_gb);
      args += ',';
      args += NumArg("oom", qm.oom ? 1.0 : 0.0);
      tracer_->RecordComplete(qm.name, "sim", cursor,
                              SimLaneNs(qm.exec_seconds), obs::kSimulatedPid, 0,
                              std::move(args));
      uint64_t stage_cursor = cursor;
      tracer_->RecordComplete("scan", "sim", stage_cursor,
                              SimLaneNs(qm.scan_seconds), obs::kSimulatedPid, 0,
                              NumArg("waves", qm.task_waves));
      stage_cursor += SimLaneNs(qm.scan_seconds);
      if (qm.shuffle_seconds > 0.0) {
        tracer_->RecordComplete("shuffle", "sim", stage_cursor,
                                SimLaneNs(qm.shuffle_seconds), obs::kSimulatedPid,
                                0, NumArg("shuffle_gb", qm.shuffle_gb));
        stage_cursor += SimLaneNs(qm.shuffle_seconds);
      }
      if (qm.gc_seconds > 0.0) {
        tracer_->RecordComplete("gc", "sim", stage_cursor,
                                SimLaneNs(qm.gc_seconds), obs::kSimulatedPid, 0);
      }
    }
    cursor += SimLaneNs(qm.exec_seconds);
    result.per_query.push_back(std::move(qm));
  }

  if (tracer_ != nullptr) {
    std::string args = NumArg("queries", static_cast<double>(
                                             result.per_query.size()));
    args += ',';
    args += NumArg("datasize_gb", datasize_gb);
    args += ',';
    args += NumArg("simulated_seconds", result.total_seconds);
    tracer_->RecordComplete(app.name.empty() ? "app" : app.name, "sim",
                            lane_start, cursor - lane_start, obs::kSimulatedPid, 0,
                            std::move(args));
    app_span->Arg("queries", static_cast<double>(result.per_query.size()));
    app_span->Arg("simulated_seconds", result.total_seconds);
  }
  sim_lane_cursor_ns_ = cursor;
  return result;
}

}  // namespace locat::sparksim
