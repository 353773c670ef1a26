#include "sparksim/config.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace locat::sparksim {
namespace {

std::vector<ParamSpec> BuildCatalog() {
  auto num = [](std::string name, ParamKind kind, double def, double lo_a,
                double hi_a, double lo_b, double hi_b, bool resource = false) {
    ParamSpec s;
    s.name = std::move(name);
    s.kind = kind;
    s.default_value = def;
    s.lo_a = lo_a;
    s.hi_a = hi_a;
    s.lo_b = lo_b;
    s.hi_b = hi_b;
    s.is_resource = resource;
    return s;
  };
  auto boolean = [&](std::string name, bool def) {
    return num(std::move(name), ParamKind::kBool, def ? 1.0 : 0.0, 0, 1, 0, 1);
  };

  std::vector<ParamSpec> c(kNumParams);
  c[kBroadcastBlockSize] =
      num("spark.broadcast.blockSize", ParamKind::kInt, 4, 1, 16, 1, 16);
  // Default "#" in Table 2: resolved to the cluster core count at
  // DefaultConf() time; the catalog stores 0 as a sentinel.
  c[kDefaultParallelism] =
      num("spark.default.parallelism", ParamKind::kInt, 0, 100, 1000, 100, 1000);
  c[kDriverCores] =
      num("spark.driver.cores", ParamKind::kInt, 1, 1, 8, 1, 16, true);
  c[kDriverMemory] =
      num("spark.driver.memory", ParamKind::kInt, 1, 4, 32, 4, 48, true);
  c[kExecutorCores] =
      num("spark.executor.cores", ParamKind::kInt, 1, 1, 8, 1, 16, true);
  c[kExecutorInstances] =
      num("spark.executor.instances", ParamKind::kInt, 2, 48, 384, 9, 112);
  c[kExecutorMemory] =
      num("spark.executor.memory", ParamKind::kInt, 1, 4, 32, 4, 48, true);
  c[kExecutorMemoryOverhead] = num("spark.executor.memoryOverhead",
                                   ParamKind::kInt, 384, 0, 32768, 0, 49152,
                                   true);
  c[kZstdBufferSize] = num("spark.io.compression.zstd.bufferSize",
                           ParamKind::kInt, 32, 16, 96, 16, 96);
  c[kZstdLevel] =
      num("spark.io.compression.zstd.level", ParamKind::kInt, 1, 1, 5, 1, 5);
  c[kKryoBuffer] =
      num("spark.kryoserializer.buffer", ParamKind::kInt, 64, 32, 128, 32, 128);
  c[kKryoBufferMax] = num("spark.kryoserializer.buffer.max", ParamKind::kInt,
                          64, 32, 128, 32, 128);
  c[kLocalityWait] =
      num("spark.locality.wait", ParamKind::kInt, 3, 1, 6, 1, 6);
  c[kMemoryFraction] =
      num("spark.memory.fraction", ParamKind::kReal, 0.6, 0.5, 0.9, 0.5, 0.9);
  c[kMemoryStorageFraction] = num("spark.memory.storageFraction",
                                  ParamKind::kReal, 0.5, 0.5, 0.9, 0.5, 0.9);
  c[kMemoryOffHeapSize] = num("spark.memory.offHeap.size", ParamKind::kInt, 0,
                              0, 32768, 0, 49152, true);
  c[kReducerMaxSizeInFlight] = num("spark.reducer.maxSizeInFlight",
                                   ParamKind::kInt, 48, 24, 144, 24, 144);
  c[kSchedulerReviveInterval] = num("spark.scheduler.revive.interval",
                                    ParamKind::kInt, 1, 1, 5, 1, 5);
  c[kShuffleFileBuffer] =
      num("spark.shuffle.file.buffer", ParamKind::kInt, 32, 16, 96, 16, 96);
  c[kShuffleIoNumConnections] = num("spark.shuffle.io.numConnectionsPerPeer",
                                    ParamKind::kInt, 1, 1, 5, 1, 5);
  c[kShuffleSortBypassMergeThreshold] =
      num("spark.shuffle.sort.bypassMergeThreshold", ParamKind::kInt, 200, 100,
          400, 100, 400);
  c[kSqlAutoBroadcastJoinThreshold] =
      num("spark.sql.autoBroadcastJoinThreshold", ParamKind::kInt, 1024, 1024,
          8192, 1024, 8192);
  c[kSqlCartesianProductThreshold] =
      num("spark.sql.cartesianProductExec.buffer.in.memory.threshold",
          ParamKind::kInt, 4096, 1024, 8192, 1024, 8192);
  c[kSqlCodegenMaxFields] =
      num("spark.sql.codegen.maxFields", ParamKind::kInt, 100, 50, 200, 50, 200);
  c[kSqlInMemoryColumnarBatchSize] =
      num("spark.sql.inMemoryColumnarStorage.batchSize", ParamKind::kInt,
          10000, 5000, 20000, 5000, 20000);
  c[kSqlShufflePartitions] = num("spark.sql.shuffle.partitions",
                                 ParamKind::kInt, 200, 100, 1000, 100, 1000);
  c[kStorageMemoryMapThreshold] = num("spark.storage.memoryMapThreshold",
                                      ParamKind::kInt, 1, 1, 10, 1, 10);

  c[kBroadcastCompress] = boolean("spark.broadcast.compress", true);
  c[kMemoryOffHeapEnabled] = boolean("spark.memory.offHeap.enabled", true);
  c[kRddCompress] = boolean("spark.rdd.compress", true);
  c[kShuffleCompress] = boolean("spark.shuffle.compress", true);
  c[kShuffleSpillCompress] = boolean("spark.shuffle.spill.compress", true);
  c[kSqlCodegenAggTwoLevel] =
      boolean("spark.sql.codegen.aggregate.map.twolevel.enable", true);
  c[kSqlInMemoryColumnarCompressed] =
      boolean("spark.sql.inMemoryColumnarStorage.compressed", true);
  c[kSqlInMemoryColumnarPruning] =
      boolean("spark.sql.inMemoryColumnarStorage.partitionPruning", true);
  c[kSqlPreferSortMergeJoin] =
      boolean("spark.sql.join.preferSortMergeJoin", true);
  c[kSqlRetainGroupColumns] = boolean("spark.sql.retainGroupColumns", true);
  c[kSqlSortEnableRadixSort] = boolean("spark.sql.sort.enableRadixSort", true);
  return c;
}

}  // namespace

const std::vector<ParamSpec>& ParamCatalog() {
  static const std::vector<ParamSpec>& catalog =
      *new std::vector<ParamSpec>(BuildCatalog());
  return catalog;
}

std::string SparkConf::ToString() const {
  const auto& catalog = ParamCatalog();
  std::ostringstream os;
  for (int i = 0; i < kNumParams; ++i) {
    const auto& spec = catalog[static_cast<size_t>(i)];
    os << spec.name << "=";
    if (spec.kind == ParamKind::kBool) {
      os << (GetBool(static_cast<ParamId>(i)) ? "true" : "false");
    } else if (spec.kind == ParamKind::kReal) {
      os << Get(static_cast<ParamId>(i));
    } else {
      os << GetInt(static_cast<ParamId>(i));
    }
    if (i + 1 < kNumParams) os << "\n";
  }
  return os.str();
}

ConfigSpace::ConfigSpace(const ClusterSpec& cluster)
    : cluster_(cluster), specs_(ParamCatalog()) {
  const bool use_a = cluster.range_column == RangeColumn::kRangeA;
  for (size_t i = 0; i < kNumParams; ++i) {
    const auto& s = specs_[i];
    lo_[i] = use_a ? s.lo_a : s.lo_b;
    hi_[i] = use_a ? s.hi_a : s.hi_b;
    range_[i] = hi_[i] - lo_[i];
    kind_[i] = s.kind;
  }
}

int ConfigSpace::IndexOf(const std::string& name) const {
  for (int i = 0; i < kNumParams; ++i) {
    if (specs_[static_cast<size_t>(i)].name == name) return i;
  }
  return -1;
}

SparkConf ConfigSpace::DefaultConf() const {
  SparkConf conf;
  for (int i = 0; i < kNumParams; ++i) {
    conf.Set(static_cast<ParamId>(i),
             specs_[static_cast<size_t>(i)].default_value);
  }
  // Table 2 gives "#" for default.parallelism: Spark derives it from the
  // cluster (total cores).
  conf.Set(kDefaultParallelism, cluster_.total_cores());
  return conf;
}

SparkConf ConfigSpace::FromUnit(const math::Vector& unit) const {
  assert(unit.size() == static_cast<size_t>(kNumParams));
  SparkConf conf;
  FromUnit(unit.data().data(), &conf);
  return conf;
}

void ConfigSpace::FromUnit(const double* unit, SparkConf* out) const {
  for (int i = 0; i < kNumParams; ++i) {
    out->Set(static_cast<ParamId>(i), FromUnitCoord(i, unit[i]));
  }
}

math::Vector ConfigSpace::ToUnit(const SparkConf& conf) const {
  math::Vector unit(kNumParams);
  ToUnit(conf, unit.data().data());
  return unit;
}

void ConfigSpace::ToUnit(const SparkConf& conf, double* out) const {
  for (int i = 0; i < kNumParams; ++i) {
    out[i] = ToUnitCoord(i, conf.Get(static_cast<ParamId>(i)));
  }
}

void ConfigSpace::RoundTripCoupled(const double* unit, double* out) const {
  double values[kNumParams];  // only the coupled entries are written
  for (const ParamId id : kCoupledParams) {
    values[id] = RepairCoord(id, FromUnitCoord(id, unit[id]));
  }
  RepairResources(values);
  for (const ParamId id : kCoupledParams) {
    out[id] = ToUnitCoord(id, values[id]);
  }
}

Status ConfigSpace::Validate(const SparkConf& conf) const {
  for (int i = 0; i < kNumParams; ++i) {
    const double v = conf.Get(static_cast<ParamId>(i));
    if (v < lo_[static_cast<size_t>(i)] - 1e-9 ||
        v > hi_[static_cast<size_t>(i)] + 1e-9) {
      return Status::OutOfRange(specs_[static_cast<size_t>(i)].name + "=" +
                                std::to_string(v) + " outside range");
    }
  }
  // Section 5.12: per-container caps.
  if (conf.GetInt(kExecutorCores) > cluster_.container_max_cores) {
    return Status::FailedPrecondition(
        "executor.cores exceeds Yarn container core capacity");
  }
  const double per_exec_mem_gb = conf.Get(kExecutorMemory) +
                                 conf.Get(kExecutorMemoryOverhead) / 1024.0 +
                                 conf.Get(kMemoryOffHeapSize) / 1024.0;
  if (per_exec_mem_gb > cluster_.container_max_memory_gb + 1e-9) {
    return Status::FailedPrecondition(
        "executor.memory + memoryOverhead + offHeap.size exceeds container "
        "memory capacity");
  }
  // Section 5.12: total cluster capacity.
  const double instances = conf.Get(kExecutorInstances);
  if (instances * per_exec_mem_gb > cluster_.total_memory_gb() + 1e-9) {
    return Status::FailedPrecondition(
        "executor.instances * per-executor memory exceeds cluster memory");
  }
  if (instances * conf.Get(kExecutorCores) >
      static_cast<double>(cluster_.total_cores()) + 1e-9) {
    return Status::FailedPrecondition(
        "executor.instances * executor.cores exceeds cluster cores");
  }
  return Status::OK();
}

SparkConf ConfigSpace::Repair(const SparkConf& input) const {
  SparkConf conf = input;
  RepairInPlace(&conf);
  return conf;
}

void ConfigSpace::RepairInPlace(SparkConf* conf) const {
  // Every parameter into its Table 2 range first.
  for (int i = 0; i < kNumParams; ++i) {
    const ParamId id = static_cast<ParamId>(i);
    conf->Set(id, RepairCoord(i, conf->Get(id)));
  }
  RepairResources(conf->values().data());
}

void ConfigSpace::RepairResources(double* v) const {
  // Container caps.
  v[kExecutorCores] =
      std::min<double>(v[kExecutorCores], cluster_.container_max_cores);
  double heap = v[kExecutorMemory];
  double overhead_gb = v[kExecutorMemoryOverhead] / 1024.0;
  double offheap_gb = v[kMemoryOffHeapSize] / 1024.0;
  double per_exec = heap + overhead_gb + offheap_gb;
  if (per_exec > cluster_.container_max_memory_gb) {
    // Shrink overhead and off-heap first (they have 0 lower bounds), then
    // the heap itself.
    const double cap = cluster_.container_max_memory_gb;
    double excess = per_exec - cap;
    const double cut_off = std::min(offheap_gb, excess);
    offheap_gb -= cut_off;
    excess -= cut_off;
    const double cut_over = std::min(overhead_gb, excess);
    overhead_gb -= cut_over;
    excess -= cut_over;
    if (excess > 0.0) {
      heap = std::max(lo_[kExecutorMemory], heap - excess);
    }
    v[kExecutorMemory] = std::floor(heap);
    v[kExecutorMemoryOverhead] = std::floor(overhead_gb * 1024.0);
    v[kMemoryOffHeapSize] = std::floor(offheap_gb * 1024.0);
    per_exec = v[kExecutorMemory] + v[kExecutorMemoryOverhead] / 1024.0 +
               v[kMemoryOffHeapSize] / 1024.0;
  }

  // Cluster totals: shrink per-executor resources first so the instance
  // count can stay within its Table 2 range, then reduce the instance
  // count until both constraints hold.
  const double lo_instances = std::max(1.0, lo_[kExecutorInstances]);
  double cores = std::max(1.0, v[kExecutorCores]);
  const double cores_cap = std::floor(
      static_cast<double>(cluster_.total_cores()) / lo_instances);
  if (cores > cores_cap && cores_cap >= lo_[kExecutorCores]) {
    cores = cores_cap;
    v[kExecutorCores] = cores;
  }
  double instances = v[kExecutorInstances];
  const double max_by_mem =
      per_exec > 0.0 ? std::floor(cluster_.total_memory_gb() / per_exec)
                     : instances;
  const double max_by_cores =
      std::floor(static_cast<double>(cluster_.total_cores()) / cores);
  instances = std::min({instances, max_by_mem, max_by_cores});
  instances = std::max(instances, 1.0);
  // Respect the range lower bound when possible; validity wins otherwise.
  if (instances >= lo_[kExecutorInstances]) {
    instances = std::max(instances, lo_[kExecutorInstances]);
  }
  v[kExecutorInstances] = RoundHalfAway(instances);
}

SparkConf ConfigSpace::RandomValid(Rng* rng) const {
  SparkConf conf;
  for (int i = 0; i < kNumParams; ++i) {
    const auto& s = specs_[static_cast<size_t>(i)];
    const double lo = lo_[static_cast<size_t>(i)];
    const double hi = hi_[static_cast<size_t>(i)];
    double v;
    if (s.kind == ParamKind::kBool) {
      v = rng->Bernoulli(0.5) ? 1.0 : 0.0;
    } else if (s.kind == ParamKind::kInt) {
      v = static_cast<double>(
          rng->UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
    } else {
      v = rng->Uniform(lo, hi);
    }
    conf.Set(static_cast<ParamId>(i), v);
  }
  return Repair(conf);
}

math::Vector ConfigSpace::RandomValidUnit(Rng* rng) const {
  return ToUnit(RandomValid(rng));
}

}  // namespace locat::sparksim
