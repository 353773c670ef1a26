#ifndef LOCAT_SPARKSIM_CONFIG_H_
#define LOCAT_SPARKSIM_CONFIG_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "math/matrix.h"
#include "sparksim/cluster.h"

namespace locat::sparksim {

/// Identifiers for the 38 configuration parameters of Table 2, in table
/// order (27 numeric, then 11 boolean).
enum ParamId : int {
  kBroadcastBlockSize = 0,           // MB
  kDefaultParallelism,               // partitions
  kDriverCores,                      // cores
  kDriverMemory,                     // GB
  kExecutorCores,                    // cores
  kExecutorInstances,                // executors
  kExecutorMemory,                   // GB
  kExecutorMemoryOverhead,           // MB
  kZstdBufferSize,                   // KB
  kZstdLevel,                        // level 1-5
  kKryoBuffer,                       // KB
  kKryoBufferMax,                    // MB
  kLocalityWait,                     // seconds
  kMemoryFraction,                   // fraction
  kMemoryStorageFraction,            // fraction
  kMemoryOffHeapSize,                // MB
  kReducerMaxSizeInFlight,           // MB
  kSchedulerReviveInterval,          // seconds
  kShuffleFileBuffer,                // KB
  kShuffleIoNumConnections,          // connections
  kShuffleSortBypassMergeThreshold,  // partitions
  kSqlAutoBroadcastJoinThreshold,    // KB
  kSqlCartesianProductThreshold,     // rows
  kSqlCodegenMaxFields,              // fields
  kSqlInMemoryColumnarBatchSize,     // rows
  kSqlShufflePartitions,             // partitions
  kStorageMemoryMapThreshold,        // MB
  kBroadcastCompress,                // bool ------------------------------
  kMemoryOffHeapEnabled,             // bool
  kRddCompress,                      // bool
  kShuffleCompress,                  // bool
  kShuffleSpillCompress,             // bool
  kSqlCodegenAggTwoLevel,            // bool
  kSqlInMemoryColumnarCompressed,    // bool
  kSqlInMemoryColumnarPruning,       // bool
  kSqlPreferSortMergeJoin,           // bool
  kSqlRetainGroupColumns,            // bool
  kSqlSortEnableRadixSort,           // bool
  kNumParams                         // = 38
};

enum class ParamKind { kInt, kReal, kBool };

/// Static description of one Table 2 parameter.
struct ParamSpec {
  std::string name;
  ParamKind kind = ParamKind::kInt;
  double default_value = 0.0;
  /// [lo, hi] for the ARM cluster ("Range A") and x86 cluster ("Range B").
  double lo_a = 0.0, hi_a = 1.0;
  double lo_b = 0.0, hi_b = 1.0;
  /// Marked with * in Table 2: value range derives from cluster resources.
  bool is_resource = false;
};

/// Returns the full 38-entry Table 2 catalog (shared, immutable).
const std::vector<ParamSpec>& ParamCatalog();

/// A concrete assignment of all 38 parameters (equation (1)'s `conf`).
/// Values are stored as doubles; booleans are 0/1; integer parameters hold
/// integral values. Fixed-size and trivially copyable: a copy allocates
/// nothing.
class SparkConf {
 public:
  using Values = std::array<double, kNumParams>;

  double Get(ParamId id) const { return values_[static_cast<size_t>(id)]; }
  int GetInt(ParamId id) const { return static_cast<int>(Get(id) + 0.5); }
  bool GetBool(ParamId id) const { return Get(id) >= 0.5; }
  void Set(ParamId id, double value) {
    values_[static_cast<size_t>(id)] = value;
  }

  const Values& values() const { return values_; }
  Values& values() { return values_; }

  bool operator==(const SparkConf& other) const {
    return values_ == other.values_;
  }

  std::string ToString() const;

 private:
  Values values_{};
};

/// std::round, bit for bit: halves away from zero, the sign of a zero
/// result kept, |v| >= 2^52, infinities and NaN passed through. std::trunc
/// is inline on baseline x86-64 where std::round is a libm call, and
/// |v| - trunc(|v|) is exact, so the halfway test sees the true fraction;
/// the result takes v's sign, as std::round's always does. The test is a
/// select, not a branch: whether a fraction reaches one half is a coin
/// flip on the candidate-generation path.
inline double RoundHalfAway(double v) {
  const double a = std::fabs(v);
  const double t = std::trunc(a);
  return std::copysign(t + (a - t >= 0.5 ? 1.0 : 0.0), v);
}

/// The tunable configuration space for one cluster: Table 2 ranges plus
/// the Section 5.12 validity rules (container caps, memory-sum and
/// cluster-capacity constraints).
class ConfigSpace {
 public:
  explicit ConfigSpace(const ClusterSpec& cluster);

  const ClusterSpec& cluster() const { return cluster_; }
  int size() const { return kNumParams; }

  const ParamSpec& spec(int index) const { return specs_[static_cast<size_t>(index)]; }
  double lo(int index) const { return lo_[static_cast<size_t>(index)]; }
  double hi(int index) const { return hi_[static_cast<size_t>(index)]; }

  /// The resource parameters Repair couples: cores, instances, memory,
  /// memoryOverhead and offHeap.size. A change to one of them can move
  /// the others; every other parameter round-trips on its own.
  static constexpr std::array<ParamId, 5> kCoupledParams = {
      kExecutorCores, kExecutorInstances, kExecutorMemory,
      kExecutorMemoryOverhead, kMemoryOffHeapSize};
  static bool Coupled(int index) { return (kCoupledMask >> index) & 1; }

  // FromUnit, Repair and ToUnit apply the private per-coordinate rules
  // (Repair then RepairResources); they are the only copy of the rules,
  // and the two round trips below compose the same calls.

  /// ToUnit(Repair(FromUnit(unit)))[index] from unit[index] alone, for a
  /// parameter that is not Coupled.
  double RoundTripCoord(int index, double u) const {
    assert(!Coupled(index));
    return ByKind(index, [&]<ParamKind K>() {
      return ToUnitCoord(index, RepairAs<K>(index, FromUnitAs<K>(index, u)));
    });
  }
  /// Writes ToUnit(Repair(FromUnit(unit)))[i] for the five kCoupledParams
  /// into out[i]; reads only those entries of `unit`, writes no others.
  void RoundTripCoupled(const double* unit, double* out) const;

  /// Index of a parameter by its Spark property name; -1 if unknown.
  int IndexOf(const std::string& name) const;

  /// Spark defaults (Table 2, "Default" column). `default.parallelism`
  /// defaults to the cluster's total core count, matching Spark.
  SparkConf DefaultConf() const;

  /// Maps a point in the unit hypercube [0,1]^38 to a configuration:
  /// linear interpolation, integer rounding, 0.5-thresholded booleans.
  SparkConf FromUnit(const math::Vector& unit) const;
  /// FromUnit into caller-owned storage: `unit` holds kNumParams entries.
  void FromUnit(const double* unit, SparkConf* out) const;

  /// Inverse of FromUnit (booleans map to 0/1, degenerate ranges to 0).
  math::Vector ToUnit(const SparkConf& conf) const;
  /// ToUnit into caller-owned storage of kNumParams entries.
  void ToUnit(const SparkConf& conf, double* out) const;

  /// Checks Table 2 ranges plus Section 5.12 rules:
  ///  - executor.memory + memoryOverhead + offHeap.size <= container memory
  ///  - executor.cores <= container cores
  ///  - instances * per-executor resources <= cluster totals.
  Status Validate(const SparkConf& conf) const;

  /// Clamps to ranges and scales memory/instances down until Validate
  /// passes. Always returns a valid configuration.
  SparkConf Repair(const SparkConf& conf) const;
  /// Repair in place, without the copy.
  void RepairInPlace(SparkConf* conf) const;

  /// Uniform random configuration over the ranges, repaired to validity.
  SparkConf RandomValid(Rng* rng) const;

  /// Unit-cube coordinates of a random valid configuration.
  math::Vector RandomValidUnit(Rng* rng) const;

 private:
  static constexpr uint64_t kCoupledMask = [] {
    uint64_t mask = 0;
    for (const ParamId id : kCoupledParams) mask |= uint64_t{1} << id;
    return mask;
  }();

  /// Coordinate `index` of FromUnit: `u` clamped to [0, 1] and mapped
  /// linearly onto the range, integers rounded, booleans thresholded.
  double FromUnitCoord(int index, double u) const {
    return ByKind(index,
                  [&]<ParamKind K>() { return FromUnitAs<K>(index, u); });
  }
  /// Coordinate `index` of Repair's first pass, before the coupled
  /// resource rules: clamped into the range, integers rounded, booleans
  /// thresholded.
  double RepairCoord(int index, double v) const {
    return ByKind(index, [&]<ParamKind K>() { return RepairAs<K>(index, v); });
  }
  /// Coordinate `index` of ToUnit.
  double ToUnitCoord(int index, double v) const {
    const size_t i = static_cast<size_t>(index);
    return range_[i] <= 0.0 ? 0.0
                            : std::clamp((v - lo_[i]) / range_[i], 0.0, 1.0);
  }
  /// f.template operator()<K>() for the kind K of parameter `index`: the
  /// per-kind rules below then branch on the kind once.
  template <class F>
  double ByKind(int index, F f) const {
    switch (kind_[static_cast<size_t>(index)]) {
      case ParamKind::kInt:
        return f.template operator()<ParamKind::kInt>();
      case ParamKind::kBool:
        return f.template operator()<ParamKind::kBool>();
      default:
        return f.template operator()<ParamKind::kReal>();
    }
  }
  template <ParamKind K>
  double FromUnitAs(int index, double u) const {
    const size_t i = static_cast<size_t>(index);
    u = std::clamp(u, 0.0, 1.0);
    if constexpr (K == ParamKind::kBool) return u >= 0.5 ? 1.0 : 0.0;
    const double v = lo_[i] + u * range_[i];
    if constexpr (K == ParamKind::kInt) return RoundHalfAway(v);
    return v;
  }
  template <ParamKind K>
  double RepairAs(int index, double v) const {
    const size_t i = static_cast<size_t>(index);
    v = std::clamp(v, lo_[i], hi_[i]);
    if constexpr (K == ParamKind::kInt) return RoundHalfAway(v);
    if constexpr (K == ParamKind::kBool) return v >= 0.5 ? 1.0 : 0.0;
    return v;
  }

  /// Repair's coupled rules: container caps and cluster totals over the
  /// kCoupledParams entries of `values` (indexed by ParamId), the only
  /// entries they read or write.
  void RepairResources(double* values) const;

  ClusterSpec cluster_;
  std::vector<ParamSpec> specs_;
  std::array<double, kNumParams> lo_{};
  std::array<double, kNumParams> hi_{};
  std::array<double, kNumParams> range_{};  // hi_ - lo_
  std::array<ParamKind, kNumParams> kind_{};
};

}  // namespace locat::sparksim

#endif  // LOCAT_SPARKSIM_CONFIG_H_
