#ifndef LOCAT_SPARKSIM_QUERY_PROFILE_H_
#define LOCAT_SPARKSIM_QUERY_PROFILE_H_

#include <string>
#include <vector>

namespace locat::sparksim {

/// The query taxonomy of Section 5.11 (after Pavlo et al.): selection
/// queries barely touch the shuffle machinery, join/aggregation queries
/// exercise it heavily.
enum class QueryCategory { kSelection, kJoin, kAggregation };

/// Analytical profile of one SQL query. All data-volume fields are
/// expressed at the 100 GB reference input size and scaled by the
/// simulator.
struct QueryProfile {
  std::string name;
  QueryCategory category = QueryCategory::kSelection;

  /// Fraction of the dataset this query scans.
  double input_frac = 0.1;

  /// Map-side work, core-seconds per scanned GB (CPU + decode + I/O).
  double cpu_per_gb = 6.0;

  /// Shuffle volume as a fraction of scanned bytes at the 100 GB
  /// reference (Q72 shuffles 52 GB of 100 GB input; Q08 ~5 MB).
  double shuffle_ratio = 0.0;

  /// Reduce-side work, core-seconds per shuffled GB.
  double shuffle_cpu_per_gb = 10.0;

  /// Number of wide (shuffle) stages in the query plan.
  int num_shuffle_stages = 0;

  /// Extra super-linearity of shuffle volume in the data size:
  /// shuffle_gb ~ scanned_gb * shuffle_ratio * (ds/100)^ds_exponent.
  /// 0 = volume linear in ds (because scanned_gb already is).
  double ds_exponent = 0.0;

  /// Size of the largest broadcast-eligible dimension table at 100 GB, in
  /// MB (0 = no broadcastable join side). Dimension tables grow slowly, so
  /// the simulator scales this with sqrt(ds/100).
  double broadcastable_mb = 0.0;

  /// Fraction of shuffle volume a successful broadcast join eliminates.
  double broadcast_avoid_frac = 0.6;

  /// Working-set multiplier: execution memory demanded per task is
  /// (partition bytes) * mem_per_task_factor.
  double mem_per_task_factor = 1.0;

  /// Task-duration skew (max/mean >= 1); drives straggler waves.
  double skew = 1.2;

  /// True for plans containing a cartesian product (rare; enables the
  /// cartesianProductExec buffer threshold effect).
  bool has_cartesian = false;

  /// Fraction of the scanned data re-read from the in-memory columnar
  /// cache (CTE reuse / repeated subquery); enables the
  /// inMemoryColumnarStorage.* effects.
  double rescan_frac = 0.0;
};

/// A Spark SQL application: an ordered set of queries run back-to-back on
/// one input dataset (Figure 1 of the paper).
struct SparkSqlApp {
  std::string name;
  std::vector<QueryProfile> queries;

  int num_queries() const { return static_cast<int>(queries.size()); }

  /// Index of a query by name; -1 when absent.
  int IndexOf(const std::string& query_name) const;
};

}  // namespace locat::sparksim

#endif  // LOCAT_SPARKSIM_QUERY_PROFILE_H_
