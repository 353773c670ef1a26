#ifndef LOCAT_WORKLOADS_WORKLOADS_H_
#define LOCAT_WORKLOADS_WORKLOADS_H_

#include <vector>

#include "sparksim/query_profile.h"

namespace locat::workloads {

/// TPC-DS as used in the paper: 104 queries (1..99 plus the a/b variants
/// of 14, 23, 24, 39, and 64). Profiles are calibrated so the paper's
/// per-query facts hold: Q72 shuffles ~52 GB per 100 GB input and is the
/// most configuration-sensitive query; Q04 is long but insensitive; Q08
/// shuffles ~5 MB; the Section 5.11 selection queries {Q09, Q13, Q16, Q28,
/// Q32, Q38, Q48, Q61, Q84, Q87, Q88, Q94, Q96} are light on shuffle; the
/// 23 queries of Section 5.2 form the configuration-sensitive set.
sparksim::SparkSqlApp TpcDs();

/// TPC-H: 22 queries; the join-heavy ones (Q5, Q7, Q8, Q9, Q17, Q18, Q21)
/// are configuration sensitive.
sparksim::SparkSqlApp TpcH();

/// HiBench Join: one query with Map and Reduce phases (shuffle heavy).
sparksim::SparkSqlApp HiBenchJoin();

/// HiBench Scan: one Map-only "select" query (no shuffle).
sparksim::SparkSqlApp HiBenchScan();

/// HiBench Aggregation: one Map+Reduce "group by" query.
sparksim::SparkSqlApp HiBenchAggregation();

/// The five benchmark applications of Table 1, in table order.
std::vector<sparksim::SparkSqlApp> AllBenchmarks();

}  // namespace locat::workloads

#endif  // LOCAT_WORKLOADS_WORKLOADS_H_
