#include "workloads/workloads.h"

namespace locat::workloads {
namespace {

using sparksim::QueryCategory;
using sparksim::QueryProfile;
using sparksim::SparkSqlApp;

QueryProfile Make(const std::string& name, QueryCategory cat,
                  double input_frac, double cpu_per_gb, double shuffle_ratio,
                  int stages, double mem_factor, double skew,
                  double broadcastable_mb = 0.0, double ds_exponent = 0.0) {
  QueryProfile q;
  q.name = name;
  q.category = cat;
  q.input_frac = input_frac;
  q.cpu_per_gb = cpu_per_gb;
  q.shuffle_ratio = shuffle_ratio;
  q.shuffle_cpu_per_gb =
      cat == QueryCategory::kAggregation ? 46.0 : 55.0;
  q.num_shuffle_stages = stages;
  q.mem_per_task_factor = mem_factor;
  q.skew = skew;
  q.broadcastable_mb = broadcastable_mb;
  q.ds_exponent = ds_exponent;
  return q;
}

}  // namespace

SparkSqlApp TpcH() {
  using enum QueryCategory;
  SparkSqlApp app;
  app.name = "TPC-H";
  // 22 queries over the lineitem-dominated schema. Join-heavy plans
  // (Q5, Q7, Q8, Q9, Q17, Q18, Q21) carry most of the configuration
  // sensitivity; Q1/Q6 are big scans.
  app.queries = {
      Make("q1", kAggregation, 0.80, 5, 0.02, 1, 0.8, 1.2),
      Make("q2", kJoin, 0.10, 5, 0.05, 2, 1.0, 1.3, 40),
      Make("q3", kJoin, 0.55, 5, 0.18, 2, 1.6, 1.5),
      Make("q4", kJoin, 0.45, 5, 0.10, 1, 1.2, 1.4),
      Make("q5", kJoin, 0.60, 5, 0.48, 3, 9.0, 1.8, 50, 0.10),
      Make("q6", kSelection, 0.70, 5, 0.0005, 1, 0.6, 1.1),
      Make("q7", kJoin, 0.60, 5, 0.52, 3, 9.5, 1.9, 0, 0.10),
      Make("q8", kJoin, 0.65, 5, 0.46, 3, 8.5, 1.8, 60, 0.10),
      Make("q9", kJoin, 0.85, 5, 0.70, 3, 11.0, 2.1, 0, 0.14),
      Make("q10", kJoin, 0.55, 5, 0.22, 2, 1.7, 1.5),
      Make("q11", kAggregation, 0.08, 5, 0.06, 2, 1.1, 1.3),
      Make("q12", kJoin, 0.50, 5, 0.09, 1, 1.1, 1.3),
      Make("q13", kAggregation, 0.25, 5, 0.16, 2, 1.5, 1.5),
      Make("q14", kJoin, 0.55, 5, 0.08, 1, 1.0, 1.3, 30),
      Make("q15", kAggregation, 0.55, 5, 0.12, 2, 1.3, 1.4),
      Make("q16", kSelection, 0.10, 5, 0.002, 1, 0.7, 1.1),
      Make("q17", kJoin, 0.60, 5, 0.42, 2, 8.0, 1.7, 0, 0.08),
      Make("q18", kJoin, 0.65, 5, 0.50, 3, 9.0, 1.8, 0, 0.10),
      Make("q19", kJoin, 0.55, 5, 0.07, 1, 1.0, 1.3, 40),
      Make("q20", kJoin, 0.55, 5, 0.14, 2, 1.4, 1.4),
      Make("q21", kJoin, 0.75, 5, 0.60, 3, 10.0, 2.0, 0, 0.12),
      Make("q22", kSelection, 0.12, 5, 0.003, 1, 0.7, 1.1),
  };
  return app;
}

SparkSqlApp HiBenchJoin() {
  SparkSqlApp app;
  app.name = "Join";
  // Two-phase Map + Reduce join of uservisits with rankings.
  app.queries = {Make("join", QueryCategory::kJoin, 1.0, 5, 0.55, 1, 15.0,
                      1.9, 0, 0.08)};
  return app;
}

SparkSqlApp HiBenchScan() {
  SparkSqlApp app;
  app.name = "Scan";
  // Map-only "select" that splits input rows and writes records.
  app.queries = {Make("scan", QueryCategory::kSelection, 1.0, 5, 0.0, 0,
                      0.5, 1.1)};
  return app;
}

SparkSqlApp HiBenchAggregation() {
  SparkSqlApp app;
  app.name = "Aggregation";
  // Map ("select") + Reduce ("group by") over uservisits.
  app.queries = {Make("aggregation", QueryCategory::kAggregation, 1.0, 5,
                      0.30, 1, 7.0, 1.6)};
  return app;
}

std::vector<SparkSqlApp> AllBenchmarks() {
  return {TpcDs(), TpcH(), HiBenchJoin(), HiBenchScan(),
          HiBenchAggregation()};
}

}  // namespace locat::workloads
