#ifndef LOCAT_BENCH_BENCH_UTIL_H_
#define LOCAT_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "harness/experiments.h"

namespace locat::bench {

/// Shared experiment runner for all bench binaries; uses the default
/// on-disk cache ($LOCAT_CACHE_DIR/results.csv or ./.locat_cache) so the
/// expensive comparison grid is computed once across binaries.
inline harness::ExperimentRunner& Runner() {
  static harness::ExperimentRunner& runner =
      *new harness::ExperimentRunner();
  return runner;
}

/// The five benchmark app names of Table 1, paper order.
inline const std::vector<std::string>& AppNames() {
  static const std::vector<std::string>& names =
      *new std::vector<std::string>{"TPC-DS", "TPC-H", "Join", "Scan",
                                    "Aggregation"};
  return names;
}

inline std::string Num(double v, int precision = 2) {
  return TablePrinter::Num(v, precision);
}

/// All (tuner x app x ds) cells for one cluster — the grid behind
/// Figures 11-14 and 18-20.
inline std::vector<harness::CellSpec> ComparisonGrid(
    const std::string& cluster) {
  std::vector<harness::CellSpec> specs;
  for (const std::string& app : AppNames()) {
    for (double ds : {100.0, 200.0, 300.0, 400.0, 500.0}) {
      for (const std::string& tuner :
           {std::string("LOCAT"), std::string("Tuneful"), std::string("DAC"),
            std::string("GBO-RL"), std::string("QTune")}) {
        harness::CellSpec spec;
        spec.tuner = tuner;
        spec.app = app;
        spec.cluster = cluster;
        spec.datasize_gb = ds;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// Prints the Figure 11/12 optimization-time comparison for one cluster.
inline void PrintOptTimeComparison(const std::string& cluster,
                                   const std::string& paper_line) {
  TablePrinter tp({"application", "LOCAT (h)", "Tuneful (x)", "DAC (x)",
                   "GBO-RL (x)", "QTune (x)"});
  double sums[4] = {0, 0, 0, 0};
  int count = 0;
  for (const std::string& app : AppNames()) {
    harness::CellSpec spec;
    spec.app = app;
    spec.cluster = cluster;
    spec.datasize_gb = 300.0;
    spec.tuner = "LOCAT";
    const double locat_h = Runner().Run(spec).optimization_seconds / 3600.0;
    std::vector<std::string> row = {app, Num(locat_h, 1)};
    int i = 0;
    for (const std::string& tuner : harness::SotaTunerNames()) {
      spec.tuner = tuner;
      const double ratio =
          Runner().Run(spec).optimization_seconds / 3600.0 / locat_h;
      sums[i++] += ratio;
      row.push_back(Num(ratio, 1));
    }
    ++count;
    tp.AddRow(row);
  }
  tp.AddRow({"average", "", Num(sums[0] / count, 1), Num(sums[1] / count, 1),
             Num(sums[2] / count, 1), Num(sums[3] / count, 1)});
  tp.Print(std::cout);
  Runner().Save();
  std::cout << "\n" << paper_line << "\n";
}

/// Prints the Figure 13/14 speedup comparison for one cluster: for every
/// (application, data size) pair, execution time tuned by a SOTA approach
/// divided by execution time tuned by LOCAT.
inline void PrintSpeedupComparison(const std::string& cluster,
                                   const std::string& paper_line) {
  TablePrinter tp({"application", "ds (GB)", "LOCAT (s)", "vs Tuneful",
                   "vs DAC", "vs GBO-RL", "vs QTune"});
  double sums[4] = {0, 0, 0, 0};
  int count = 0;
  for (const std::string& app : AppNames()) {
    for (double ds : {100.0, 200.0, 300.0, 400.0, 500.0}) {
      harness::CellSpec spec;
      spec.app = app;
      spec.cluster = cluster;
      spec.datasize_gb = ds;
      spec.tuner = "LOCAT";
      const double locat_s = Runner().Run(spec).best_app_seconds;
      std::vector<std::string> row = {app, Num(ds, 0), Num(locat_s, 0)};
      int i = 0;
      for (const std::string& tuner : harness::SotaTunerNames()) {
        spec.tuner = tuner;
        const double speedup =
            Runner().Run(spec).best_app_seconds / locat_s;
        sums[i++] += speedup;
        row.push_back(Num(speedup, 2));
      }
      ++count;
      tp.AddRow(row);
    }
  }
  tp.AddRow({"average", "", "", Num(sums[0] / count, 2),
             Num(sums[1] / count, 2), Num(sums[2] / count, 2),
             Num(sums[3] / count, 2)});
  tp.Print(std::cout);
  Runner().Save();
  std::cout << "\n" << paper_line << "\n";
}

}  // namespace locat::bench

#endif  // LOCAT_BENCH_BENCH_UTIL_H_
