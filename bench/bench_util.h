#ifndef LOCAT_BENCH_BENCH_UTIL_H_
#define LOCAT_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "harness/experiments.h"

namespace locat::bench {

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

/// The five tuners of Figures 11-14 and 18-20, LOCAT first.
inline const std::vector<std::string>& ComparedTunerNames() {
  static const std::vector<std::string>& names =
      *new std::vector<std::string>{"LOCAT", "Tuneful", "DAC", "GBO-RL",
                                    "QTune"};
  return names;
}

/// Prints the Figure 11/12 optimization-time comparison for one cluster.
inline void PrintOptTimeComparison(const std::string& cluster,
                                   const std::string& paper_line) {
  std::vector<harness::CellSpec> specs;
  for (const std::string& app : AppNames()) {
    for (const std::string& tuner : ComparedTunerNames()) {
      specs.push_back({tuner, app, cluster, 300.0});
    }
  }
  const std::vector<harness::CellResult> cells =
      harness::ExperimentRunner().RunAll(specs);

  TablePrinter tp({"application", "LOCAT (h)", "Tuneful (x)", "DAC (x)",
                   "GBO-RL (x)", "QTune (x)"});
  double sums[4] = {0, 0, 0, 0};
  int count = 0;
  auto cell = cells.begin();
  for (const std::string& app : AppNames()) {
    const double locat_h = (cell++)->optimization_seconds / 3600.0;
    std::vector<std::string> row = {app, Num(locat_h, 1)};
    for (int i = 0; i < 4; ++i) {
      const double ratio = (cell++)->optimization_seconds / 3600.0 / locat_h;
      sums[i] += ratio;
      row.push_back(Num(ratio, 1));
    }
    ++count;
    tp.AddRow(row);
  }
  tp.AddRow({"average", "", Num(sums[0] / count, 1), Num(sums[1] / count, 1),
             Num(sums[2] / count, 1), Num(sums[3] / count, 1)});
  tp.Print(std::cout);
  std::cout << "\n" << paper_line << "\n";
}

/// Prints the Figure 13/14 speedup comparison for one cluster: for every
/// (application, data size) pair, execution time tuned by a SOTA approach
/// divided by execution time tuned by LOCAT.
inline void PrintSpeedupComparison(const std::string& cluster,
                                   const std::string& paper_line) {
  const std::vector<double> sizes = {100.0, 200.0, 300.0, 400.0, 500.0};
  std::vector<harness::CellSpec> specs;
  for (const std::string& app : AppNames()) {
    for (double ds : sizes) {
      for (const std::string& tuner : ComparedTunerNames()) {
        specs.push_back({tuner, app, cluster, ds});
      }
    }
  }
  const std::vector<harness::CellResult> cells =
      harness::ExperimentRunner().RunAll(specs);

  TablePrinter tp({"application", "ds (GB)", "LOCAT (s)", "vs Tuneful",
                   "vs DAC", "vs GBO-RL", "vs QTune"});
  double sums[4] = {0, 0, 0, 0};
  int count = 0;
  auto cell = cells.begin();
  for (const std::string& app : AppNames()) {
    for (double ds : sizes) {
      const double locat_s = (cell++)->best_app_seconds;
      std::vector<std::string> row = {app, Num(ds, 0), Num(locat_s, 0)};
      for (int i = 0; i < 4; ++i) {
        const double speedup = (cell++)->best_app_seconds / locat_s;
        sums[i] += speedup;
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
  std::cout << "\n" << paper_line << "\n";
}

}  // namespace locat::bench

#endif  // LOCAT_BENCH_BENCH_UTIL_H_
