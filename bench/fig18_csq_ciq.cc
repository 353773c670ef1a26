// Figure 18: execution time of TPC-DS split into configuration-sensitive
// (CSQ) and configuration-insensitive (CIQ) queries, per tuning approach
// and data size. The paper's point: performance improvements come almost
// entirely from the CSQ side, and LOCAT accelerates CSQs the most.
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace locat;
  PrintBanner(std::cout,
              "Figure 18: CSQ vs CIQ execution time of tuned TPC-DS "
              "(x86 cluster, seconds)");

  std::vector<harness::CellSpec> specs;
  for (double ds : {100.0, 300.0, 500.0}) {
    for (const std::string& tuner : bench::ComparedTunerNames()) {
      specs.push_back({tuner, "TPC-DS", "x86", ds});
    }
  }
  const std::vector<harness::CellResult> cells =
      harness::ExperimentRunner().RunAll(specs);

  TablePrinter tp({"datasize", "tuner", "CSQ (s)", "CIQ (s)", "total (s)"});
  for (size_t i = 0; i < specs.size(); ++i) {
    const harness::CellResult& r = cells[i];
    tp.AddRow({bench::Num(specs[i].datasize_gb, 0) + " GB", specs[i].tuner,
               bench::Num(r.csq_seconds, 0), bench::Num(r.ciq_seconds, 0),
               bench::Num(r.best_app_seconds, 0)});
  }
  tp.Print(std::cout);
  std::cout << "\nPaper: CIQ time is roughly approach-independent (they are "
               "insensitive by definition); LOCAT's advantage concentrates "
               "in the CSQ share, which dominates at larger inputs.\n";
  return 0;
}
