// Figure 2 (motivation): time used by the four SOTA tuners to find the
// optimal configuration of TPC-DS as the input size grows. The paper
// reports >= 89 hours at 100 GB and strong growth with the data size.
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace locat;
  PrintBanner(std::cout,
              "Figure 2: SOTA optimization time for TPC-DS vs input size "
              "(x86 cluster, hours)");

  const std::vector<double> sizes = {100.0, 200.0, 300.0, 400.0, 500.0};
  std::vector<harness::CellSpec> specs;
  for (double ds : sizes) {
    for (const std::string& tuner : harness::SotaTunerNames()) {
      specs.push_back({tuner, "TPC-DS", "x86", ds});
    }
  }
  const std::vector<harness::CellResult> cells =
      harness::ExperimentRunner().RunAll(specs);

  TablePrinter tp({"datasize", "Tuneful", "DAC", "GBO-RL", "QTune"});
  auto cell = cells.begin();
  for (double ds : sizes) {
    std::vector<std::string> row = {bench::Num(ds, 0) + " GB"};
    for (size_t i = 0; i < harness::SotaTunerNames().size(); ++i) {
      row.push_back(
          bench::Num((cell++)->optimization_seconds / 3600.0, 1));
    }
    tp.AddRow(row);
  }
  tp.Print(std::cout);
  std::cout << "\nPaper: at 100 GB the cheapest approach (GBO-RL) already "
               "needs 89 h, and the cost grows sharply with the data size "
               "(GBO-RL at 500 GB: 402 h on the ARM cluster).\n";
  return 0;
}
