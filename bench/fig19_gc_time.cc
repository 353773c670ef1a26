// Figure 19: JVM GC time of the tuned configurations for TPC-DS (a) and
// HiBench Join (b) as the input size grows. The paper attributes much of
// LOCAT's speedup to better memory-parameter settings, visible as lower
// GC time that also grows more slowly with the data size.
#include <iostream>

#include "bench/bench_util.h"

namespace {

constexpr double kSizes[] = {100.0, 200.0, 300.0, 400.0, 500.0};

/// Appends `app`'s cells to `specs`, in GcTable's order.
void AddCells(const std::string& app,
              std::vector<locat::harness::CellSpec>* specs) {
  for (double ds : kSizes) {
    for (const std::string& tuner : locat::bench::ComparedTunerNames()) {
      specs->push_back({tuner, app, "x86", ds});
    }
  }
}

/// Prints one app's table from its cells, in AddCells' order.
void GcTable(const locat::harness::CellResult* cell) {
  using namespace locat;
  TablePrinter tp({"datasize", "LOCAT", "Tuneful", "DAC", "GBO-RL", "QTune"});
  for (double ds : kSizes) {
    std::vector<std::string> row = {bench::Num(ds, 0) + " GB"};
    for (size_t i = 0; i < bench::ComparedTunerNames().size(); ++i) {
      row.push_back(bench::Num((cell++)->gc_seconds, 1));
    }
    tp.AddRow(row);
  }
  tp.Print(std::cout);
}

}  // namespace

int main() {
  std::vector<locat::harness::CellSpec> specs;
  AddCells("TPC-DS", &specs);
  AddCells("Join", &specs);
  const std::vector<locat::harness::CellResult> cells =
      locat::harness::ExperimentRunner().RunAll(specs);

  locat::PrintBanner(std::cout,
                     "Figure 19 (a): GC time of tuned TPC-DS (x86, "
                     "seconds)");
  GcTable(cells.data());
  locat::PrintBanner(std::cout,
                     "Figure 19 (b): GC time of tuned Join (x86, seconds)");
  GcTable(cells.data() + cells.size() / 2);
  std::cout << "\nPaper: LOCAT's GC time is the lowest and grows the most "
               "slowly with the input size, because it sets the memory "
               "parameters jointly.\n";
  return 0;
}
