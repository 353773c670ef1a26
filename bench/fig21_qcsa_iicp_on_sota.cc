// Figure 21: retrofitting QCSA and IICP onto the SOTA tuners (Section
// 5.10). APT = the plain baseline tuning all parameters; +QCSA runs the
// baseline on the reduced query application; +IICP restricts its search
// to the CPS-selected parameters; +QIT applies both. TPC-DS, 500 GB.
#include <iostream>
#include <iterator>

#include "bench/bench_util.h"

int main() {
  using namespace locat;
  PrintBanner(std::cout,
              "Figure 21: QCSA/IICP retrofitted onto the SOTA tuners "
              "(TPC-DS, 500 GB, x86)");

  const char* const kModes[] = {"", "+QCSA", "+IICP", "+QIT"};
  std::vector<harness::CellSpec> specs = {{"LOCAT", "TPC-DS", "x86", 500.0}};
  for (const std::string& base : harness::SotaTunerNames()) {
    for (const char* mode : kModes) {
      specs.push_back({base + mode, "TPC-DS", "x86", 500.0});
    }
  }
  const std::vector<harness::CellResult> cells =
      harness::ExperimentRunner().RunAll(specs);
  const harness::CellResult& locat_cell = cells[0];

  TablePrinter perf({"tuner", "APT (s)", "+QCSA (s)", "+IICP (s)",
                     "+QIT (s)", "QIT gain"});
  TablePrinter cost({"tuner", "APT (h)", "+QCSA (h)", "+IICP (h)",
                     "+QIT (h)", "QIT reduction"});
  auto cell = cells.begin() + 1;
  for (const std::string& base : harness::SotaTunerNames()) {
    std::vector<double> best;
    std::vector<double> hours;
    for (size_t m = 0; m < std::size(kModes); ++m) {
      const harness::CellResult& r = *cell++;
      best.push_back(r.best_app_seconds);
      hours.push_back(r.optimization_seconds / 3600.0);
    }
    perf.AddRow({base, bench::Num(best[0], 0), bench::Num(best[1], 0),
                 bench::Num(best[2], 0), bench::Num(best[3], 0),
                 bench::Num(best[0] / best[3], 2) + "x"});
    cost.AddRow({base, bench::Num(hours[0], 1), bench::Num(hours[1], 1),
                 bench::Num(hours[2], 1), bench::Num(hours[3], 1),
                 bench::Num(hours[0] / hours[3], 2) + "x"});
  }
  std::cout << "\n(a) Optimized performance (full TPC-DS run under the "
               "tuned configuration):\n";
  perf.Print(std::cout);
  std::cout << "    DAGP/LOCAT reference: "
            << bench::Num(locat_cell.best_app_seconds, 0) << " s\n";
  std::cout << "\n(b) Optimization overhead:\n";
  cost.Print(std::cout);
  std::cout << "    DAGP/LOCAT reference: "
            << bench::Num(locat_cell.optimization_seconds / 3600.0, 1)
            << " h\n";
  std::cout << "\nPaper: QIT improves the SOTA-tuned performance by 2.6x on "
               "average and cuts their overhead by 6.8x on average; QCSA "
               "contributes most of the overhead reduction, IICP most of "
               "the performance gain.\n";
  return 0;
}
