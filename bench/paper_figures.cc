// The Section 5 grid figures: 2, 11-15 and 18-21. All of them read one
// experiment grid (harness::PaperGridSpecs), so one RunAll computes every
// cell once and each figure is a view that reads its cells by identity.
// Figure 20's online column adds one warm LOCAT sequence. No flags.
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace locat;
using harness::GridResults;

// Figure 2 (motivation): time used by the four SOTA tuners to find the
// optimal configuration of TPC-DS as the input size grows. The paper
// reports >= 89 hours at 100 GB and strong growth with the data size.
void Figure02(const GridResults& grid) {
  PrintBanner(std::cout,
              "Figure 2: SOTA optimization time for TPC-DS vs input size "
              "(x86 cluster, hours)");
  TablePrinter tp({"datasize", "Tuneful", "DAC", "GBO-RL", "QTune"});
  for (double ds : harness::GridSizesGb()) {
    std::vector<std::string> row = {bench::Num(ds, 0) + " GB"};
    for (const std::string& tuner : harness::SotaTunerNames()) {
      row.push_back(bench::Num(
          grid.At(tuner, "TPC-DS", "x86", ds).optimization_seconds / 3600.0,
          1));
    }
    tp.AddRow(row);
  }
  tp.Print(std::cout);
  std::cout << "\nPaper: at 100 GB the cheapest approach (GBO-RL) already "
               "needs 89 h, and the cost grows sharply with the data size "
               "(GBO-RL at 500 GB: 402 h on the ARM cluster).\n";
}

// Figures 11 and 12: optimization-time reduction of LOCAT over the SOTA
// tuners on one cluster (300 GB inputs). The ratio is
// (SOTA optimization time) / (LOCAT optimization time).
void OptTimeComparison(const GridResults& grid, const std::string& cluster,
                       const std::string& paper_line) {
  TablePrinter tp({"application", "LOCAT (h)", "Tuneful (x)", "DAC (x)",
                   "GBO-RL (x)", "QTune (x)"});
  double sums[4] = {0, 0, 0, 0};
  int count = 0;
  for (const std::string& app : harness::AppNames()) {
    const double locat_h =
        grid.At("LOCAT", app, cluster, 300.0).optimization_seconds / 3600.0;
    std::vector<std::string> row = {app, bench::Num(locat_h, 1)};
    for (int i = 0; i < 4; ++i) {
      const std::string& tuner = harness::SotaTunerNames()[i];
      const double ratio =
          grid.At(tuner, app, cluster, 300.0).optimization_seconds / 3600.0 /
          locat_h;
      sums[i] += ratio;
      row.push_back(bench::Num(ratio, 1));
    }
    ++count;
    tp.AddRow(row);
  }
  tp.AddRow({"average", "", bench::Num(sums[0] / count, 1),
             bench::Num(sums[1] / count, 1), bench::Num(sums[2] / count, 1),
             bench::Num(sums[3] / count, 1)});
  tp.Print(std::cout);
  std::cout << "\n" << paper_line << "\n";
}

// Figures 13 and 14: speedups of the 25 program-input pairs tuned by
// LOCAT over the same pairs tuned by the SOTA approaches on one cluster:
// execution time tuned by a SOTA approach divided by execution time tuned
// by LOCAT.
void SpeedupComparison(const GridResults& grid, const std::string& cluster,
                       const std::string& paper_line) {
  TablePrinter tp({"application", "ds (GB)", "LOCAT (s)", "vs Tuneful",
                   "vs DAC", "vs GBO-RL", "vs QTune"});
  double sums[4] = {0, 0, 0, 0};
  int count = 0;
  for (const std::string& app : harness::AppNames()) {
    for (double ds : harness::GridSizesGb()) {
      const double locat_s =
          grid.At("LOCAT", app, cluster, ds).best_app_seconds;
      std::vector<std::string> row = {app, bench::Num(ds, 0),
                                      bench::Num(locat_s, 0)};
      for (int i = 0; i < 4; ++i) {
        const std::string& tuner = harness::SotaTunerNames()[i];
        const double speedup =
            grid.At(tuner, app, cluster, ds).best_app_seconds / locat_s;
        sums[i] += speedup;
        row.push_back(bench::Num(speedup, 2));
      }
      ++count;
      tp.AddRow(row);
    }
  }
  tp.AddRow({"average", "", "", bench::Num(sums[0] / count, 2),
             bench::Num(sums[1] / count, 2), bench::Num(sums[2] / count, 2),
             bench::Num(sums[3] / count, 2)});
  tp.Print(std::cout);
  std::cout << "\n" << paper_line << "\n";
}

// Figure 15: TPC-DS tuned by LOCAT with all 38 parameters (AP) vs with
// the IICP-selected important parameters (IP). The paper finds IP-tuned
// performance ~1.8x better on average: tuning unimportant parameters
// dilutes the search.
void Figure15(const GridResults& grid) {
  PrintBanner(std::cout,
              "Figure 15: LOCAT tuning all parameters (AP) vs important "
              "parameters (IP) on TPC-DS (x86)");
  TablePrinter tp({"datasize", "AP-tuned (s)", "IP-tuned (s)", "AP / IP"});
  double ratio_sum = 0.0;
  int count = 0;
  for (double ds : harness::GridSizesGb()) {
    const double ap = grid.At("LOCAT-AP", "TPC-DS", "x86", ds).best_app_seconds;
    const double ip = grid.At("LOCAT", "TPC-DS", "x86", ds).best_app_seconds;
    ratio_sum += ap / ip;
    ++count;
    tp.AddRow({bench::Num(ds, 0) + " GB", bench::Num(ap, 0),
               bench::Num(ip, 0), bench::Num(ap / ip, 2)});
  }
  tp.AddRow({"average", "", "", bench::Num(ratio_sum / count, 2)});
  tp.Print(std::cout);
  std::cout << "\nPaper: IP-tuned performance is 1.8x higher than AP-tuned "
               "on average.\n";
}

// Figure 18: execution time of TPC-DS split into configuration-sensitive
// (CSQ) and configuration-insensitive (CIQ) queries, per tuning approach
// and data size. The paper's point: performance improvements come almost
// entirely from the CSQ side, and LOCAT accelerates CSQs the most.
void Figure18(const GridResults& grid) {
  PrintBanner(std::cout,
              "Figure 18: CSQ vs CIQ execution time of tuned TPC-DS "
              "(x86 cluster, seconds)");
  TablePrinter tp({"datasize", "tuner", "CSQ (s)", "CIQ (s)", "total (s)"});
  for (double ds : {100.0, 300.0, 500.0}) {
    for (const std::string& tuner : harness::ComparedTunerNames()) {
      const harness::CellResult& r = grid.At(tuner, "TPC-DS", "x86", ds);
      tp.AddRow({bench::Num(ds, 0) + " GB", tuner,
                 bench::Num(r.csq_seconds, 0), bench::Num(r.ciq_seconds, 0),
                 bench::Num(r.best_app_seconds, 0)});
    }
  }
  tp.Print(std::cout);
  std::cout << "\nPaper: CIQ time is roughly approach-independent (they are "
               "insensitive by definition); LOCAT's advantage concentrates "
               "in the CSQ share, which dominates at larger inputs.\n";
}

// Figure 19: JVM GC time of the tuned configurations for TPC-DS (a) and
// HiBench Join (b) as the input size grows. The paper attributes much of
// LOCAT's speedup to better memory-parameter settings, visible as lower
// GC time that also grows more slowly with the data size.
void GcTable(const GridResults& grid, const std::string& app) {
  TablePrinter tp({"datasize", "LOCAT", "Tuneful", "DAC", "GBO-RL", "QTune"});
  for (double ds : harness::GridSizesGb()) {
    std::vector<std::string> row = {bench::Num(ds, 0) + " GB"};
    for (const std::string& tuner : harness::ComparedTunerNames()) {
      row.push_back(bench::Num(grid.At(tuner, app, "x86", ds).gc_seconds, 1));
    }
    tp.AddRow(row);
  }
  tp.Print(std::cout);
}

void Figure19(const GridResults& grid) {
  PrintBanner(std::cout,
              "Figure 19 (a): GC time of tuned TPC-DS (x86, seconds)");
  GcTable(grid, "TPC-DS");
  PrintBanner(std::cout, "Figure 19 (b): GC time of tuned Join (x86, seconds)");
  GcTable(grid, "Join");
  std::cout << "\nPaper: LOCAT's GC time is the lowest and grows the most "
               "slowly with the input size, because it sets the memory "
               "parameters jointly.\n";
}

// Figure 20: tuning overhead (hours) for TPC-DS as the input size grows.
// LOCAT's curve is the flattest; we additionally report LOCAT's *online*
// mode, where one tuner instance adapts across the data sizes via the
// DAGP and only the first size pays the cold-start cost.
void Figure20(const GridResults& grid,
              const harness::WarmSequenceResult& warm) {
  PrintBanner(std::cout,
              "Figure 20: tuning overhead vs input size, TPC-DS (x86, "
              "hours)");
  TablePrinter tp({"datasize", "LOCAT (warm/online)", "LOCAT (cold)",
                   "Tuneful", "DAC", "GBO-RL", "QTune"});
  const std::vector<double>& sizes = harness::GridSizesGb();
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row = {
        bench::Num(sizes[i], 0) + " GB",
        bench::Num(warm.incremental_optimization_seconds[i] / 3600.0, 1)};
    for (const std::string& tuner : harness::ComparedTunerNames()) {
      row.push_back(bench::Num(
          grid.At(tuner, "TPC-DS", "x86", sizes[i]).optimization_seconds /
              3600.0,
          1));
    }
    tp.AddRow(row);
  }
  tp.Print(std::cout);
  std::cout << "\nPaper: the SOTA overhead grows sharply with the data size "
               "while LOCAT's stays low; with the DAGP reusing knowledge "
               "across sizes (warm column), re-tuning after a data-size "
               "change costs only a handful of RQA runs.\n";
}

// Figure 21: retrofitting QCSA and IICP onto the SOTA tuners (Section
// 5.10). APT = the plain baseline tuning all parameters; +QCSA runs the
// baseline on the reduced query application; +IICP restricts its search
// to the CPS-selected parameters; +QIT applies both. TPC-DS, 500 GB.
void Figure21(const GridResults& grid) {
  PrintBanner(std::cout,
              "Figure 21: QCSA/IICP retrofitted onto the SOTA tuners "
              "(TPC-DS, 500 GB, x86)");
  const char* const kModes[] = {"", "+QCSA", "+IICP", "+QIT"};
  TablePrinter perf({"tuner", "APT (s)", "+QCSA (s)", "+IICP (s)",
                     "+QIT (s)", "QIT gain"});
  TablePrinter cost({"tuner", "APT (h)", "+QCSA (h)", "+IICP (h)",
                     "+QIT (h)", "QIT reduction"});
  for (const std::string& base : harness::SotaTunerNames()) {
    std::vector<double> best;
    std::vector<double> hours;
    for (const char* mode : kModes) {
      const harness::CellResult& r =
          grid.At(base + mode, "TPC-DS", "x86", 500.0);
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
  const harness::CellResult& locat_cell =
      grid.At("LOCAT", "TPC-DS", "x86", 500.0);
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
}

}  // namespace

int main() {
  const std::vector<harness::CellSpec> specs = harness::PaperGridSpecs();
  const GridResults grid(specs, harness::ExperimentRunner().RunAll(specs));
  const harness::WarmSequenceResult warm =
      harness::RunLocatWarmSequence("TPC-DS", "x86", harness::GridSizesGb());

  Figure02(grid);
  PrintBanner(std::cout,
              "Figure 11: optimization-time reduction vs SOTA "
              "(ARM cluster, 300 GB)");
  OptTimeComparison(grid, "arm",
                    "Paper averages (ARM): Tuneful 6.4x, DAC 7.0x, GBO-RL "
                    "4.1x, QTune 9.7x.");
  PrintBanner(std::cout,
              "Figure 12: optimization-time reduction vs SOTA "
              "(x86 cluster, 300 GB)");
  OptTimeComparison(grid, "x86",
                    "Paper averages (x86): Tuneful 6.4x, DAC 6.3x, GBO-RL "
                    "4.0x, QTune 9.2x.");
  PrintBanner(std::cout,
              "Figure 13: speedup of LOCAT-tuned configurations over "
              "SOTA-tuned (ARM cluster, 25 program-input pairs)");
  SpeedupComparison(grid, "arm",
                    "Paper averages (ARM): 2.4x vs Tuneful, 2.2x vs DAC, "
                    "2.0x vs GBO-RL, 1.9x vs QTune.");
  PrintBanner(std::cout,
              "Figure 14: speedup of LOCAT-tuned configurations over "
              "SOTA-tuned (x86 cluster, 25 program-input pairs)");
  SpeedupComparison(grid, "x86",
                    "Paper averages (x86): 2.8x vs Tuneful, 2.6x vs DAC, "
                    "2.3x vs GBO-RL, 2.1x vs QTune.");
  Figure15(grid);
  Figure18(grid);
  Figure19(grid);
  Figure20(grid, warm);
  Figure21(grid);
  return 0;
}
