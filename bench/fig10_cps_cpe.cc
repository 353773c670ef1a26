// Figure 10: number of important parameters selected by CPS and further
// extracted by CPE for the five benchmark applications. The paper reports
// CPS keeps ~2/3 of the 38 parameters and CPE extracts ~1/3 of those.
#include <iostream>

#include "bench/bench_util.h"
#include "core/iicp.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

int main() {
  using namespace locat;
  PrintBanner(std::cout,
              "Figure 10: parameters selected by CPS / extracted by CPE "
              "(N_IICP = 20 samples, 100 GB, x86)");

  TablePrinter tp({"application", "CPS-selected", "CPE components",
                   "explained variance"});
  for (const std::string& app_name : harness::AppNames()) {
    const auto app = harness::MakeApp(app_name);
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 1400);
    sparksim::ConfigSpace space(sim.cluster());
    Rng rng(1401);
    const int n = 20;
    math::Matrix confs(n, sparksim::kNumParams);
    std::vector<double> times(n);
    for (int i = 0; i < n; ++i) {
      const auto conf = space.RandomValid(&rng);
      confs.SetRow(static_cast<size_t>(i), space.ToUnit(conf));
      times[static_cast<size_t>(i)] =
          sim.RunApp(app, conf, 100.0).total_seconds;
    }
    const auto iicp = core::Iicp::Run(confs, times);
    if (!iicp.ok()) {
      std::cerr << "IICP failed for " << app_name << "\n";
      continue;
    }
    tp.AddRow({app_name, std::to_string(iicp->selected_params().size()),
               std::to_string(iicp->latent_dim()),
               bench::Num(iicp->kpca().explained_variance_ratio(), 2)});
  }
  tp.Print(std::cout);
  std::cout << "\nPaper: CPS selects ~25 of 38; CPE extracts ~8 new "
               "parameters from them.\n";
  return 0;
}
