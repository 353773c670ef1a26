// Figure 16: accuracy (relative error) of performance models built by
// GBRT, SVR, LinearR, LR and KNNAR on the same training data. The paper
// finds GBRT most accurate (< 15% average error).
#include <cmath>
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "math/stats.h"
#include "ml/gbrt.h"
#include "ml/simple_regressors.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

int main() {
  using namespace locat;
  PrintBanner(std::cout,
              "Figure 16: performance-model accuracy — mean relative error "
              "on held-out configurations (80 train / 40 test, 100 GB, "
              "x86)");

  TablePrinter tp({"application", "GBRT", "SVR", "LinearR", "LR", "KNNAR"});
  std::vector<double> avg(5, 0.0);
  for (const std::string& app_name : harness::AppNames()) {
    const auto app = harness::MakeApp(app_name);
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 1700);
    sparksim::ConfigSpace space(sim.cluster());
    Rng rng(1701);

    const int n_train = 80;
    const int n_test = 40;
    math::Matrix x_train(n_train, sparksim::kNumParams);
    math::Vector y_train(n_train);
    math::Matrix x_test(n_test, sparksim::kNumParams);
    std::vector<double> y_test(n_test);
    for (int i = 0; i < n_train; ++i) {
      const auto conf = space.RandomValid(&rng);
      x_train.SetRow(static_cast<size_t>(i), space.ToUnit(conf));
      y_train[static_cast<size_t>(i)] =
          std::log(sim.RunApp(app, conf, 100.0).total_seconds);
    }
    for (int i = 0; i < n_test; ++i) {
      const auto conf = space.RandomValid(&rng);
      x_test.SetRow(static_cast<size_t>(i), space.ToUnit(conf));
      y_test[static_cast<size_t>(i)] =
          sim.RunApp(app, conf, 100.0).total_seconds;
    }

    std::vector<std::unique_ptr<ml::Regressor>> models;
    models.push_back(std::make_unique<ml::Gbrt>());
    models.push_back(std::make_unique<ml::SvrRegressor>());
    models.push_back(std::make_unique<ml::LinearRegression>());
    models.push_back(std::make_unique<ml::LogisticRegression>());
    models.push_back(std::make_unique<ml::KnnRegressor>());

    std::vector<std::string> row = {app_name};
    for (size_t m = 0; m < models.size(); ++m) {
      double err = 1.0;
      if (models[m]->Fit(x_train, y_train).ok()) {
        double sum = 0.0;
        for (int i = 0; i < n_test; ++i) {
          const double pred =
              std::exp(models[m]->Predict(x_test.Row(static_cast<size_t>(i))));
          sum += std::fabs(pred - y_test[static_cast<size_t>(i)]) /
                 y_test[static_cast<size_t>(i)];
        }
        err = sum / n_test;
      }
      avg[m] += err / 5.0;
      row.push_back(bench::Num(err * 100.0, 1) + "%");
    }
    tp.AddRow(row);
  }
  tp.AddRow({"average", bench::Num(avg[0] * 100, 1) + "%",
             bench::Num(avg[1] * 100, 1) + "%",
             bench::Num(avg[2] * 100, 1) + "%",
             bench::Num(avg[3] * 100, 1) + "%",
             bench::Num(avg[4] * 100, 1) + "%"});
  tp.Print(std::cout);
  std::cout << "\nPaper: GBRT is the most accurate model (< 15% average "
               "error), which is why Figure 17 compares IICP against "
               "GBRT-derived importance.\n";
  return 0;
}
