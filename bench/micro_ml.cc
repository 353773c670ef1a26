// Micro benchmarks (google-benchmark) of the numerical kernels on LOCAT's
// hot path: GP fit/predict, EI-MCMC refit, KPCA fit/project, Cholesky
// factorization, and the cluster simulator itself.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "math/cholesky.h"
#include "ml/ei_mcmc.h"
#include "ml/gp.h"
#include "ml/kernels.h"
#include "ml/kpca.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace {

using namespace locat;

math::Matrix RandomMatrix(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  math::Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x(i, j) = rng.NextDouble();
  }
  return x;
}

void BM_CholeskyFactor(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  math::Matrix b = RandomMatrix(n, n, 1);
  math::Matrix a = b * b.Transpose();
  a.AddToDiagonal(static_cast<double>(n));
  for (auto _ : state) {
    auto chol = math::Cholesky::Factor(a);
    benchmark::DoNotOptimize(chol);
  }
}
BENCHMARK(BM_CholeskyFactor)->Arg(30)->Arg(60)->Arg(120);

void BM_GpFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = 10;
  math::Matrix x = RandomMatrix(n, d, 2);
  math::Vector y(n);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) y[i] = rng.NextDouble();
  const auto hp = ml::GpHyperparams::Default(d);
  for (auto _ : state) {
    ml::GaussianProcess gp;
    benchmark::DoNotOptimize(gp.Fit(x, y, hp).ok());
  }
}
BENCHMARK(BM_GpFit)->Arg(30)->Arg(60)->Arg(90);

void BM_GpPredict(benchmark::State& state) {
  const size_t n = 60;
  const size_t d = 10;
  math::Matrix x = RandomMatrix(n, d, 4);
  math::Vector y(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) y[i] = rng.NextDouble();
  ml::GaussianProcess gp;
  (void)gp.Fit(x, y, ml::GpHyperparams::Default(d));
  // One acquisition pool's worth of candidates, scored in one batch.
  const math::Matrix pool = RandomMatrix(200, d, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.PredictBatch(pool));
  }
}
BENCHMARK(BM_GpPredict);

void BM_EiMcmcRefit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = 10;
  math::Matrix x = RandomMatrix(n, d, 6);
  math::Vector y(n);
  Rng data_rng(7);
  for (size_t i = 0; i < n; ++i) y[i] = data_rng.NextDouble();
  Rng rng(8);
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 6;
  opts.burn_in = 8;
  for (auto _ : state) {
    ml::EiMcmc model(opts);
    benchmark::DoNotOptimize(model.Fit(x, y, &rng).ok());
  }
}
BENCHMARK(BM_EiMcmcRefit)->Arg(30)->Arg(60);

void BM_KpcaFitProject(benchmark::State& state) {
  math::Matrix x = RandomMatrix(30, 25, 9);
  ml::GaussianKernel kernel(2.0);
  const math::Vector probe(25, 0.5);
  for (auto _ : state) {
    ml::Kpca kpca;
    (void)kpca.Fit(x, &kernel);
    benchmark::DoNotOptimize(kpca.Project(probe));
  }
}
BENCHMARK(BM_KpcaFitProject);

void BM_SimulatorTpcdsRun(benchmark::State& state) {
  const auto app = workloads::TpcDs();
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 10);
  sparksim::ConfigSpace space(sim.cluster());
  Rng rng(11);
  const auto conf = space.RandomValid(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunApp(app, conf, 300.0).total_seconds);
  }
}
BENCHMARK(BM_SimulatorTpcdsRun);

void BM_SimulatorQuery(benchmark::State& state) {
  const auto app = workloads::TpcDs();
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 12);
  sparksim::ConfigSpace space(sim.cluster());
  Rng rng(13);
  const auto conf = space.RandomValid(&rng);
  const auto& q72 = app.queries[static_cast<size_t>(app.IndexOf("q72"))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunQuery(q72, conf, 300.0).exec_seconds);
  }
}
BENCHMARK(BM_SimulatorQuery);

}  // namespace

BENCHMARK_MAIN();
