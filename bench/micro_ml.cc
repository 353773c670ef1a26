// Micro benchmarks (google-benchmark) of the numerical kernels on LOCAT's
// hot path: GP fit/predict, EI-MCMC refit, KPCA fit/project, Cholesky
// factorization, and the cluster simulator itself.
#include <vector>

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

// Args: GP rows n and input dimension d. {5, 39} and {19, 10} are
// serve-sized refits (the pre-IICP space on a handful of rows, a reduced
// space at the serve path's largest n), where an evaluation's fixed costs
// outweigh its Cholesky; {30, 10} and {60, 10} are cold-tune sized.
void BM_EiMcmcRefit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
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
BENCHMARK(BM_EiMcmcRefit)
    ->Args({5, 39})
    ->Args({19, 10})
    ->Args({30, 10})
    ->Args({60, 10});

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

// 64 seeded random valid configurations. The simulator cases cycle over
// them, as a tuning grid does, so the timing covers every zstd level,
// off-heap setting and spill/OOM regime instead of one fixed branch path.
std::vector<sparksim::SparkConf> SweepConfs(const sparksim::ConfigSpace& space,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<sparksim::SparkConf> confs;
  for (int i = 0; i < 64; ++i) confs.push_back(space.RandomValid(&rng));
  return confs;
}

// Whole-app runs. The queries of a run are evaluated in order on the
// calling thread, and items are queries: items_per_second inverts to CPU
// time per query.
void BM_SimulatorTpcdsRun(benchmark::State& state) {
  const auto app = workloads::TpcDs();
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 10);
  const auto confs = SweepConfs(sparksim::ConfigSpace(sim.cluster()), 11);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.RunApp(app, confs[i++ % confs.size()], 300.0).total_seconds);
  }
  state.SetItemsProcessed(state.iterations() * app.num_queries());
}
BENCHMARK(BM_SimulatorTpcdsRun)->MeasureProcessCPUTime();

void BM_SimulatorQuery(benchmark::State& state) {
  const auto app = workloads::TpcDs();
  sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 12);
  const auto confs = SweepConfs(sparksim::ConfigSpace(sim.cluster()), 13);
  const auto& q72 = app.queries[static_cast<size_t>(app.IndexOf("q72"))];
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.RunQuery(q72, confs[i++ % confs.size()], 300.0).exec_seconds);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorQuery);

}  // namespace

BENCHMARK_MAIN();
