// Allocation budgets of the two hot loops: a charged evaluation and an
// EI-MCMC density evaluation. This file is its own test executable: the
// counting global operator new below replaces the one of every test
// linked with it, so no other test shares it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "core/tuning.h"
#include "math/matrix.h"
#include "ml/gp.h"
#include "sparksim/cluster.h"
#include "sparksim/config.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace {

std::atomic<int64_t> g_news{0};  // operator new calls so far
std::atomic<int64_t> g_live{0};  // blocks allocated and not yet freed

}  // namespace

// The array, nothrow and sized forms of libstdc++ forward to these two.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_live.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace locat {
namespace {

constexpr double kDatasizeGb = 300.0;

// The only allocation a warm Evaluate may make is the per-query metrics
// vector it returns: the session keeps no history, the conf is a fixed-size
// array and the simulator's scratch is sized by the first run.
TEST(AllocationBudgetTest, WarmEvaluateMakesAtMostOneAllocation) {
  for (const sparksim::SparkSqlApp& app :
       {workloads::TpcDs(), workloads::HiBenchScan()}) {
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 3);
    core::TuningSession session(&sim, app);
    const sparksim::ConfigSpace& space = session.space();
    Rng rng(4);
    ASSERT_TRUE(session.Evaluate(space.RandomValid(&rng), kDatasizeGb).ok());
    for (int i = 0; i < 50; ++i) {
      const sparksim::SparkConf conf = space.RandomValid(&rng);
      const int64_t before = g_news.load();
      const bool ok = session.Evaluate(conf, kDatasizeGb).ok();
      const int64_t news = g_news.load() - before;
      ASSERT_TRUE(ok);
      EXPECT_LE(news, 1) << app.name << " evaluation " << i;
    }
  }
}

// A session holds no per-evaluation state: once the returned records are
// gone, a thousand evaluations leave the live heap where it was.
TEST(AllocationBudgetTest, EvaluationsLeaveNothingBehind) {
  for (const sparksim::SparkSqlApp& app :
       {workloads::TpcDs(), workloads::HiBenchScan()}) {
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 5);
    core::TuningSession session(&sim, app);
    const sparksim::ConfigSpace& space = session.space();
    Rng rng(6);
    ASSERT_TRUE(session.Evaluate(space.RandomValid(&rng), kDatasizeGb).ok());
    const int64_t live = g_live.load();
    int ok = 0;
    for (int i = 0; i < 1000; ++i) {
      ok += session.Evaluate(space.RandomValid(&rng), kDatasizeGb).ok();
    }
    EXPECT_EQ(ok, 1000);
    EXPECT_EQ(g_live.load(), live) << app.name;
    EXPECT_EQ(session.evaluations(), 1001);
  }
}

// A warm density evaluation allocates nothing: the kernel cache keeps its
// weights, lanes, factor buffer and alpha across calls, and its memo is
// the last call's. Serve-sized: 19 GP rows in the 39-dimensional pre-IICP
// space, moved one coordinate at a time the way the slice sampler moves
// them (each lengthscale in turn, then the signal, then the noise).
TEST(AllocationBudgetTest, WarmDensityEvaluationAllocatesNothing) {
  constexpr size_t kRows = 19;
  constexpr size_t kDim = 39;
  Rng rng(8);
  math::Matrix x(kRows, kDim);
  math::Vector y(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t k = 0; k < kDim; ++k) x(i, k) = rng.NextDouble();
    y[i] = rng.Uniform(100.0, 400.0);
  }
  ml::GpKernelCache cache(x, y);
  math::Vector flat = ml::GpHyperparams::Default(kDim).Flatten();
  ASSERT_TRUE(std::isfinite(cache.LogMarginalLikelihood(flat.data())));

  int64_t news = 0;
  int finite = 0;
  for (int i = 0; i < 1000; ++i) {
    const size_t k = static_cast<size_t>(i) % (kDim + 2);
    flat[k] = k < kDim    ? rng.Uniform(-1.5, 0.5)
              : k == kDim ? rng.Uniform(-1.0, 1.0)
                          : rng.Uniform(-6.0, -2.0);
    const int64_t before = g_news.load();
    const double lml = cache.LogMarginalLikelihood(flat.data());
    news += g_news.load() - before;
    finite += std::isfinite(lml) ? 1 : 0;
  }
  EXPECT_EQ(finite, 1000);
  EXPECT_EQ(news, 0);
}

}  // namespace
}  // namespace locat
