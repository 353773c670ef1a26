// Allocation budget of a charged evaluation. This file is its own test
// executable: the counting global operator new below replaces the one of
// every test linked with it, so no other test shares it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "core/tuning.h"
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

}  // namespace
}  // namespace locat
