// Output pins in tier-1: what the tuner produces, checked against the
// digests in tests/data/output_pins.txt. The runs are built as
// perfbench's tune-cold workload builds them and hashed with its FNV-1a,
// so the digests are the ones CI pins for `perfbench/run.py --workload
// tune-cold --seed 0`.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "sparksim/simulator.h"

namespace locat {
namespace {

/// FNV-1a 64 over the bytes of each value, as perfbench's Digest.
class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte((v >> (8 * i)) & 0xff);
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    for (const unsigned char c : s) Byte(c);
    Add(static_cast<uint64_t>(s.size()));
  }
  void Add(const sparksim::SparkConf& conf) {
    for (const double v : conf.values()) Add(v);
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void Byte(uint64_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  uint64_t h_ = 1469598103934665603ULL;
};

/// The pinned digest of `kind` at `seed`, or "" when the file has none.
std::string Pinned(const std::string& kind, uint64_t seed) {
  std::ifstream in(std::string(LOCAT_TEST_DATA_DIR) + "/output_pins.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string k, digest;
    uint64_t s = 0;
    if (fields >> k >> s >> digest && k == kind && s == seed) return digest;
  }
  return "";
}

/// perfbench tune-cold's pass at `seed`: three cold LOCAT tunes, each
/// with a fresh simulator and session, judged on a noise-free simulator.
std::string TuneColdDigest(uint64_t seed) {
  struct Case {
    const char* app;
    const char* cluster;
    double datasize_gb;
  };
  const Case cases[] = {{"TPC-DS", "x86", 300.0},
                        {"TPC-H", "arm", 300.0},
                        {"Aggregation", "arm", 300.0}};
  Fnv1a digest;
  uint64_t idx = 0;
  for (const Case& c : cases) {
    const sparksim::SparkSqlApp app = harness::MakeApp(c.app);
    const sparksim::ClusterSpec cluster = harness::MakeCluster(c.cluster);
    sparksim::ClusterSimulator sim(cluster, 7919 * seed + 17 * idx++ + 1);
    core::TuningSession session(&sim, app);
    const auto tuner = harness::MakeTuner("LOCAT", seed);
    sparksim::SimParams noise_free;
    noise_free.noise_sigma = 0.0;
    sparksim::ClusterSimulator judge(cluster, 1, noise_free);
    // perfbench runs the defaults on the judge before the tune.
    const sparksim::ConfigSpace& space = session.space();
    judge.RunApp(app, space.Repair(space.DefaultConf()), c.datasize_gb);
    const core::TuningResult tr = tuner->Tune(&session, c.datasize_gb);
    digest.Add(std::string(c.app));
    digest.Add(tr.best_conf);
    digest.Add(judge.RunApp(app, tr.best_conf, c.datasize_gb).total_seconds);
    digest.Add(tr.optimization_seconds);
  }
  return digest.Hex();
}

class OutputPinTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // perfbench tunes on a one-thread pool; the outputs are the same on any.
  void SetUp() override { common::ThreadPool::SetGlobalThreads(1); }
};

TEST_P(OutputPinTest, TuneCold) {
  const std::string want = Pinned("tune-cold", GetParam());
  ASSERT_FALSE(want.empty()) << "no tune-cold pin for seed " << GetParam();
  EXPECT_EQ(TuneColdDigest(GetParam()), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutputPinTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

}  // namespace
}  // namespace locat
