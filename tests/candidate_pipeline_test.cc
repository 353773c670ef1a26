// The exact candidate pipeline of LocatTuner::ProposeNext: the inline
// rounding, the per-coordinate configuration round trip, the
// near-duplicate screen and the dedupe table must each decide exactly as
// the whole-vector code they replace.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/candidate_screen.h"
#include "math/kern/kern.h"
#include "sparksim/cluster.h"
#include "sparksim/config.h"

namespace locat {
namespace {

using core::kNearDuplicateSq;
using sparksim::ConfigSpace;
using sparksim::kNumParams;
using sparksim::ParamId;

constexpr size_t kDim = static_cast<size_t>(kNumParams);

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(RoundHalfAwayTest, MatchesStdRoundOnEdges) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994,
      -0.49999999999999994, 0.3, -0.3, 0.7, -0.7, 1.0, -1.0,
      0x1p52, -0x1p52, 0x1p52 - 0.5, -(0x1p52 - 0.5), 0x1p52 + 1.0, 0x1p53,
      0x1p63, 1e300, -1e300, inf, -inf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), 32767.5, 49151.5, 4.5, 8.5};
  // Every half-integer and its neighbours over the configuration ranges.
  for (double n = -3.0; n <= 1100.0; n += 1.0) {
    const double half = n + 0.5;
    values.push_back(half);
    values.push_back(std::nextafter(half, -inf));
    values.push_back(std::nextafter(half, inf));
  }
  for (const double v : values) {
    EXPECT_EQ(Bits(sparksim::RoundHalfAway(v)), Bits(std::round(v))) << v;
  }
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    const double v = (rng.NextDouble() - 0.5) * 1e5;
    ASSERT_EQ(Bits(sparksim::RoundHalfAway(v)), Bits(std::round(v))) << v;
  }
}

/// Checks the per-coordinate round trip against the whole-vector one at
/// `unit`.
void ExpectRoundTripMatches(const ConfigSpace& space,
                            const std::vector<double>& unit) {
  const math::Vector want =
      space.ToUnit(space.Repair(space.FromUnit(math::Vector(unit))));
  const double sentinel = -7.0;
  std::vector<double> coupled(kDim, sentinel);
  space.RoundTripCoupled(unit.data(), coupled.data());
  for (int i = 0; i < kNumParams; ++i) {
    const size_t k = static_cast<size_t>(i);
    if (ConfigSpace::Coupled(i)) {
      ASSERT_EQ(Bits(coupled[k]), Bits(want[k])) << "coupled param " << i;
    } else {
      ASSERT_EQ(Bits(space.RoundTripCoord(i, unit[k])), Bits(want[k]))
          << "param " << i << " at " << unit[k];
      ASSERT_EQ(coupled[k], sentinel) << "param " << i << " written";
    }
  }
}

class CoordRoundTripTest : public ::testing::TestWithParam<bool> {
 protected:
  sparksim::ClusterSpec Cluster() const {
    return GetParam() ? sparksim::X86Cluster() : sparksim::ArmCluster();
  }
};

TEST_P(CoordRoundTripTest, PerCoordinateMatchesWholeVectorOnRandomUnits) {
  const ConfigSpace space(Cluster());
  Rng rng(GetParam() ? 11 : 12);
  std::vector<double> unit(kDim);
  for (int n = 0; n < 100000; ++n) {
    for (double& u : unit) u = rng.NextDouble();
    ExpectRoundTripMatches(space, unit);
  }
}

TEST_P(CoordRoundTripTest, PerCoordinateMatchesWholeVectorOnEdgeUnits) {
  const ConfigSpace space(Cluster());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> constants = {0.0,  -0.0, 1.0,  0.5,
                                         0.25, 0.75, -0.1, 1.1,
                                         std::nextafter(0.5, 0.0), nan};
  std::vector<double> unit(kDim);
  for (const double c : constants) {
    std::fill(unit.begin(), unit.end(), c);
    ExpectRoundTripMatches(space, unit);
  }
  // Units whose interpolated value is (within an ulp of) a half-integer,
  // so the rounding decides; every parameter at once, then mixed with
  // random coupled entries.
  Rng rng(GetParam() ? 21 : 22);
  for (int step = 0; step < 64; ++step) {
    for (int i = 0; i < kNumParams; ++i) {
      const double range = space.hi(i) - space.lo(i);
      const double target = std::floor(space.lo(i) + range * step / 64.0) + 0.5;
      unit[static_cast<size_t>(i)] =
          range > 0.0 ? (target - space.lo(i)) / range : 0.5;
    }
    ExpectRoundTripMatches(space, unit);
    for (int nudge = 0; nudge < 8; ++nudge) {
      std::vector<double> jittered = unit;
      for (double& u : jittered) {
        u = nudge % 2 ? std::nextafter(u, 2.0) : std::nextafter(u, -1.0);
      }
      for (const ParamId id : ConfigSpace::kCoupledParams) {
        jittered[static_cast<size_t>(id)] = rng.NextDouble();
      }
      ExpectRoundTripMatches(space, jittered);
    }
  }
}

// Each rule of the coupled resource repair is reached by the random
// sample (the cores cap only on x86: on arm the container cap already
// holds cores at the cap), and the round trip matches wherever it is.
TEST_P(CoordRoundTripTest, CoupledRepairReachesEveryRule) {
  const ConfigSpace space(Cluster());
  const sparksim::ClusterSpec& cluster = space.cluster();
  Rng rng(GetParam() ? 31 : 32);
  int container_cap = 0, cluster_memory = 0, cores_cap = 0,
      instance_floor = 0;
  std::vector<double> unit(kDim);
  for (int n = 0; n < 20000; ++n) {
    for (double& u : unit) u = rng.NextDouble();
    // Lean on the extremes so the caps bind often.
    for (const ParamId id : ConfigSpace::kCoupledParams) {
      double& u = unit[static_cast<size_t>(id)];
      if (rng.Bernoulli(0.3)) u = rng.Bernoulli(0.5) ? 0.0 : 1.0;
    }
    ExpectRoundTripMatches(space, unit);
    const sparksim::SparkConf in = space.FromUnit(math::Vector(unit));
    const sparksim::SparkConf out = space.Repair(in);
    const double per_exec_in = in.Get(sparksim::kExecutorMemory) +
                               in.Get(sparksim::kExecutorMemoryOverhead) /
                                   1024.0 +
                               in.Get(sparksim::kMemoryOffHeapSize) / 1024.0;
    const double per_exec_out =
        out.Get(sparksim::kExecutorMemory) +
        out.Get(sparksim::kExecutorMemoryOverhead) / 1024.0 +
        out.Get(sparksim::kMemoryOffHeapSize) / 1024.0;
    const double instances = out.Get(sparksim::kExecutorInstances);
    container_cap += per_exec_in > cluster.container_max_memory_gb;
    cores_cap += out.Get(sparksim::kExecutorCores) <
                 std::min<double>(in.Get(sparksim::kExecutorCores),
                                  cluster.container_max_cores);
    cluster_memory +=
        instances < in.Get(sparksim::kExecutorInstances) &&
        instances == std::floor(cluster.total_memory_gb() / per_exec_out);
    instance_floor += instances == space.lo(sparksim::kExecutorInstances);
  }
  EXPECT_GT(container_cap, 0);
  EXPECT_GT(cluster_memory, 0);
  EXPECT_GT(instance_floor, 0);
  if (GetParam()) {
    EXPECT_GT(cores_cap, 0);
  } else {
    EXPECT_EQ(cores_cap, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Clusters, CoordRoundTripTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "x86" : "arm";
                         });

/// The decision the screen replaces: every distance from one
/// kern::WeightedSquaredDistanceCols call with unit weights.
bool ReferenceNear(const std::vector<std::vector<double>>& observations,
                   const std::vector<double>& row) {
  const size_t n = observations.size();
  std::vector<double> cols(kDim * n);
  for (size_t o = 0; o < n; ++o) {
    for (size_t k = 0; k < kDim; ++k) cols[k * n + o] = observations[o][k];
  }
  const std::vector<double> ones(kDim, 1.0);
  std::vector<double> d2(n);
  math::kern::WeightedSquaredDistanceCols(cols.data(), n, kDim, row.data(),
                                          ones.data(), d2.data());
  return std::any_of(d2.begin(), d2.end(),
                     [](double d) { return d < kNearDuplicateSq; });
}

uint64_t MovedMask(const std::vector<double>& base,
                   const std::vector<double>& row) {
  uint64_t moved = 0;
  for (size_t k = 0; k < kDim; ++k) {
    moved |= static_cast<uint64_t>(Bits(row[k]) != Bits(base[k])) << k;
  }
  return moved;
}

/// Checks the screen against the reference for `row`, with the exact
/// moved mask and with every coordinate marked moved.
void ExpectScreenMatches(const std::vector<double>& base,
                         const std::vector<std::vector<double>>& observations,
                         const std::vector<double>& row, bool want) {
  ASSERT_EQ(ReferenceNear(observations, row), want);
  core::NearDuplicateScreen screen(base.data(), kDim, observations.size());
  for (const auto& obs : observations) screen.AddObservation(obs.data());
  EXPECT_EQ(screen.Near(row.data(), MovedMask(base, row)), want);
  EXPECT_EQ(screen.Near(row.data(), (uint64_t{1} << kDim) - 1), want);
}

/// A row at squared distance exactly `target` from the zero observation
/// (as the kernel computes it), from coordinates 0 and 1; empty when the
/// search finds none.
std::vector<double> RowAtDistance(double target) {
  const std::vector<double> zero(kDim, 0.0);
  const std::vector<double> ones(kDim, 1.0);
  std::vector<double> row(kDim, 0.0);
  for (const double d1 : {0.0, 0.01, 0.02, 0.03, 0.035, 0.04}) {
    row[0] = d1;
    double d2 = std::sqrt(target - d1 * d1);
    for (int i = 0; i < 64; ++i) d2 = std::nextafter(d2, 0.0);
    for (int i = 0; i < 128; ++i, d2 = std::nextafter(d2, 1.0)) {
      row[1] = d2;
      if (math::kern::WeightedSquaredDistance(row.data(), zero.data(),
                                              ones.data(), kDim) == target) {
        return row;
      }
    }
  }
  return {};
}

TEST(NearDuplicateScreenTest, DecidesAtTheThreshold) {
  const std::vector<double> zero(kDim, 0.0);
  const std::vector<std::vector<double>> observations = {zero};
  const std::vector<double> at = RowAtDistance(kNearDuplicateSq);
  const std::vector<double> below =
      RowAtDistance(std::nextafter(kNearDuplicateSq, 0.0));
  ASSERT_FALSE(at.empty());
  ASSERT_FALSE(below.empty());
  ExpectScreenMatches(zero, observations, at, /*want=*/false);
  ExpectScreenMatches(zero, observations, below, /*want=*/true);
  // One coordinate one ulp below 0.05 is no witness (its square is one
  // ulp below the threshold); at 0.05 it is one.
  std::vector<double> row = zero;
  row[7] = std::nextafter(0.05, 0.0);
  ExpectScreenMatches(zero, observations, row, /*want=*/true);
  row[7] = 0.05;
  ExpectScreenMatches(zero, observations, row, /*want=*/false);
  // The same with the base at the candidate: the witness is found once,
  // against the base, and the candidate keeps it; one ulp below 0.05 the
  // base has no witness and the kernel decides.
  ExpectScreenMatches(row, observations, row, /*want=*/false);
  row[7] = std::nextafter(0.05, 0.0);
  ExpectScreenMatches(row, observations, row, /*want=*/true);
}

TEST(NearDuplicateScreenTest, SmallCoordinatesSumPastTheThreshold) {
  const std::vector<double> base(kDim, 0.5);
  const std::vector<std::vector<double>> observations = {base};
  // No coordinate is a witness (0.01^2 is far below the threshold), so
  // the full distance decides: 38 of them sum past it, 24 do not.
  std::vector<double> row = base;
  for (size_t k = 0; k < kDim; ++k) row[k] = 0.51;
  ExpectScreenMatches(base, observations, row, /*want=*/false);
  row = base;
  for (size_t k = 0; k < 24; ++k) row[k] = 0.49;
  ExpectScreenMatches(base, observations, row, /*want=*/true);
  // The same spread over the base instead: the candidate moved nothing.
  ExpectScreenMatches(row, {base}, row, /*want=*/true);
}

TEST(NearDuplicateScreenTest, MatchesKernelForAnyObservationCount) {
  Rng rng(41);
  for (const size_t n_obs : {0, 1, 2, 3, 4, 7, 11, 39, 63, 64, 65, 131}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<double> base(kDim);
      for (double& v : base) v = rng.NextDouble();
      // Observations near the base (a few coordinates off, some by less
      // than 0.05), far ones, and repeats.
      std::vector<std::vector<double>> observations;
      for (size_t o = 0; o < n_obs; ++o) {
        std::vector<double> obs = base;
        if (o > 0 && rng.Bernoulli(0.1)) {
          obs = observations[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(o) - 1))];
        } else if (rng.Bernoulli(0.2)) {
          for (double& v : obs) v = rng.NextDouble();
        } else {
          for (int m = static_cast<int>(rng.UniformInt(0, 4)); m > 0; --m) {
            const size_t k = static_cast<size_t>(rng.UniformInt(0, 37));
            obs[k] = std::clamp(obs[k] + rng.Gaussian(0.0, 0.04), 0.0, 1.0);
          }
        }
        observations.push_back(obs);
      }
      core::NearDuplicateScreen screen(base.data(), kDim,
                                       observations.size());
      for (const auto& obs : observations) screen.AddObservation(obs.data());
      for (int c = 0; c < 50; ++c) {
        // A candidate is the base with a few coordinates moved.
        std::vector<double> row = base;
        for (int m = static_cast<int>(rng.UniformInt(0, 6)); m > 0; --m) {
          const size_t k = static_cast<size_t>(rng.UniformInt(0, 37));
          row[k] = rng.Bernoulli(0.5)
                       ? rng.NextDouble()
                       : std::clamp(row[k] + rng.Gaussian(0.0, 0.03), 0.0,
                                    1.0);
        }
        const bool want = ReferenceNear(observations, row);
        ASSERT_EQ(screen.Near(row.data(), MovedMask(base, row)), want)
            << "n_obs " << n_obs << " trial " << trial << " candidate " << c;
        ASSERT_EQ(screen.Near(row.data(), (uint64_t{1} << kDim) - 1), want);
      }
    }
  }
}

TEST(RowSetTest, KeepsTheFirstOfBitwiseEqualRows) {
  constexpr size_t kRows = 6;
  std::vector<double> rows(kRows * kDim, 0.25);
  rows[1 * kDim + 3] = 0.5;   // row 1: distinct
  rows[3 * kDim + 3] = 0.5;   // row 3: a copy of row 1
  rows[4 * kDim + 9] = -0.0;  // row 4: 0.25 -> -0.0, distinct
  rows[5 * kDim + 9] = 0.0;   // row 5: +0.0 differs from -0.0 bitwise
  core::RowSet set(kRows, kDim);
  const std::vector<bool> want = {true, true, false, false, true, true};
  for (size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(set.Insert(rows.data(), r), want[r]) << "row " << r;
  }
  // The first copy stays the one kept, in whichever order rows come.
  core::RowSet reversed(kRows, kDim);
  EXPECT_TRUE(reversed.Insert(rows.data(), 2));
  EXPECT_FALSE(reversed.Insert(rows.data(), 0));
}

}  // namespace
}  // namespace locat
