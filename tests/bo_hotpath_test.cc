// Tests of the BO hot-path performance layer: batched GP predictions,
// the kernel-computation cache, and end-to-end thread-count invariance
// of the tuner. The contract under test is "fast, but bit-for-bit the
// same answer" — every optimization here must be invisible in results.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acquisition_reference.h"
#include "gp_reference.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dagp.h"
#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "math/cholesky.h"
#include "math/kern/kern.h"
#include "math/matrix.h"
#include "ml/ei_mcmc.h"
#include "ml/gp.h"
#include "ml/sparse_gp.h"
#include "sparksim/eval_cache.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat {
namespace {

using math::Matrix;
using math::Vector;
using ml::GaussianProcess;
using ml::GpHyperparams;
using ml::GpKernelCache;

/// Deterministic synthetic regression set: smooth target + mild noise.
void MakeDataset(size_t n, size_t d, Matrix* x, Vector* y) {
  Rng rng(417);
  *x = Matrix(n, d);
  *y = Vector(n);
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double v = rng.NextDouble();
      (*x)(i, j) = v;
      s += std::sin(3.0 * v + static_cast<double>(j));
    }
    (*y)[i] = s + 0.05 * rng.NextGaussian();
  }
}

GpHyperparams MakeHyperparams(size_t d) {
  GpHyperparams hp = GpHyperparams::Default(d);
  for (size_t j = 0; j < d; ++j) {
    hp.log_lengthscales[j] = -1.0 + 0.07 * static_cast<double>(j);
  }
  hp.log_signal_variance = 0.3;
  hp.log_noise_variance = -3.5;
  return hp;
}

// --------------------------------------------------- SolveLowerMatrix

// The blocked multi-column forward substitution PredictBatch runs on its
// candidate blocks agrees with the per-column solve. m covers a lone
// column, a tail-only solve, one exact 16-column group, and groups plus a
// tail.
TEST(SolveLowerMatrixTest, MatchesPerColumnSolveLower) {
  Rng rng(11);
  const size_t n = 24;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      const double v = rng.NextDouble() - 0.5;
      a(i, j) = v;
      a(j, i) = v;
    }
    a(i, i) += static_cast<double>(n);  // diagonally dominant => SPD
  }
  const auto chol = math::Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());

  for (size_t m : {1u, 7u, 16u, 17u, 31u, 32u, 33u, 40u, 48u, 64u, 65u,
                   97u}) {
    Matrix b(n, m);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < m; ++c) b(i, c) = rng.NextGaussian();
    }
    Matrix y = b;
    math::kern::SolveLowerMatrixInPlace(chol->L().RowData(0), n,
                                        y.RowData(0), m);
    for (size_t c = 0; c < m; ++c) {
      Vector col(n);
      for (size_t i = 0; i < n; ++i) col[i] = b(i, c);
      const Vector ref = chol->SolveLower(col);
      // Solved alone, the column takes the Axpy tail path; inside the
      // block it rode a 32- or 16-column group or the tail. Same bits.
      Vector alone = col;
      math::kern::SolveLowerMatrixInPlace(chol->L().RowData(0), n,
                                          alone.data().data(), 1);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(y(i, c), ref[i], 1e-12)
            << "m " << m << " col " << c << " row " << i;
        EXPECT_EQ(y(i, c), alone[i])
            << "m " << m << " col " << c << " row " << i;
      }
    }
  }
}

// -------------------------------------------------------- PredictBatch

TEST(PredictBatchTest, MatchesPerPointPredict) {
  Matrix x;
  Vector y;
  MakeDataset(60, 9, &x, &y);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, MakeHyperparams(9)).ok());

  Rng rng(5);
  const size_t m = 200;
  Matrix xs(m, 9);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < 9; ++j) xs(i, j) = rng.NextDouble();
  }
  const GaussianProcess::BatchPrediction batch = gp.PredictBatch(xs);
  ASSERT_EQ(batch.mean.size(), m);
  ASSERT_EQ(batch.variance.size(), m);
  for (size_t i = 0; i < m; ++i) {
    const auto p = gp.PredictReference(xs.Row(i));
    EXPECT_NEAR(batch.mean[i], p.mean, 1e-10) << "candidate " << i;
    EXPECT_NEAR(batch.variance[i], p.variance, 1e-10) << "candidate " << i;
    EXPECT_GE(batch.variance[i], 0.0);
  }
}

TEST(PredictBatchTest, AnyChunkingIsBitIdentical) {
  Matrix x;
  Vector y;
  MakeDataset(40, 6, &x, &y);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, MakeHyperparams(6)).ok());

  Rng rng(6);
  const size_t m = 64;
  Matrix xs(m, 6);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < 6; ++j) xs(i, j) = rng.NextDouble();
  }
  const auto whole = gp.PredictBatch(xs);
  // Split into two uneven chunks; rows must come out bit-identical.
  const size_t cut = 19;
  Matrix lo(cut, 6);
  Matrix hi(m - cut, 6);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      if (i < cut) {
        lo(i, j) = xs(i, j);
      } else {
        hi(i - cut, j) = xs(i, j);
      }
    }
  }
  const auto a = gp.PredictBatch(lo);
  const auto b = gp.PredictBatch(hi);
  for (size_t i = 0; i < m; ++i) {
    const double mean = i < cut ? a.mean[i] : b.mean[i - cut];
    const double var = i < cut ? a.variance[i] : b.variance[i - cut];
    EXPECT_EQ(whole.mean[i], mean) << "candidate " << i;
    EXPECT_EQ(whole.variance[i], var) << "candidate " << i;
  }
}

/// PredictBatch computed the unfused way from public pieces, per
/// candidate: the row-major k* (WeightedSquaredDistanceRows + ExpScaled);
/// the mean as y_mean + y_std * kern::Dot(k*, alpha), with alpha solved
/// from the factorization `GaussianProcess::Fit(cache, hp)` runs; the
/// variance by a plain row-streaming forward substitution with one
/// std::fma per term in ascending j, then the ascending sum of squares.
GaussianProcess::BatchPrediction UnfusedPredict(const GaussianProcess& gp,
                                                const GpKernelCache& cache,
                                                const Matrix& xs) {
  const Matrix& x = cache.x();
  const size_t n = x.rows();
  const size_t d = x.cols();
  const GpHyperparams& hp = gp.hyperparams();
  std::vector<double> w(d);
  for (size_t k = 0; k < d; ++k) {
    w[k] = std::exp(-2.0 * hp.log_lengthscales[k]);
  }
  const double sv = std::exp(hp.log_signal_variance);
  const double ys2 = cache.y_std() * cache.y_std();
  const Matrix& l = gp.factor();
  auto chol = math::Cholesky::FactorWithJitter(cache.BuildKernel(hp));
  EXPECT_TRUE(chol.ok());
  const Vector alpha = chol->Solve(cache.standardized_y());
  GaussianProcess::BatchPrediction out;
  out.mean = Vector(xs.rows());
  out.variance = Vector(xs.rows());
  std::vector<double> v(n);
  for (size_t c = 0; c < xs.rows(); ++c) {
    math::kern::WeightedSquaredDistanceRows(x.RowData(0), n, d, d,
                                            xs.RowData(c), w.data(), v.data());
    math::kern::ExpScaled(v.data(), n, -0.5, sv);
    out.mean[c] = cache.y_mean() +
                  cache.y_std() * math::kern::Dot(v.data(),
                                                  alpha.data().data(), n);
    for (size_t i = 0; i < n; ++i) {
      double acc = v[i];
      for (size_t j = 0; j < i; ++j) {
        if (l(i, j) == 0.0) continue;
        acc = std::fma(-l(i, j), v[j], acc);
      }
      v[i] = (1.0 / l(i, i)) * acc;
    }
    double sumsq = 0.0;
    for (size_t i = 0; i < n; ++i) sumsq = std::fma(v[i], v[i], sumsq);
    double vc = sv - sumsq;
    if (vc < 0.0) vc = 0.0;
    out.variance[c] = vc * ys2;
  }
  return out;
}

Matrix RandomCandidates(size_t m, size_t d, Rng* rng) {
  Matrix xs(m, d);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) xs(i, j) = rng->NextDouble();
  }
  return xs;
}

void ExpectFusedMatchesUnfused(const GaussianProcess& gp,
                               const GpKernelCache& cache, const Matrix& xs) {
  const auto batch = gp.PredictBatch(xs);
  const auto ref = UnfusedPredict(gp, cache, xs);
  ASSERT_EQ(batch.variance.size(), xs.rows());
  for (size_t c = 0; c < xs.rows(); ++c) {
    EXPECT_EQ(batch.variance[c], ref.variance[c]) << "candidate " << c;
    EXPECT_EQ(batch.mean[c], ref.mean[c]) << "candidate " << c;
  }
}

const size_t kFusedBlockSizes[] = {1, 15, 16, 17, 63, 64, 65, 130};

// The candidate-blocked PredictBatch keeps every floating-point operation
// sequence of the unfused computation: m straddles the 64-candidate block
// and the solve's 16-column groups, n the mean's four lanes, d the
// cross-kernel's four lane classes.
TEST(PredictBatchTest, FusedMatchesUnfusedBitForBit) {
  Rng rng(21);
  for (size_t n : {1u, 3u, 5u, 48u, 77u}) {
    for (size_t d : {1u, 4u, 7u, 15u, 39u}) {
      SCOPED_TRACE("n " + std::to_string(n) + " d " + std::to_string(d));
      Matrix x;
      Vector y;
      MakeDataset(n, d, &x, &y);
      GpKernelCache cache(x, y);
      GaussianProcess gp;
      ASSERT_TRUE(gp.Fit(cache, MakeHyperparams(d)).ok());
      for (size_t m : kFusedBlockSizes) {
        SCOPED_TRACE("m " + std::to_string(m));
        ExpectFusedMatchesUnfused(gp, cache, RandomCandidates(m, d, &rng));
      }
    }
  }

  // Duplicate rows force the jitter-retry factorization.
  {
    const size_t n = 20, d = 3;
    Matrix x(n, d);
    Vector y(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) {
        x(i, j) = 0.2 + 0.15 * static_cast<double>((i % 4) + j);
      }
      y[i] = 1.0 + 0.01 * static_cast<double>(i);
    }
    GpHyperparams hp = GpHyperparams::Default(d);
    hp.log_noise_variance = -40.0;
    hp.log_signal_variance = 20.0;
    GpKernelCache cache(x, y);
    GaussianProcess gp;
    ASSERT_TRUE(gp.Fit(cache, hp).ok());
    ASSERT_GT(gp.applied_jitter(), 0.0) << "test requires the jitter path";
    for (size_t m : kFusedBlockSizes) {
      SCOPED_TRACE("jitter m " + std::to_string(m));
      ExpectFusedMatchesUnfused(gp, cache, RandomCandidates(m, d, &rng));
    }
  }

  // Constant targets: y_std clamps to 1 and alpha is all zeros.
  {
    Matrix x;
    Vector y;
    MakeDataset(30, 5, &x, &y);
    for (size_t i = 0; i < y.size(); ++i) y[i] = 7.5;
    GpKernelCache cache(x, y);
    GaussianProcess gp;
    ASSERT_TRUE(gp.Fit(cache, MakeHyperparams(5)).ok());
    for (size_t m : kFusedBlockSizes) {
      SCOPED_TRACE("constant m " + std::to_string(m));
      ExpectFusedMatchesUnfused(gp, cache, RandomCandidates(m, 5, &rng));
    }
  }
}

TEST(PredictTest, ReferenceImplementationAgrees) {
  Matrix x;
  Vector y;
  MakeDataset(50, 7, &x, &y);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, MakeHyperparams(7)).ok());
  Rng rng(7);
  const Matrix qs = RandomCandidates(50, 7, &rng);
  const auto fast = gp.PredictBatch(qs);
  for (size_t t = 0; t < qs.rows(); ++t) {
    const auto ref = gp.PredictReference(qs.Row(t));
    EXPECT_NEAR(fast.mean[t], ref.mean, 1e-10);
    EXPECT_NEAR(fast.variance[t], ref.variance, 1e-10);
  }
}

// ------------------------------------------------------- GpKernelCache

TEST(GpKernelCacheTest, LogMarginalLikelihoodMatchesReference) {
  Matrix x;
  Vector y;
  MakeDataset(35, 8, &x, &y);
  GpKernelCache cache(x, y);
  for (int t = 0; t < 5; ++t) {
    GpHyperparams hp = MakeHyperparams(8);
    hp.log_signal_variance += 0.11 * t;
    hp.log_noise_variance -= 0.2 * t;
    const double cached = cache.LogMarginalLikelihood(hp);
    const double ref =
        testutil::ReferenceLogMarginalLikelihood(x, y, hp);
    EXPECT_NEAR(cached, ref, 1e-8 * std::abs(ref)) << "variant " << t;
  }
}

TEST(GpKernelCacheTest, CacheFitMatchesDirectFit) {
  Matrix x;
  Vector y;
  MakeDataset(30, 5, &x, &y);
  const GpHyperparams hp = MakeHyperparams(5);
  GaussianProcess direct;
  ASSERT_TRUE(direct.Fit(x, y, hp).ok());
  GpKernelCache cache(x, y);
  GaussianProcess via_cache;
  ASSERT_TRUE(via_cache.Fit(cache, hp).ok());
  Rng rng(8);
  const Matrix qs = RandomCandidates(20, 5, &rng);
  const auto a = direct.PredictBatch(qs);
  const auto b = via_cache.PredictBatch(qs);
  for (size_t t = 0; t < qs.rows(); ++t) {
    EXPECT_NEAR(a.mean[t], b.mean[t], 1e-10);
    EXPECT_NEAR(a.variance[t], b.variance[t], 1e-10);
  }
}

TEST(GpKernelCacheTest, AdoptFitEquivalentToFreshFit) {
  Matrix x;
  Vector y;
  MakeDataset(30, 5, &x, &y);
  const GpHyperparams hp = MakeHyperparams(5);
  GpKernelCache cache(x, y);
  // A likelihood evaluation memoizes the factorization for exactly hp...
  const double lml = cache.LogMarginalLikelihood(hp);
  ASSERT_TRUE(std::isfinite(lml));
  auto fact = cache.TakeMemoized(hp.Flatten());
  ASSERT_TRUE(fact.has_value());
  EXPECT_DOUBLE_EQ(fact->log_marginal_likelihood, lml);

  GaussianProcess adopted;
  ASSERT_TRUE(adopted.AdoptFit(cache, hp, std::move(*fact)).ok());
  GaussianProcess fresh;
  ASSERT_TRUE(fresh.Fit(cache, hp).ok());
  EXPECT_DOUBLE_EQ(adopted.LogMarginalLikelihood(),
                   fresh.LogMarginalLikelihood());
  Rng rng(9);
  const Matrix qs = RandomCandidates(20, 5, &rng);
  const auto a = adopted.PredictBatch(qs);
  const auto b = fresh.PredictBatch(qs);
  for (size_t t = 0; t < qs.rows(); ++t) {
    EXPECT_EQ(a.mean[t], b.mean[t]);
    EXPECT_EQ(a.variance[t], b.variance[t]);
  }
}

TEST(GpKernelCacheTest, TakeMemoizedMissesOnDifferentHyperparams) {
  Matrix x;
  Vector y;
  MakeDataset(12, 3, &x, &y);
  GpKernelCache cache(x, y);
  const GpHyperparams hp = MakeHyperparams(3);
  cache.LogMarginalLikelihood(hp);
  GpHyperparams other = hp;
  other.log_noise_variance += 1e-9;
  EXPECT_FALSE(cache.TakeMemoized(other.Flatten()).has_value());
  // The miss must not have consumed the memo.
  EXPECT_TRUE(cache.TakeMemoized(hp.Flatten()).has_value());
  // ...but a hit does: a second take misses.
  EXPECT_FALSE(cache.TakeMemoized(hp.Flatten()).has_value());
}

TEST(GpKernelCacheTest, DegenerateKernelStillFactorsWithJitter) {
  // Duplicate points + near-zero noise force the jitter path (satellite:
  // the static likelihood and Fit must use the same regularization).
  Matrix x(6, 2);
  Vector y(6);
  for (size_t i = 0; i < 6; ++i) {
    x(i, 0) = 0.5;
    x(i, 1) = 0.5;
    y[i] = 1.0;
  }
  GpHyperparams hp = GpHyperparams::Default(2);
  hp.log_noise_variance = -40.0;
  GpKernelCache cache(x, y);
  const double cached = cache.LogMarginalLikelihood(hp);
  const double ref = testutil::ReferenceLogMarginalLikelihood(x, y, hp);
  EXPECT_TRUE(std::isfinite(cached));
  EXPECT_TRUE(std::isfinite(ref));
  EXPECT_NEAR(cached, ref, 1e-6 * std::max(1.0, std::abs(ref)));
}

/// The log marginal likelihood by the kernel build the lane cache
/// replaces: row-major pair squared differences, one row-major mat-vec
/// against the weights, ExpScaled(-1/2, signal) and a symmetric K handed
/// to FactorWithJitter. nullopt when K cannot be factored.
std::optional<GpKernelCache::Factorization> RowMajorMatVecDensity(
    const Matrix& x, const Vector& ys, const GpHyperparams& hp) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t npairs = n * (n - 1) / 2;
  std::vector<double> sqdiff(npairs * d);
  for (size_t i = 0, p = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j, ++p) {
      for (size_t k = 0; k < d; ++k) {
        const double diff = x(i, k) - x(j, k);
        sqdiff[p * d + k] = diff * diff;
      }
    }
  }
  std::vector<double> w(d);
  for (size_t k = 0; k < d; ++k) {
    w[k] = std::exp(-2.0 * hp.log_lengthscales[k]);
  }
  const double sv = std::exp(hp.log_signal_variance);
  std::vector<double> vals(npairs);
  math::kern::MatVecRowMajor(sqdiff.data(), npairs, d, w.data(), vals.data());
  math::kern::ExpScaled(vals.data(), npairs, -0.5, sv);
  Matrix k(n, n);
  for (size_t i = 0, p = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j, ++p) {
      k(i, j) = vals[p];
      k(j, i) = vals[p];
    }
    k(i, i) = sv + std::exp(hp.log_noise_variance) + 1e-10;
  }
  auto chol = math::Cholesky::FactorWithJitter(k);
  if (!chol.ok()) return std::nullopt;
  Vector alpha = chol->Solve(ys);
  const double lml = -0.5 * ys.Dot(alpha) - 0.5 * chol->LogDeterminant() -
                     static_cast<double>(n) * 0.9189385332046727;
  return GpKernelCache::Factorization{std::move(chol).value(),
                                      std::move(alpha), lml};
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// How many steps of a walk took the jitter path, and how many could not
/// be factored at all.
struct WalkPaths {
  int jittered = 0;
  int failed = 0;
};

/// Walks one cache through `steps` proposals shaped like the slice
/// sampler's: one lengthscale, signal only, noise only, or every
/// coordinate at once, then repeats the state (no lane changes). At each
/// step the density, the factor and alpha must carry the bits of
/// `RowMajorMatVecDensity`. `extreme` draws some lengthscales whose
/// weights underflow to 0 or overflow to inf.
WalkPaths ExpectWalkMatchesRowMajorReference(const Matrix& x,
                                             const Vector& y, uint64_t seed,
                                             int steps, bool extreme) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  GpKernelCache cache(x, y);
  Rng rng(seed);
  GpHyperparams hp = GpHyperparams::Default(d);
  WalkPaths paths;
  const auto draw_lengthscale = [&]() {
    if (extreme && rng.NextDouble() < 0.3) {
      return rng.NextDouble() < 0.5 ? 400.0 : -400.0;
    }
    return rng.Uniform(-3.0, 1.5);
  };
  // A quarter of the signal draws are so large, and half the noise draws
  // so tiny, that the fixed 1e-10 diagonal drowns in rounding and
  // near-singular kernels need the jitter retries.
  const auto draw_signal = [&]() {
    return rng.NextDouble() < 0.25 ? rng.Uniform(10.0, 25.0)
                                   : rng.Uniform(-2.0, 2.0);
  };
  const auto draw_noise = [&]() {
    return rng.NextDouble() < 0.5 ? rng.Uniform(-40.0, -20.0)
                                  : rng.Uniform(-12.0, 0.0);
  };
  for (int step = 0; step < steps; ++step) {
    switch (step % 5) {
      case 0:
        hp.log_lengthscales[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(d) - 1))] =
            draw_lengthscale();
        break;
      case 1:
        hp.log_signal_variance = draw_signal();
        break;
      case 2:
        hp.log_noise_variance = draw_noise();
        break;
      case 3:
        for (size_t k = 0; k < d; ++k) {
          hp.log_lengthscales[k] = draw_lengthscale();
        }
        hp.log_signal_variance = draw_signal();
        hp.log_noise_variance = draw_noise();
        break;
      default:
        break;  // same state again
    }
    const auto ref = RowMajorMatVecDensity(x, cache.standardized_y(), hp);
    const double lml = cache.LogMarginalLikelihood(hp);
    SCOPED_TRACE(::testing::Message() << "n=" << n << " d=" << d
                                      << " step=" << step);
    auto got = cache.TakeMemoized(hp.Flatten());
    if (!ref.has_value()) {
      ++paths.failed;
      EXPECT_EQ(lml, -std::numeric_limits<double>::infinity());
      EXPECT_FALSE(got.has_value());
      continue;
    }
    if (ref->chol.jitter() > 0.0) ++paths.jittered;
    EXPECT_PRED2(SameBits, lml, ref->log_marginal_likelihood);
    if (!got.has_value()) {
      ADD_FAILURE() << "no memoized factorization";
      continue;
    }
    EXPECT_PRED2(SameBits, got->chol.jitter(), ref->chol.jitter());
    const Matrix& l = got->chol.L();
    const Matrix& rl = ref->chol.L();
    size_t factor_diffs = 0;
    size_t alpha_diffs = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        factor_diffs += !SameBits(l(i, j), rl(i, j));
      }
      alpha_diffs += !SameBits(got->alpha[i], ref->alpha[i]);
    }
    EXPECT_EQ(factor_diffs, 0u);
    EXPECT_EQ(alpha_diffs, 0u);
  }
  return paths;
}

// The lane-cached density against the mat-vec formula it replaced.
TEST(GpKernelCacheTest, IncrementalDensityMatchesParentFormulaBitForBit) {
  uint64_t seed = 1;
  for (size_t d : {1u, 2u, 3u, 4u, 5u, 8u, 21u, 39u}) {
    for (size_t n : {2u, 3u, 33u, 77u}) {
      Matrix x;
      Vector y;
      MakeDataset(n, d, &x, &y);
      ExpectWalkMatchesRowMajorReference(x, y, seed++, 30,
                                         /*extreme=*/false);
    }
  }

  // Duplicate rows with tiny noise: singular kernels take the jitter path.
  Matrix x;
  Vector y;
  MakeDataset(33, 5, &x, &y);
  for (size_t i = 11; i < 33; ++i) x.SetRow(i, x.Row(i % 11));
  const WalkPaths dup =
      ExpectWalkMatchesRowMajorReference(x, y, 101, 40, /*extreme=*/false);
  EXPECT_GT(dup.jittered, 0);

  // Constant targets standardize to all zeros.
  MakeDataset(33, 8, &x, &y);
  for (size_t i = 0; i < y.size(); ++i) y[i] = 2.5;
  ExpectWalkMatchesRowMajorReference(x, y, 102, 30, /*extreme=*/false);

  // Weights exp(-2 * 400) = 0 and exp(800) = inf, on data that also has
  // repeated coordinate values: inf * 0 makes NaN exponents, whose
  // kernels cannot be factored.
  for (size_t d : {3u, 21u}) {
    MakeDataset(33, d, &x, &y);
    for (size_t i = 0; i < 33; i += 3) x(i, 0) = 0.5;
    const WalkPaths paths = ExpectWalkMatchesRowMajorReference(
        x, y, 100 + d, 60, /*extreme=*/true);
    EXPECT_GT(paths.failed, 0) << "d=" << d;
  }
}

// ------------------------------------------------------------- EiMcmc

TEST(EiMcmcBatchTest, BatchAcquisitionMatchesPerCandidate) {
  Matrix x;
  Vector y;
  MakeDataset(25, 6, &x, &y);
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 4;
  opts.burn_in = 4;
  ml::EiMcmc model(opts);
  Rng rng(31);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());

  Rng crng(32);
  const size_t m = 80;
  Matrix xs(m, 6);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < 6; ++j) xs(i, j) = crng.NextDouble();
  }
  const Vector eis = model.AcquisitionValueBatch(xs);
  const auto preds = model.PredictAveragedBatch(xs);
  ASSERT_EQ(eis.size(), m);
  for (size_t i = 0; i < m; ++i) {
    const Vector q = xs.Row(i);
    EXPECT_NEAR(eis[i], testutil::ReferenceAcquisition(model, q),
                1e-10 * std::max(1.0, std::abs(eis[i])));
    // Per-point reference: the members' moments averaged by the law of
    // total variance.
    double mean = 0.0;
    double second_moment = 0.0;
    for (const auto& gp : model.ensemble()) {
      const auto p = gp.PredictReference(q);
      mean += p.mean;
      second_moment += p.variance + p.mean * p.mean;
    }
    const double n = static_cast<double>(model.ensemble().size());
    mean /= n;
    EXPECT_NEAR(preds.mean[i], mean, 1e-10);
    EXPECT_NEAR(preds.variance[i],
                std::max(0.0, second_moment / n - mean * mean), 1e-10);
  }
}

TEST(EiMcmcBatchTest, FastPathInvariantToThreadCount) {
  // A cold fit on 25 rows, then a fit that continues its chain on 28.
  Matrix x0, x;
  Vector y0, y;
  MakeDataset(25, 6, &x0, &y0);
  MakeDataset(28, 6, &x, &y);
  Matrix xs(50, 6);
  Rng crng(33);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 6; ++j) xs(i, j) = crng.NextDouble();
  }
  auto run = [&](int threads) {
    common::ThreadPool::SetGlobalThreads(threads);
    ml::EiMcmc::Options opts;
    opts.num_hyper_samples = 4;
    opts.burn_in = 4;
    ml::EiMcmc model(opts);
    Rng rng(34);
    EXPECT_TRUE(model.Fit(x0, y0, &rng).ok());
    EXPECT_TRUE(model.Fit(x, y, &rng).ok());
    EXPECT_TRUE(model.last_fit_stats().continued);
    return model.AcquisitionValueBatch(xs);
  };
  const Vector one = run(1);
  const Vector four = run(4);
  const Vector eight = run(8);
  common::ThreadPool::SetGlobalThreads(0);  // restore default
  ASSERT_EQ(one.size(), four.size());
  ASSERT_EQ(one.size(), eight.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "candidate " << i;
    EXPECT_EQ(one[i], eight[i]) << "candidate " << i;
  }
}

// ------------------------------------------ incremental surrogate layer

TEST(AppendFitTest, RepeatedAppendMatchesOneFit) {
  const size_t n = 48, d = 6, n0 = 20;
  Matrix x;
  Vector y;
  MakeDataset(n, d, &x, &y);
  const GpHyperparams hp = MakeHyperparams(d);

  Matrix x0(n0, d);
  Vector y0(n0);
  for (size_t i = 0; i < n0; ++i) {
    x0.SetRow(i, x.Row(i));
    y0[i] = y[i];
  }
  GaussianProcess incremental;
  ASSERT_TRUE(incremental.Fit(x0, y0, hp).ok());
  for (size_t i = n0; i < n; ++i) {
    ASSERT_TRUE(incremental.AppendFit(x.Row(i), y[i]).ok()) << "append " << i;
  }
  ASSERT_EQ(incremental.num_points(), n);

  GaussianProcess full;
  ASSERT_TRUE(full.Fit(x, y, hp).ok());

  EXPECT_NEAR(incremental.LogMarginalLikelihood(), full.LogMarginalLikelihood(),
              1e-7 * std::abs(full.LogMarginalLikelihood()));
  Rng rng(77);
  const Matrix qs = RandomCandidates(40, d, &rng);
  const auto a = incremental.PredictBatch(qs);
  const auto b = full.PredictBatch(qs);
  for (size_t t = 0; t < qs.rows(); ++t) {
    EXPECT_NEAR(a.mean[t], b.mean[t],
                1e-8 * std::max(1.0, std::abs(b.mean[t])));
    EXPECT_NEAR(a.variance[t], b.variance[t],
                1e-8 * std::max(1.0, std::abs(b.variance[t])));
  }
}

TEST(AppendFitTest, AppendAfterJitterRetryMatchesConsistentlyJitteredRefit) {
  // Regression for the jitter contract: a fit that needed the jitter-retry
  // path must append with the SAME jitter on the new diagonal, so the
  // extended factor equals a from-scratch factor of the extended kernel
  // with that jitter applied. (Before the contract the appended diagonal
  // re-derived nothing and silently dropped the regularization.)
  const size_t n = 12, d = 2;
  Matrix x(n, d);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    // Duplicate inputs + near-zero noise: the kernel matrix is singular and
    // FactorWithJitter must escalate.
    x(i, 0) = 0.5;
    x(i, 1) = 0.5;
    y[i] = 1.0 + 0.01 * static_cast<double>(i);
  }
  GpHyperparams hp = GpHyperparams::Default(d);
  hp.log_noise_variance = -40.0;
  // Large signal variance pushes the kernel builder's 1e-10 diagonal floor
  // below one ulp of the diagonal, so the rank-1 duplicate matrix really is
  // numerically singular and the factorization must retry with jitter.
  hp.log_signal_variance = 20.0;

  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, hp).ok());
  const double jitter = gp.applied_jitter();
  ASSERT_GT(jitter, 0.0) << "test requires the jitter-retry path";

  Vector x_new(d);
  x_new[0] = 0.52;
  x_new[1] = 0.48;
  const double y_new = 1.2;
  ASSERT_TRUE(gp.AppendFit(x_new, y_new).ok());
  EXPECT_EQ(gp.applied_jitter(), jitter);  // appends never change the jitter

  // Reference: the extended kernel with exactly the same jitter, factored
  // from scratch.
  Matrix x_ext(n + 1, d);
  Vector y_ext(n + 1);
  for (size_t i = 0; i < n; ++i) {
    x_ext.SetRow(i, x.Row(i));
    y_ext[i] = y[i];
  }
  x_ext.SetRow(n, x_new);
  y_ext[n] = y_new;
  GpKernelCache ext_cache(x_ext, y_ext);
  Matrix k_ext = ext_cache.BuildKernel(hp);
  k_ext.AddToDiagonal(jitter);
  auto ref_chol = math::Cholesky::Factor(k_ext);
  ASSERT_TRUE(ref_chol.ok())
      << "extended kernel must be SPD under the original jitter";

  // The factors agree to rounding at the matrix's scale. (The jittered
  // system is deliberately near-singular — conditioning ~ diag/jitter —
  // so sub-pivot entries carry cancellation noise; the meaningful
  // tolerance is relative to the column scale sqrt(diag), not to the
  // entry itself. Tight equality under good conditioning is covered by
  // RepeatedAppendMatchesOneFit.)
  const Matrix& appended_l = gp.factor();
  ASSERT_EQ(appended_l.rows(), n + 1);
  const double col_scale = std::sqrt(k_ext(0, 0));
  for (size_t i = 0; i <= n; ++i)
    for (size_t j = 0; j <= i; ++j)
      EXPECT_NEAR(appended_l(i, j), ref_chol->L()(i, j), 1e-7 * col_scale)
          << "L(" << i << "," << j << ")";

  // The posterior stays sane: predicting at the duplicated input recovers
  // (approximately) the mean of the duplicated targets, with a finite
  // non-negative variance.
  Matrix q(1, d);
  q(0, 0) = 0.5;
  q(0, 1) = 0.5;
  const auto pred = gp.PredictBatch(q);
  double y_bar = 0.0;
  for (size_t i = 0; i < n; ++i) y_bar += y[i] / static_cast<double>(n);
  EXPECT_TRUE(std::isfinite(pred.mean[0]));
  EXPECT_NEAR(pred.mean[0], y_bar, 0.2);
  EXPECT_GE(pred.variance[0], 0.0);
  EXPECT_TRUE(std::isfinite(pred.variance[0]));
}

TEST(AppendFitTest, EiMcmcAppendMatchesPerMemberAppendAndThreadCounts) {
  Matrix x;
  Vector y;
  MakeDataset(26, 5, &x, &y);
  Matrix x0(24, 5);
  Vector y0(24);
  for (size_t i = 0; i < 24; ++i) {
    x0.SetRow(i, x.Row(i));
    y0[i] = y[i];
  }
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 4;
  opts.burn_in = 4;

  auto fit_and_append = [&](int threads) {
    common::ThreadPool::SetGlobalThreads(threads);
    ml::EiMcmc model(opts);
    Rng rng(52);
    EXPECT_TRUE(model.Fit(x0, y0, &rng).ok());
    EXPECT_TRUE(model.AppendObservation(x.Row(24), y[24]).ok());
    EXPECT_TRUE(model.AppendObservation(x.Row(25), y[25]).ok());
    return model;
  };
  const ml::EiMcmc one = fit_and_append(1);
  const ml::EiMcmc eight = fit_and_append(8);
  common::ThreadPool::SetGlobalThreads(0);  // restore default

  ASSERT_EQ(one.ensemble().size(), eight.ensemble().size());
  // Appending consumed no RNG and ran per-member: each member equals a
  // manual AppendFit at the same hyperparameters, and the whole model is
  // bit-identical across thread counts.
  for (size_t k = 0; k < one.ensemble().size(); ++k) {
    ASSERT_EQ(one.ensemble()[k].num_points(), 26u);
    GaussianProcess manual;
    ASSERT_TRUE(manual.Fit(x0, y0, one.ensemble()[k].hyperparams()).ok());
    ASSERT_TRUE(manual.AppendFit(x.Row(24), y[24]).ok());
    ASSERT_TRUE(manual.AppendFit(x.Row(25), y[25]).ok());
    Rng rng(53);
    const Matrix qs = RandomCandidates(10, 5, &rng);
    const auto a = one.ensemble()[k].PredictBatch(qs);
    const auto b = eight.ensemble()[k].PredictBatch(qs);
    const auto m = manual.PredictBatch(qs);
    for (size_t t = 0; t < qs.rows(); ++t) {
      EXPECT_EQ(a.mean[t], b.mean[t]) << "member " << k;
      EXPECT_EQ(a.variance[t], b.variance[t]) << "member " << k;
      EXPECT_NEAR(a.mean[t], m.mean[t],
                  1e-10 * std::max(1.0, std::abs(m.mean[t])));
      EXPECT_NEAR(a.variance[t], m.variance[t],
                  1e-10 * std::max(1.0, std::abs(m.variance[t])));
    }
  }
}

// Synthetic single-data-size DAGP observation stream. Returns the lowest
// seconds fed.
double FeedObservations(core::Dagp* dagp, size_t count, size_t dim,
                        uint64_t seed) {
  Rng rng(seed);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    Vector conf(dim);
    double s = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      conf[j] = rng.NextDouble();
      s += std::sin(2.5 * conf[j] + static_cast<double>(j));
    }
    const double seconds = 60.0 + 25.0 * s * s + 2.0 * rng.NextDouble();
    dagp->AddObservation(conf, 100.0, seconds);
    best = std::min(best, seconds);
  }
  return best;
}

TEST(SparseGpTest, GreedyMaxMinSelectionProperties) {
  Rng rng(61);
  const size_t n = 50, d = 4;
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) x(i, j) = rng.NextDouble();

  const size_t seed = 17;
  const auto subset = ml::GreedyMaxMinSubset(x, 12, seed);
  ASSERT_EQ(subset.size(), 12u);
  // Sorted ascending, unique, seed included.
  for (size_t i = 1; i < subset.size(); ++i)
    EXPECT_LT(subset[i - 1], subset[i]);
  EXPECT_TRUE(std::find(subset.begin(), subset.end(), seed) != subset.end());

  // m >= n returns everything.
  const auto everything = ml::GreedyMaxMinSubset(x, n + 5, 0);
  ASSERT_EQ(everything.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(everything[i], i);

  // Degenerate duplicates must not loop or repeat indices.
  Matrix dup(8, 2);
  for (size_t i = 0; i < 8; ++i) {
    dup(i, 0) = 0.5;
    dup(i, 1) = 0.5;
  }
  const auto dsel = ml::GreedyMaxMinSubset(dup, 4, 2);
  ASSERT_EQ(dsel.size(), 4u);
  for (size_t i = 1; i < dsel.size(); ++i) EXPECT_LT(dsel[i - 1], dsel[i]);

  // Farthest-point property on a line: selecting 3 of {0, 0.1, ..., 1.0}
  // from seed 0 must pick both extremes.
  Matrix line(11, 1);
  for (size_t i = 0; i < 11; ++i) line(i, 0) = 0.1 * static_cast<double>(i);
  const auto lsel = ml::GreedyMaxMinSubset(line, 3, 0);
  ASSERT_EQ(lsel.size(), 3u);
  EXPECT_EQ(lsel[0], 0u);
  EXPECT_EQ(lsel[2], 10u);  // the far end is always the first pick
}

TEST(SparseGpTest, DagpSparseModeRefitsOnIncumbentSeededSubset) {
  // One row past the fit cap: the full refit runs on a greedy max-min
  // subset of kMaxFitRows - kMaxFitRows / 6 rows.
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 3;
  opts.burn_in = 4;
  core::Dagp dagp(opts);
  const size_t cap = core::Dagp::kMaxFitRows;
  const size_t subset = cap - cap / 6;
  ASSERT_EQ(subset, 200u);
  const double best_seconds = FeedObservations(&dagp, cap + 1, 3, 7);
  Rng rng(62);
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  EXPECT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kSparse);
  EXPECT_EQ(dagp.model_observations(), subset);
  // The incumbent seeds the subset, so the model's best observed target
  // is the GLOBAL best, not merely the subset's.
  EXPECT_EQ(dagp.model().best_observed(), std::log(best_seconds));
  // The subset surrogate stays usable for acquisition + prediction.
  const Matrix probe(1, 3, 0.5);
  EXPECT_TRUE(std::isfinite(dagp.ExpectedImprovementBatch(probe, 100.0)[0]));
  EXPECT_GT(dagp.PredictBatch(probe, {100.0})[0].seconds, 0.0);

  // Past the cap the growth schedule still applies: the next same-size
  // row is appended onto the subset model.
  FeedObservations(&dagp, 1, 3, 8);
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  EXPECT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kAppend);
  EXPECT_EQ(dagp.model_observations(), subset + 1);
}

// ------------------------------------------- end-to-end tuner invariance

TEST(BoHotPathTest, TunerOutputBitIdenticalAcrossThreadCounts) {
  const auto cluster = sparksim::X86Cluster();
  const auto app = workloads::HiBenchAggregation();
  auto run = [&](int threads) {
    common::ThreadPool::SetGlobalThreads(threads);
    sparksim::ClusterSimulator sim(cluster, 90);
    core::TuningSession session(&sim, app);
    core::LocatTuner::Options opts;
    opts.n_qcsa = 8;
    opts.n_iicp = 6;
    opts.lhs_init = 2;
    opts.min_iterations = 3;
    opts.max_iterations = 6;
    opts.warm_iterations = 3;
    opts.candidates = 60;
    opts.seed = 9;
    core::LocatTuner tuner(opts);
    return tuner.Tune(&session, 200.0);
  };
  const core::TuningResult one = run(1);
  const core::TuningResult four = run(4);
  const core::TuningResult eight = run(8);
  common::ThreadPool::SetGlobalThreads(0);  // restore default

  EXPECT_EQ(one.evaluations, four.evaluations);
  EXPECT_EQ(one.evaluations, eight.evaluations);
  EXPECT_EQ(one.best_observed_seconds, four.best_observed_seconds);
  EXPECT_EQ(one.best_observed_seconds, eight.best_observed_seconds);
  EXPECT_EQ(one.optimization_seconds, four.optimization_seconds);
  EXPECT_EQ(one.optimization_seconds, eight.optimization_seconds);
  EXPECT_TRUE(one.best_conf == four.best_conf);
  EXPECT_TRUE(one.best_conf == eight.best_conf);
  EXPECT_EQ(one.trajectory, four.trajectory);
  EXPECT_EQ(one.trajectory, eight.trajectory);
}

core::TuningResult TuneOnce(bool with_cache, int threads) {
  common::ThreadPool::SetGlobalThreads(threads);
  sparksim::EvalCache cache;
  sparksim::ClusterSimulator sim(sparksim::ArmCluster(), 5);
  if (with_cache) sim.set_eval_cache(&cache);
  core::TuningSession session(&sim, workloads::HiBenchAggregation());
  core::LocatTuner::Options opts;
  opts.seed = 3;
  opts.n_qcsa = 12;
  opts.n_iicp = 10;
  opts.min_iterations = 4;
  opts.max_iterations = 6;
  core::LocatTuner tuner(opts);
  core::TuningResult result = tuner.Tune(&session, 100.0);
  common::ThreadPool::SetGlobalThreads(0);  // restore default
  return result;
}

// set_eval_cache is a no-op kept for perfbench's traced cell, which must
// keep matching the untraced digest: attaching the cache shim may not
// change a tune at any thread count.
TEST(TunerSimCacheTest, OutputBitIdenticalCacheOnOffAcrossThreads) {
  const core::TuningResult reference = TuneOnce(/*with_cache=*/false, 1);
  for (bool with_cache : {false, true}) {
    for (int threads : {1, 4}) {
      if (!with_cache && threads == 1) continue;  // the reference itself
      const core::TuningResult got = TuneOnce(with_cache, threads);
      EXPECT_EQ(got.best_observed_seconds, reference.best_observed_seconds);
      EXPECT_EQ(got.optimization_seconds, reference.optimization_seconds);
      EXPECT_EQ(got.evaluations, reference.evaluations);
      EXPECT_EQ(got.trajectory, reference.trajectory);
      EXPECT_TRUE(got.best_conf == reference.best_conf);
    }
  }
}

TEST(BoHotPathTest, LongHorizonTuneCompletes) {
  // A single-size history driven from the fit cap to >= 1000 rows. Every
  // refit past the cap is either a subset refit (once the history has
  // grown 10% since the last one) or rank-1 appends in between, and the
  // surrogate stays usable for EI-driven proposals throughout.
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 2;
  opts.burn_in = 4;
  core::Dagp dagp(opts);

  const size_t d = 4;
  const double ds = 100.0;
  auto objective = [](const Vector& c) {
    double s = 0.0;
    for (size_t j = 0; j < c.size(); ++j) {
      const double t = c[j] - 0.2 - 0.1 * static_cast<double>(j);
      s += t * t;
    }
    return 30.0 + 120.0 * s;
  };
  Rng rng(2026);
  auto add_random = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      Vector c(d);
      for (size_t j = 0; j < d; ++j) c[j] = rng.NextDouble();
      dagp.AddObservation(c, ds, objective(c));
    }
  };

  add_random(core::Dagp::kMaxFitRows);
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  ASSERT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kFull);

  size_t last_full_n = core::Dagp::kMaxFitRows;
  size_t subset_refits = 0;
  while (dagp.num_observations() < 1050) {
    // One EI-proposed point per round (the tuner's candidate sweep in
    // miniature), plus random exploration to advance the horizon fast.
    Matrix cands(16, d);
    for (size_t i = 0; i < cands.rows(); ++i)
      for (size_t j = 0; j < d; ++j) cands(i, j) = rng.NextDouble();
    const Vector ei = dagp.ExpectedImprovementBatch(cands, ds);
    size_t best = 0;
    for (size_t i = 1; i < cands.rows(); ++i)
      if (ei[i] > ei[best]) best = i;
    ASSERT_TRUE(std::isfinite(ei[best]));
    const Vector chosen = cands.Row(best);
    dagp.AddObservation(chosen, ds, objective(chosen));
    add_random(15);
    ASSERT_TRUE(dagp.Refit(&rng).ok());
    const size_t n = static_cast<size_t>(dagp.num_observations());
    if (10 * n >= 11 * last_full_n) {
      ASSERT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kSparse)
          << "n = " << n;
      last_full_n = n;
      ++subset_refits;
    } else {
      ASSERT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kAppend)
          << "n = " << n;
    }
  }
  // 240 -> 1056 rows in steps of 16: each subset refit lands within one
  // step past 10% growth, so 4.4x growth takes between
  // log(4.4) / log(1.1 + 16 / 240) ~ 9.6 and log(4.4) / log(1.1) ~ 15.5.
  EXPECT_GE(subset_refits, 10u);
  EXPECT_LE(subset_refits, 16u);
  EXPECT_GE(dagp.num_observations(), 1000);
  EXPECT_LT(dagp.model_observations(),
            static_cast<size_t>(dagp.num_observations()));
  // The long-horizon posterior still ranks a near-optimal configuration
  // well below the prior mean region.
  Vector good(d);
  for (size_t j = 0; j < d; ++j)
    good[j] = 0.2 + 0.1 * static_cast<double>(j);
  Vector bad(d, 0.95);
  Matrix pair(2, d);
  pair.SetRow(0, good);
  pair.SetRow(1, bad);
  const auto preds = dagp.PredictBatch(pair, {ds, ds});
  EXPECT_LT(preds[0].seconds, preds[1].seconds);
}

}  // namespace
}  // namespace locat
