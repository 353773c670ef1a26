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
#include "math/stats.h"
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
      Vector ref = col;
      math::ForwardSubstituteInPlace(chol->L(), ref.data().data());
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
  const Vector alpha = chol->Solve(cache.targets().mean);
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
    const double cached = cache.LogMarginalLikelihood(hp.Flatten().data());
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
  const double lml = cache.LogMarginalLikelihood(hp.Flatten().data());
  ASSERT_TRUE(std::isfinite(lml));
  auto fact = cache.TakeMemoized(hp.Flatten().data());
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
  cache.LogMarginalLikelihood(hp.Flatten().data());
  GpHyperparams other = hp;
  other.log_noise_variance += 1e-9;
  EXPECT_FALSE(cache.TakeMemoized(other.Flatten().data()).has_value());
  // The miss must not have consumed the memo.
  EXPECT_TRUE(cache.TakeMemoized(hp.Flatten().data()).has_value());
  // ...but a hit does: a second take misses.
  EXPECT_FALSE(cache.TakeMemoized(hp.Flatten().data()).has_value());
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
  const double cached = cache.LogMarginalLikelihood(hp.Flatten().data());
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
  const double lml = -0.5 * ys.Dot(alpha) -
                     0.5 * math::FactorLogDeterminant(chol->L()) -
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

/// Evaluates `cache` at `hp`, then checks the density, the memoized
/// factor (all n x n entries, so also its zero upper triangle) and alpha
/// against `RowMajorMatVecDensity`, bit for bit. Counts the path the
/// reference took into `paths`.
void ExpectStateMatchesRowMajorReference(GpKernelCache* cache,
                                         const Matrix& x,
                                         const GpHyperparams& hp,
                                         WalkPaths* paths) {
  const size_t n = x.rows();
  const auto ref = RowMajorMatVecDensity(x, cache->targets().mean, hp);
  const double lml = cache->LogMarginalLikelihood(hp.Flatten().data());
  auto got = cache->TakeMemoized(hp.Flatten().data());
  if (!ref.has_value()) {
    ++paths->failed;
    EXPECT_EQ(lml, -std::numeric_limits<double>::infinity());
    EXPECT_FALSE(got.has_value());
    return;
  }
  if (ref->chol.jitter() > 0.0) ++paths->jittered;
  EXPECT_PRED2(SameBits, lml, ref->log_marginal_likelihood);
  if (!got.has_value()) {
    ADD_FAILURE() << "no memoized factorization";
    return;
  }
  EXPECT_PRED2(SameBits, got->chol.jitter(), ref->chol.jitter());
  const Matrix& l = got->chol.L();
  const Matrix& rl = ref->chol.L();
  size_t factor_diffs = 0;
  size_t upper_nonzero = 0;
  size_t alpha_diffs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      factor_diffs += !SameBits(l(i, j), rl(i, j));
      upper_nonzero += j > i && !SameBits(l(i, j), 0.0);
    }
    alpha_diffs += !SameBits(got->alpha[i], ref->alpha[i]);
  }
  EXPECT_EQ(factor_diffs, 0u);
  EXPECT_EQ(upper_nonzero, 0u);
  EXPECT_EQ(alpha_diffs, 0u);
}

/// Walks one cache through `steps` proposals shaped like the slice
/// sampler's: one lengthscale, signal only, noise only, or every
/// coordinate at once, then repeats the state (no lane changes). Every
/// step must match `ExpectStateMatchesRowMajorReference`. `extreme` draws
/// some lengthscales whose weights underflow to 0 or overflow to inf.
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
    SCOPED_TRACE(::testing::Message() << "n=" << n << " d=" << d
                                      << " step=" << step);
    ExpectStateMatchesRowMajorReference(&cache, x, hp, &paths);
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

  // A jitter-fallback evaluation and a failing one, each followed by
  // ordinary single-coordinate moves on the same cache: the reused factor
  // buffer, weights and lanes carry nothing over from either.
  {
    GpKernelCache cache(x, y);
    GpHyperparams hp = MakeHyperparams(5);
    enum Path { kPlain, kJittered, kFailed };
    const auto expect_path = [&](Path want, const char* what) {
      SCOPED_TRACE(what);
      WalkPaths paths;
      ExpectStateMatchesRowMajorReference(&cache, x, hp, &paths);
      EXPECT_EQ(paths.jittered, want == kJittered ? 1 : 0);
      EXPECT_EQ(paths.failed, want == kFailed ? 1 : 0);
    };
    expect_path(kPlain, "start");
    hp.log_signal_variance = 20.0;
    hp.log_noise_variance = -40.0;
    expect_path(kJittered, "singular kernel");
    hp.log_noise_variance = -3.5;
    expect_path(kPlain, "noise after jitter");
    hp.log_signal_variance = 0.3;
    expect_path(kPlain, "signal after jitter");
    hp.log_lengthscales[2] = -0.4;
    expect_path(kPlain, "lengthscale after jitter");
    // Weight exp(800) = inf against the repeated rows' 0 squared
    // difference: NaN exponents, no factor even with jitter.
    hp.log_lengthscales[0] = -400.0;
    expect_path(kFailed, "NaN kernel");
    hp.log_lengthscales[0] = -0.9;
    expect_path(kPlain, "lengthscale after failure");
    hp.log_signal_variance = -0.2;
    expect_path(kPlain, "signal after failure");
    hp.log_noise_variance = -5.0;
    expect_path(kPlain, "noise after failure");
    hp.log_lengthscales[4] = 0.2;
    expect_path(kPlain, "other lane after failure");
  }

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

// The memo is the last call's factorization: a take after a success hits
// once, and a failure in between clears it.
TEST(GpKernelCacheTest, TakeMemoizedMissesAfterAFailedEvaluation) {
  Matrix x;
  Vector y;
  MakeDataset(12, 3, &x, &y);
  x.SetRow(11, x.Row(0));  // a repeated row: 0 squared differences
  GpKernelCache cache(x, y);
  const GpHyperparams hp = MakeHyperparams(3);
  GpHyperparams failing = hp;
  failing.log_lengthscales[1] = -400.0;  // inf * 0 = NaN exponents
  const Vector key = hp.Flatten();

  ASSERT_TRUE(std::isfinite(cache.LogMarginalLikelihood(key.data())));
  EXPECT_TRUE(cache.TakeMemoized(key.data()).has_value());
  EXPECT_FALSE(cache.TakeMemoized(key.data()).has_value());

  ASSERT_TRUE(std::isfinite(cache.LogMarginalLikelihood(key.data())));
  EXPECT_EQ(cache.LogMarginalLikelihood(failing.Flatten().data()),
            -std::numeric_limits<double>::infinity());
  EXPECT_FALSE(cache.TakeMemoized(key.data()).has_value());
  EXPECT_FALSE(cache.TakeMemoized(failing.Flatten().data()).has_value());

  // A success after the failure memoizes again.
  ASSERT_TRUE(std::isfinite(cache.LogMarginalLikelihood(key.data())));
  EXPECT_TRUE(cache.TakeMemoized(key.data()).has_value());
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

// ------------------------------------------------- screened acquisition

// A 6-member ensemble (a cold fit, then a continued one) on 28 rows.
ml::EiMcmc ScreenModel() {
  Matrix x0, x;
  Vector y0, y;
  MakeDataset(25, 6, &x0, &y0);
  MakeDataset(28, 6, &x, &y);
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 6;
  opts.burn_in = 4;
  ml::EiMcmc model(opts);
  Rng rng(35);
  EXPECT_TRUE(model.Fit(x0, y0, &rng).ok());
  EXPECT_TRUE(model.Fit(x, y, &rng).ok());
  EXPECT_EQ(model.ensemble().size(), 6u);
  return model;
}

Matrix RandomPool(size_t m, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix xs(m, d);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) xs(i, j) = rng.NextDouble();
  }
  return xs;
}

// PickCandidate written the long way: the newest member's EI ranks the
// rows (stable sort: NaN last, ties in row order), the best kScreenKeep
// are kept, and the pick is the first maximum of the full-ensemble
// AcquisitionValueBatch among them. Small pools and single members keep
// every row.
size_t ReferencePickRow(const ml::EiMcmc& model, const Matrix& xs) {
  const Vector full = model.AcquisitionValueBatch(xs);
  std::vector<size_t> rows(xs.rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  if (xs.rows() > ml::EiMcmc::kScreenKeep && model.ensemble().size() > 1) {
    const auto p = model.ensemble().back().PredictBatch(xs);
    std::vector<double> score(xs.rows());
    for (size_t c = 0; c < score.size(); ++c) {
      score[c] = math::ExpectedImprovement(p.mean[c], std::sqrt(p.variance[c]),
                                           model.best_observed());
    }
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      if (std::isnan(score[a])) return false;
      return std::isnan(score[b]) || score[a] > score[b];
    });
    rows.resize(ml::EiMcmc::kScreenKeep);
    std::sort(rows.begin(), rows.end());
  }
  size_t best = ml::EiMcmc::kNoRow;
  for (size_t r : rows) {
    if (std::isnan(full[r])) continue;
    if (best == ml::EiMcmc::kNoRow || full[r] > full[best]) best = r;
  }
  return best;
}

// The pick's value and moments have the bits of the full-pool batch calls
// at its row.
void ExpectPickMatchesBatch(const ml::EiMcmc& model, const Matrix& xs) {
  const ml::EiMcmc::Pick pick = model.PickCandidate(xs);
  ASSERT_EQ(pick.row, ReferencePickRow(model, xs));
  if (pick.row == ml::EiMcmc::kNoRow) return;
  EXPECT_EQ(std::bit_cast<uint64_t>(pick.value),
            std::bit_cast<uint64_t>(model.AcquisitionValueBatch(xs)[pick.row]));
  const auto avg = model.PredictAveragedBatch(xs);
  EXPECT_EQ(std::bit_cast<uint64_t>(pick.mean),
            std::bit_cast<uint64_t>(avg.mean[pick.row]));
  EXPECT_EQ(std::bit_cast<uint64_t>(pick.variance),
            std::bit_cast<uint64_t>(avg.variance[pick.row]));
}

TEST(ScreenedAcquisitionTest, SmallPoolsAndSingleMembersScoreEveryRow) {
  const ml::EiMcmc model = ScreenModel();
  // At kScreenKeep rows nothing is screened: the pick is the first
  // maximum of the full-pool batch.
  ExpectPickMatchesBatch(model, RandomPool(ml::EiMcmc::kScreenKeep, 6, 40));

  // A one-member ensemble scores a large pool whole.
  Matrix x;
  Vector y;
  MakeDataset(28, 6, &x, &y);
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 1;
  ml::EiMcmc single(opts);
  Rng rng(36);
  ASSERT_TRUE(single.Fit(x, y, &rng).ok());
  ASSERT_EQ(single.ensemble().size(), 1u);
  ExpectPickMatchesBatch(single, RandomPool(300, 6, 41));
}

TEST(ScreenedAcquisitionTest, ScreenedPickHasTheFullEnsembleBits) {
  const ml::EiMcmc model = ScreenModel();
  for (size_t m : {65u, 200u, 900u}) {
    SCOPED_TRACE(m);
    ExpectPickMatchesBatch(model, RandomPool(m, 6, 42 + m));
  }
  // Duplicated rows tie in the screen; the earlier copy ranks first.
  Matrix dup = RandomPool(240, 6, 43);
  for (size_t i = 120; i < 240; ++i) {
    for (size_t j = 0; j < 6; ++j) dup(i, j) = dup(i - 120, j);
  }
  ExpectPickMatchesBatch(model, dup);
}

TEST(ScreenedAcquisitionTest, NanScoresRankBelowEveryNumber) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Rows = std::vector<size_t>;
  // NaN is never kept while numbers remain, ties go to the lower row, and
  // the kept rows come back in row order.
  EXPECT_EQ(ml::EiMcmc::TopRows(std::vector<double>{nan, 1.0, nan, 3.0}, 1),
            Rows{3});
  EXPECT_EQ(ml::EiMcmc::TopRows(std::vector<double>{nan, -inf, nan}, 1),
            Rows{1});
  EXPECT_EQ(ml::EiMcmc::TopRows(std::vector<double>{2.0, nan, 2.0, 2.0}, 2),
            (Rows{0, 2}));
  EXPECT_EQ(ml::EiMcmc::TopRows(std::vector<double>{0.0, -0.0, 0.0}, 1),
            Rows{0});
  EXPECT_EQ(ml::EiMcmc::TopRows(std::vector<double>{nan, 5.0, nan}, 2),
            (Rows{0, 1}));
  EXPECT_EQ(ml::EiMcmc::TopRows(std::vector<double>{nan, nan}, 1), Rows{0});
  EXPECT_EQ(ml::EiMcmc::TopRows(std::vector<double>{1.0, nan}, 5),
            (Rows{0, 1}));
  EXPECT_TRUE(ml::EiMcmc::TopRows(std::vector<double>{}, 1).empty());

  // Against a stable sort over pools dense with NaNs, infinities and
  // ties: the order stays total, so the kept set is exactly the sort's.
  Rng rng(50);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t m = 1 + static_cast<size_t>(rng.UniformInt(0, 300));
    std::vector<double> scores(m);
    for (double& v : scores) {
      const int64_t kind = rng.UniformInt(0, 5);
      v = kind == 0   ? nan
          : kind == 1 ? static_cast<double>(rng.UniformInt(0, 3))
          : kind == 2 ? (rng.Bernoulli(0.5) ? inf : -inf)
                      : rng.Gaussian(0.0, 1.0);
    }
    Rows want(m);
    for (size_t i = 0; i < m; ++i) want[i] = i;
    std::stable_sort(want.begin(), want.end(), [&](size_t a, size_t b) {
      if (std::isnan(scores[a])) return false;
      return std::isnan(scores[b]) || scores[a] > scores[b];
    });
    const size_t keep = static_cast<size_t>(rng.UniformInt(0, 80));
    want.resize(std::min(keep, m));
    std::sort(want.begin(), want.end());
    ASSERT_EQ(ml::EiMcmc::TopRows(scores, keep), want) << "trial " << trial;
  }
}

TEST(ScreenedAcquisitionTest, NonFiniteCandidatesKeepThePickConsistent) {
  const ml::EiMcmc model = ScreenModel();
  // NaN and inf coordinates reach the kernels (the exp saturates a NaN
  // exponent); the pick still matches the reference and the batch bits.
  Matrix pool = RandomPool(300, 6, 45);
  for (size_t i = 0; i < pool.rows(); i += 3) {
    pool(i, 2) = std::numeric_limits<double>::quiet_NaN();
  }
  for (size_t i = 1; i < pool.rows(); i += 7) {
    pool(i, 4) = std::numeric_limits<double>::infinity();
  }
  ExpectPickMatchesBatch(model, pool);
  const ml::EiMcmc::Pick pick = model.PickCandidate(pool);
  ASSERT_NE(pick.row, ml::EiMcmc::kNoRow);
  EXPECT_FALSE(std::isnan(pick.value));
  EXPECT_EQ(model.PickCandidate(Matrix(0, 6)).row, ml::EiMcmc::kNoRow);
}

TEST(ScreenedAcquisitionTest, PickInvariantToThreadsAndSimdBackend) {
  const Matrix pool = RandomPool(900, 6, 48);
  auto run = [&](int threads, math::kern::Backend backend) {
    common::ThreadPool::SetGlobalThreads(threads);
    math::kern::SetBackend(backend);
    return ScreenModel().PickCandidate(pool);
  };
  const math::kern::Backend entry = math::kern::ActiveBackend();
  const ml::EiMcmc::Pick one = run(1, math::kern::BestBackend());
  const ml::EiMcmc::Pick four = run(4, math::kern::BestBackend());
  const ml::EiMcmc::Pick scalar = run(4, math::kern::Backend::kScalar);
  math::kern::SetBackend(entry);
  common::ThreadPool::SetGlobalThreads(0);  // restore default
  for (const ml::EiMcmc::Pick* other : {&four, &scalar}) {
    EXPECT_EQ(one.row, other->row);
    EXPECT_EQ(std::bit_cast<uint64_t>(one.value),
              std::bit_cast<uint64_t>(other->value));
    EXPECT_EQ(std::bit_cast<uint64_t>(one.mean),
              std::bit_cast<uint64_t>(other->mean));
    EXPECT_EQ(std::bit_cast<uint64_t>(one.variance),
              std::bit_cast<uint64_t>(other->variance));
  }
}

// ---------------------------------------------- numerical edge cases

TEST(EiMcmcEdgeCaseTest, NonFiniteSamplesAreRejected) {
  Matrix x;
  Vector y;
  MakeDataset(6, 3, &x, &y);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    ml::EiMcmc model;
    Rng rng(37);
    Vector y_bad = y;
    y_bad[3] = bad;
    EXPECT_EQ(model.Fit(x, y_bad, &rng).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(model.fitted());
    Matrix x_bad = x;
    x_bad(2, 1) = bad;
    EXPECT_EQ(model.Fit(x_bad, y, &rng).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(model.fitted());
  }
  // A rejected refit or append leaves a fitted model as it was.
  ml::EiMcmc model;
  Rng rng(38);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  const size_t members = model.ensemble().size();
  Vector y_bad = y;
  y_bad[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(model.Fit(x, y_bad, &rng).ok());
  EXPECT_EQ(model.ensemble().size(), members);
  EXPECT_EQ(model.AppendObservation(x.Row(0), y_bad[0]).code(),
            StatusCode::kInvalidArgument);
  Vector x_bad = x.Row(1);
  x_bad[0] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(model.AppendObservation(x_bad, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.ensemble().size(), members);
  EXPECT_EQ(model.ensemble().front().num_points(), x.rows());
}

TEST(EiMcmcEdgeCaseTest, ConstantObjectivesGiveFiniteAcquisition) {
  Matrix x;
  Vector y;
  MakeDataset(12, 3, &x, &y);
  for (size_t i = 0; i < y.size(); ++i) y[i] = 4.2;
  ml::EiMcmc model;
  Rng rng(39);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  const Matrix pool = RandomPool(200, 3, 49);
  const Vector eis = model.AcquisitionValueBatch(pool);
  for (size_t i = 0; i < eis.size(); ++i) {
    EXPECT_TRUE(std::isfinite(eis[i])) << i;
    EXPECT_GE(eis[i], 0.0) << i;
  }
  const ml::EiMcmc::Pick pick = model.PickCandidate(pool);
  ASSERT_NE(pick.row, ml::EiMcmc::kNoRow);
  EXPECT_TRUE(std::isfinite(pick.value));
  EXPECT_TRUE(std::isfinite(pick.mean));
  EXPECT_TRUE(std::isfinite(pick.variance));
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

// ------------------------------------------------ repeated runs, one row

/// A history of `rows` distinct inputs (d dims) whose row g was run m_g
/// times, m_g drawn from `counts`, with the runs of all rows shuffled
/// together; `expanded` repeats each run's input, one row per run.
struct RepeatedHistory {
  Matrix x;         // G x d distinct inputs
  Vector y;         // n runs
  std::vector<size_t> row_of;
  Matrix expanded;  // n x d
};

RepeatedHistory MakeRepeatedHistory(size_t rows, size_t d,
                                    const std::vector<size_t>& counts,
                                    uint64_t seed) {
  Rng rng(seed);
  RepeatedHistory h;
  h.x = RandomCandidates(rows, d, &rng);
  for (size_t g = 0; g < rows; ++g) {
    const size_t m = counts[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(counts.size()) - 1))];
    h.row_of.insert(h.row_of.end(), m, g);
  }
  for (size_t i = h.row_of.size(); i > 1; --i) {
    std::swap(h.row_of[i - 1], h.row_of[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
  }
  const size_t n = h.row_of.size();
  h.y = Vector(n);
  h.expanded = Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t g = h.row_of[i];
    h.expanded.SetRow(i, h.x.Row(g));
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
      s += std::sin(3.0 * h.x(g, j) + static_cast<double>(j));
    }
    h.y[i] = s + 0.1 * rng.NextGaussian();
  }
  return h;
}

void ExpectRelNear(double a, double b, double rel, const std::string& what) {
  EXPECT_LE(std::abs(a - b), rel * std::abs(b)) << what << ": " << a
                                                 << " vs " << b;
}

TEST(RepeatedRunsTest, GroupedFitMatchesExpandedFit) {
  const size_t d = 4;
  uint64_t seed = 600;
  for (const std::vector<size_t>& counts :
       std::vector<std::vector<size_t>>{{1}, {2}, {10}, {1, 2, 10}}) {
    const RepeatedHistory h = MakeRepeatedHistory(9, d, counts, seed++);
    SCOPED_TRACE("max m " + std::to_string(counts.back()) + ", n " +
                 std::to_string(h.y.size()));
    for (double log_noise : {-4.0, -1.5}) {
      GpHyperparams hp = MakeHyperparams(d);
      hp.log_noise_variance = log_noise;
      GpKernelCache cache(h.x, h.y, h.row_of);
      const double expanded_lml =
          testutil::ReferenceLogMarginalLikelihood(h.expanded, h.y, hp);
      ExpectRelNear(cache.LogMarginalLikelihood(hp.Flatten().data()),
                    expanded_lml, 1e-10, "cache LML");

      GaussianProcess grouped;
      ASSERT_TRUE(grouped.Fit(h.x, h.y, hp, h.row_of).ok());
      GaussianProcess full;
      ASSERT_TRUE(full.Fit(h.expanded, h.y, hp).ok());
      ASSERT_EQ(grouped.num_points(), h.x.rows());
      ASSERT_EQ(grouped.num_runs(), h.y.size());
      ExpectRelNear(grouped.LogMarginalLikelihood(),
                    full.LogMarginalLikelihood(), 1e-10, "fit LML");

      // Queries away from and on the training inputs.
      Rng rng(seed);
      Matrix qs = RandomCandidates(30, d, &rng);
      qs.ResizeRows(30 + h.x.rows());
      for (size_t g = 0; g < h.x.rows(); ++g) qs.SetRow(30 + g, h.x.Row(g));
      const auto a = grouped.PredictBatch(qs);
      const auto b = full.PredictBatch(qs);
      for (size_t t = 0; t < qs.rows(); ++t) {
        ExpectRelNear(a.mean[t], b.mean[t], 1e-10,
                      "mean " + std::to_string(t));
        ExpectRelNear(a.variance[t], b.variance[t], 1e-10,
                      "variance " + std::to_string(t));
      }
    }
  }
}

TEST(RepeatedRunsTest, NoRepeatsKeepTheParentBits) {
  // One run per row, spelled as an explicit row map: the likelihood, the
  // weights and the predictions have the bits of the one-row-per-run
  // formula (the parent's), because m = 1 divides by one and the
  // within-row correction is not added.
  for (size_t n : {2u, 17u, 48u}) {
    const size_t d = 5;
    Matrix x;
    Vector y;
    MakeDataset(n, d, &x, &y);
    std::vector<size_t> identity(n);
    for (size_t i = 0; i < n; ++i) identity[i] = i;
    const GpHyperparams hp = MakeHyperparams(d);
    GpKernelCache cache(x, y, identity);
    const double lml = cache.LogMarginalLikelihood(hp.Flatten().data());
    std::optional<GpKernelCache::Factorization> fact =
        cache.TakeMemoized(hp.Flatten().data());
    ASSERT_TRUE(fact.has_value());

    const double mean = math::Mean(y.data());
    const double sd = math::StdDev(y.data());
    Vector ys(n);
    for (size_t i = 0; i < n; ++i) ys[i] = (y[i] - mean) / sd;
    const auto ref = RowMajorMatVecDensity(x, ys, hp);
    ASSERT_TRUE(ref.has_value());
    EXPECT_TRUE(SameBits(lml, ref->log_marginal_likelihood)) << "n " << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(fact->alpha[i], ref->alpha[i])) << "alpha " << i;
    }

    GaussianProcess grouped;
    ASSERT_TRUE(grouped.AdoptFit(cache, hp, std::move(*fact)).ok());
    GaussianProcess parent;
    ASSERT_TRUE(parent.AdoptFit(cache, hp, std::move(*ref)).ok());
    GaussianProcess direct;
    ASSERT_TRUE(direct.Fit(x, y, hp, identity).ok());
    GaussianProcess plain;
    ASSERT_TRUE(plain.Fit(x, y, hp).ok());
    EXPECT_TRUE(SameBits(direct.LogMarginalLikelihood(),
                         plain.LogMarginalLikelihood()));
    Rng rng(n);
    const Matrix qs = RandomCandidates(70, d, &rng);
    const auto a = grouped.PredictBatch(qs);
    const auto b = parent.PredictBatch(qs);
    const auto c = direct.PredictBatch(qs);
    const auto e = plain.PredictBatch(qs);
    for (size_t t = 0; t < qs.rows(); ++t) {
      EXPECT_TRUE(SameBits(a.mean[t], b.mean[t])) << t;
      EXPECT_TRUE(SameBits(a.variance[t], b.variance[t])) << t;
      EXPECT_TRUE(SameBits(c.mean[t], e.mean[t])) << t;
      EXPECT_TRUE(SameBits(c.variance[t], e.variance[t])) << t;
    }
  }
}

TEST(RepeatedRunsTest, AppendedRowOntoGroupedFitMatchesRefit) {
  // A new input appended onto a fit whose rows hold repeated runs keeps
  // the other rows' counts: it matches a refit of the extended runs at
  // the same hyperparameters.
  const size_t d = 3;
  const RepeatedHistory h = MakeRepeatedHistory(7, d, {1, 2, 10}, 640);
  const GpHyperparams hp = MakeHyperparams(d);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(h.x, h.y, hp, h.row_of).ok());
  Rng rng(641);
  const Vector x_new = RandomCandidates(1, d, &rng).Row(0);
  ASSERT_TRUE(gp.AppendFit(x_new, 0.4).ok());
  const size_t g = h.x.rows();
  Matrix x_ext(g + 1, d);
  for (size_t r = 0; r < g; ++r) x_ext.SetRow(r, h.x.Row(r));
  x_ext.SetRow(g, x_new);
  Vector y_ext = h.y;
  y_ext.data().push_back(0.4);
  std::vector<size_t> row_of_ext = h.row_of;
  row_of_ext.push_back(g);
  ASSERT_EQ(gp.num_points(), g + 1);
  ASSERT_EQ(gp.num_runs(), y_ext.size());

  GaussianProcess refit;
  ASSERT_TRUE(refit.Fit(x_ext, y_ext, hp, row_of_ext).ok());
  ExpectRelNear(gp.LogMarginalLikelihood(), refit.LogMarginalLikelihood(),
                1e-10, "LML");
  const Matrix qs = RandomCandidates(20, d, &rng);
  const auto a = gp.PredictBatch(qs);
  const auto b = refit.PredictBatch(qs);
  for (size_t t = 0; t < qs.rows(); ++t) {
    EXPECT_NEAR(a.mean[t], b.mean[t],
                1e-10 * std::max(1.0, std::abs(b.mean[t])));
    EXPECT_NEAR(a.variance[t], b.variance[t],
                1e-10 * std::max(1.0, std::abs(b.variance[t])));
  }

  // Through the ensemble: every member appends at its own frozen
  // hyperparameters.
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 4;
  opts.burn_in = 4;
  ml::EiMcmc model(opts);
  Rng fit_rng(642);
  ASSERT_TRUE(model.Fit(h.x, h.y, &fit_rng, h.row_of).ok());
  ASSERT_TRUE(model.AppendObservation(x_new, 0.4).ok());
  for (const GaussianProcess& member : model.ensemble()) {
    ASSERT_EQ(member.num_points(), g + 1);
    ASSERT_EQ(member.num_runs(), y_ext.size());
    GaussianProcess manual;
    ASSERT_TRUE(manual.Fit(h.x, h.y, member.hyperparams(), h.row_of).ok());
    ASSERT_TRUE(manual.AppendFit(x_new, 0.4).ok());
    const auto m = manual.PredictBatch(qs);
    const auto p = member.PredictBatch(qs);
    for (size_t t = 0; t < qs.rows(); ++t) {
      EXPECT_NEAR(p.mean[t], m.mean[t],
                  1e-10 * std::max(1.0, std::abs(m.mean[t])));
      EXPECT_NEAR(p.variance[t], m.variance[t],
                  1e-10 * std::max(1.0, std::abs(m.variance[t])));
    }
  }
}

TEST(RepeatedRunsTest, OneRowForEveryRunIsFinite) {
  // G = 1: every run is the same configuration. Noisy and identical runs
  // both give a finite likelihood and a usable model.
  const size_t d = 3;
  Matrix x(1, d, 0.4);
  for (bool identical : {false, true}) {
    Rng rng(650);
    Vector y(10);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = identical ? 3.0 : 3.0 + 0.1 * rng.NextGaussian();
    }
    const std::vector<size_t> row_of(y.size(), 0);
    GpKernelCache cache(x, y, row_of);
    EXPECT_TRUE(std::isfinite(
        cache.LogMarginalLikelihood(MakeHyperparams(d).Flatten().data())))
        << identical;
    ml::EiMcmc model;
    ASSERT_TRUE(model.Fit(x, y, &rng, row_of).ok()) << identical;
    for (const GaussianProcess& member : model.ensemble()) {
      EXPECT_TRUE(std::isfinite(member.LogMarginalLikelihood()));
    }
    const ml::EiMcmc::Pick pick = model.PickCandidate(RandomPool(20, d, 651));
    ASSERT_NE(pick.row, ml::EiMcmc::kNoRow);
    EXPECT_TRUE(std::isfinite(pick.mean));
    EXPECT_TRUE(std::isfinite(pick.variance));
  }
  // A row map that leaves a row without runs, or names a missing row, is
  // rejected.
  ml::EiMcmc model;
  Rng rng(652);
  Matrix two(2, d, 0.5);
  EXPECT_EQ(model.Fit(two, Vector{1.0, 2.0}, &rng, std::vector<size_t>{0, 0})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.Fit(x, Vector{1.0, 2.0}, &rng, std::vector<size_t>{0, 1})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.Fit(x, Vector{1.0}, &rng, std::vector<size_t>{0}).code(),
            StatusCode::kInvalidArgument);
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
    dagp->AddObservation(conf, 100.0, seconds, conf.data());
    best = std::min(best, seconds);
  }
  return best;
}

TEST(RepeatedRunsTest, DagpRefitsFullyOnARepeatOfAFittedRow) {
  // A new configuration between full refits is a rank-1 append; a run
  // that repeats a fitted row moves that row's count and mean, so it
  // takes a full refit, which holds it in its row. A different key stays
  // its own row even when its encoded conf collides with one.
  ml::EiMcmc::Options opts;
  opts.num_hyper_samples = 4;
  opts.burn_in = 4;
  core::Dagp dagp(opts);
  FeedObservations(&dagp, 30, 3, 660);
  Rng rng(661);
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  ASSERT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kFull);
  const Vector conf{0.1, 0.2, 0.3};
  dagp.AddObservation(conf, 100.0, 70.0, conf.data());
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  EXPECT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kAppend);
  dagp.AddObservation(conf, 100.0, 72.0, conf.data());
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  EXPECT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kFull);
  EXPECT_EQ(dagp.num_rows(), 31u);
  EXPECT_EQ(dagp.model().ensemble().front().num_points(), 31u);
  EXPECT_EQ(dagp.model_observations(), 32u);

  const Vector other_key{0.1, 0.2, 0.4};
  dagp.AddObservation(conf, 100.0, 75.0, other_key.data());
  EXPECT_EQ(dagp.num_rows(), 32u);
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
  const ml::EiMcmc::Pick pick = dagp.PickCandidate(probe, 100.0);
  EXPECT_EQ(pick.row, 0u);
  EXPECT_TRUE(std::isfinite(pick.value));
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
      dagp.AddObservation(c, ds, objective(c), c.data());
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
    const ml::EiMcmc::Pick pick = dagp.PickCandidate(cands, ds);
    ASSERT_NE(pick.row, ml::EiMcmc::kNoRow);
    ASSERT_TRUE(std::isfinite(pick.value));
    const Vector chosen = cands.Row(pick.row);
    dagp.AddObservation(chosen, ds, objective(chosen), chosen.data());
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
