// Tests of the BO hot-path performance layer: batched GP predictions,
// the kernel-computation cache, and end-to-end thread-count invariance
// of the tuner. The contract under test is "fast, but bit-for-bit the
// same answer" — every optimization here must be invisible in results.
#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dagp.h"
#include "core/locat_tuner.h"
#include "core/tuning.h"
#include "math/cholesky.h"
#include "math/matrix.h"
#include "ml/ei_mcmc.h"
#include "ml/gp.h"
#include "ml/sparse_gp.h"
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

  const size_t m = 7;
  Matrix b(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < m; ++c) b(i, c) = rng.NextGaussian();
  }
  const Matrix y = chol->SolveLowerMatrix(b);
  ASSERT_EQ(y.rows(), n);
  ASSERT_EQ(y.cols(), m);
  for (size_t c = 0; c < m; ++c) {
    Vector col(n);
    for (size_t i = 0; i < n; ++i) col[i] = b(i, c);
    const Vector ref = chol->SolveLower(col);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y(i, c), ref[i], 1e-12) << "col " << c << " row " << i;
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
    const auto p = gp.Predict(xs.Row(i));
    EXPECT_NEAR(batch.mean[i], p.mean, 1e-12) << "candidate " << i;
    EXPECT_NEAR(batch.variance[i], p.variance, 1e-12) << "candidate " << i;
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

TEST(PredictTest, ReferenceImplementationAgrees) {
  Matrix x;
  Vector y;
  MakeDataset(50, 7, &x, &y);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, MakeHyperparams(7)).ok());
  Rng rng(7);
  for (int t = 0; t < 50; ++t) {
    Vector q(7);
    for (size_t j = 0; j < 7; ++j) q[j] = rng.NextDouble();
    const auto fast = gp.Predict(q);
    const auto ref = gp.PredictReference(q);
    EXPECT_NEAR(fast.mean, ref.mean, 1e-10);
    EXPECT_NEAR(fast.variance, ref.variance, 1e-10);
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
        GaussianProcess::ComputeLogMarginalLikelihood(x, y, hp);
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
  for (int t = 0; t < 20; ++t) {
    Vector q(5);
    for (size_t j = 0; j < 5; ++j) q[j] = rng.NextDouble();
    const auto a = direct.Predict(q);
    const auto b = via_cache.Predict(q);
    EXPECT_NEAR(a.mean, b.mean, 1e-10);
    EXPECT_NEAR(a.variance, b.variance, 1e-10);
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
  for (int t = 0; t < 20; ++t) {
    Vector q(5);
    for (size_t j = 0; j < 5; ++j) q[j] = rng.NextDouble();
    const auto a = adopted.Predict(q);
    const auto b = fresh.Predict(q);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.variance, b.variance);
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
  const double ref = GaussianProcess::ComputeLogMarginalLikelihood(x, y, hp);
  EXPECT_TRUE(std::isfinite(cached));
  EXPECT_TRUE(std::isfinite(ref));
  EXPECT_NEAR(cached, ref, 1e-6 * std::max(1.0, std::abs(ref)));
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
    EXPECT_NEAR(eis[i], model.AcquisitionValue(q),
                1e-12 * std::max(1.0, std::abs(eis[i])));
    // Per-point reference: the members' moments averaged by the law of
    // total variance.
    double mean = 0.0;
    double second_moment = 0.0;
    for (const auto& gp : model.ensemble()) {
      const auto p = gp.Predict(q);
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
  for (int t = 0; t < 40; ++t) {
    Vector q(d);
    for (size_t j = 0; j < d; ++j) q[j] = rng.NextDouble();
    const auto a = incremental.Predict(q);
    const auto b = full.Predict(q);
    EXPECT_NEAR(a.mean, b.mean, 1e-8 * std::max(1.0, std::abs(b.mean)));
    EXPECT_NEAR(a.variance, b.variance,
                1e-8 * std::max(1.0, std::abs(b.variance)));
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
  Vector q(d);
  q[0] = 0.5;
  q[1] = 0.5;
  const auto pred = gp.Predict(q);
  double y_bar = 0.0;
  for (size_t i = 0; i < n; ++i) y_bar += y[i] / static_cast<double>(n);
  EXPECT_TRUE(std::isfinite(pred.mean));
  EXPECT_NEAR(pred.mean, y_bar, 0.2);
  EXPECT_GE(pred.variance, 0.0);
  EXPECT_TRUE(std::isfinite(pred.variance));
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
    for (int t = 0; t < 10; ++t) {
      Vector q(5);
      for (size_t j = 0; j < 5; ++j) q[j] = rng.NextDouble();
      const auto a = one.ensemble()[k].Predict(q);
      const auto b = eight.ensemble()[k].Predict(q);
      EXPECT_EQ(a.mean, b.mean) << "member " << k;
      EXPECT_EQ(a.variance, b.variance) << "member " << k;
      const auto m = manual.Predict(q);
      EXPECT_NEAR(a.mean, m.mean, 1e-10 * std::max(1.0, std::abs(m.mean)));
      EXPECT_NEAR(a.variance, m.variance,
                  1e-10 * std::max(1.0, std::abs(m.variance)));
    }
  }
}

// Synthetic single-data-size DAGP observation stream.
void FeedObservations(core::Dagp* dagp, size_t count, size_t dim,
                      uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    Vector conf(dim);
    double s = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      conf[j] = rng.NextDouble();
      s += std::sin(2.5 * conf[j] + static_cast<double>(j));
    }
    const double seconds = 60.0 + 25.0 * s * s + 2.0 * rng.NextDouble();
    dagp->AddObservation(conf, 100.0, seconds);
  }
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
  core::Dagp::Options opts;
  opts.ei.num_hyper_samples = 3;
  opts.ei.burn_in = 4;
  core::Dagp dagp(opts);
  const size_t cap = core::Dagp::kMaxFitRows;
  const size_t subset = cap - cap / 6;
  ASSERT_EQ(subset, 200u);
  FeedObservations(&dagp, cap + 1, 3, 7);
  Rng rng(62);
  ASSERT_TRUE(dagp.Refit(&rng).ok());
  EXPECT_EQ(dagp.last_refit_kind(), core::Dagp::RefitKind::kSparse);
  EXPECT_EQ(dagp.model_observations(), subset);
  // The incumbent seeds the subset, so the model's best observed target
  // is the GLOBAL best, not merely the subset's.
  EXPECT_EQ(std::exp(dagp.model().best_observed()), dagp.best_seconds());
  // The subset surrogate stays usable for acquisition + prediction.
  Vector probe(3, 0.5);
  EXPECT_TRUE(std::isfinite(dagp.ExpectedImprovementBatch({probe}, 100.0)[0]));
  EXPECT_GT(dagp.PredictBatch({probe}, {100.0})[0].seconds, 0.0);

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
}

TEST(BoHotPathTest, LongHorizonTuneCompletes) {
  // A single-size history driven from the fit cap to >= 1000 rows. Every
  // refit past the cap is either a subset refit (once the history has
  // grown 10% since the last one) or rank-1 appends in between, and the
  // surrogate stays usable for EI-driven proposals throughout.
  core::Dagp::Options opts;
  opts.ei.num_hyper_samples = 2;
  opts.ei.burn_in = 4;
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
    std::vector<Vector> cands(16, Vector(d));
    for (auto& c : cands)
      for (size_t j = 0; j < d; ++j) c[j] = rng.NextDouble();
    const Vector ei = dagp.ExpectedImprovementBatch(cands, ds);
    size_t best = 0;
    for (size_t i = 1; i < cands.size(); ++i)
      if (ei[i] > ei[best]) best = i;
    ASSERT_TRUE(std::isfinite(ei[best]));
    dagp.AddObservation(cands[best], ds, objective(cands[best]));
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
  const auto preds = dagp.PredictBatch({good, bad}, {ds, ds});
  EXPECT_LT(preds[0].seconds, preds[1].seconds);
}

}  // namespace
}  // namespace locat
