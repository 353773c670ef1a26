#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "acquisition_reference.h"
#include "gp_reference.h"
#include "common/rng.h"
#include "math/eigen.h"
#include "math/stats.h"
#include "ml/ei_mcmc.h"
#include "ml/gbrt.h"
#include "ml/gp.h"
#include "ml/kernels.h"
#include "ml/kpca.h"
#include "ml/lhs.h"
#include "ml/simple_regressors.h"
#include "ml/slice_sampler.h"
#include "ml/spearman.h"

namespace locat::ml {
namespace {

using math::Matrix;
using math::Vector;

// ------------------------------------------------------------------ LHS

class LhsTest : public ::testing::TestWithParam<int> {};

TEST_P(LhsTest, OneSamplePerStratumInEveryDimension) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int n = 10;
  const int dim = 4;
  Matrix samples = LatinHypercube(n, dim, &rng);
  ASSERT_EQ(samples.rows(), static_cast<size_t>(n));
  for (int d = 0; d < dim; ++d) {
    std::set<int> strata;
    for (int i = 0; i < n; ++i) {
      const double v = samples(static_cast<size_t>(i), static_cast<size_t>(d));
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
      strata.insert(static_cast<int>(v * n));
    }
    EXPECT_EQ(strata.size(), static_cast<size_t>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LhsTest, ::testing::Range(0, 6));

// ------------------------------------------------------------- Spearman

TEST(SpearmanTest, PerfectMonotoneIsOne) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0, 1e-12);
  // Invariance under monotone transformation.
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3, 4}, {1, 8, 27, 64}), 1.0, 1e-12);
}

TEST(SpearmanTest, PerfectAntitoneIsMinusOne) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3}, {9, 4, 1}), -1.0, 1e-12);
}

TEST(SpearmanTest, ConstantSeriesIsZero) {
  EXPECT_DOUBLE_EQ(SpearmanCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(SpearmanTest, HandlesTies) {
  const double rho = SpearmanCorrelation({1, 2, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(rho, 0.8);
  EXPECT_LE(rho, 1.0);
}

TEST(SpearmanTest, IndependentSeriesNearZero) {
  Rng rng(1);
  std::vector<double> xs(500), ys(500);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.NextDouble();
    ys[i] = rng.NextDouble();
  }
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 0.0, 0.1);
}

TEST(PearsonTest, LinearRelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

// -------------------------------------------------------------- Kernels

class KernelSymmetryTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelSymmetryTest, SymmetricAndBounded) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 7);
  Vector a(5), b(5);
  for (size_t i = 0; i < 5; ++i) {
    a[i] = rng.NextDouble();
    b[i] = rng.NextDouble();
  }
  GaussianKernel g(0.7);
  PerceptronKernel p;
  ArdSquaredExponentialKernel se(Vector(5, 0.5), 1.3);

  for (const Kernel* k :
       std::vector<const Kernel*>{&g, &p, &se}) {
    EXPECT_NEAR(k->Evaluate(a, b), k->Evaluate(b, a), 1e-12) << k->name();
  }
  EXPECT_LE(g.Evaluate(a, b), 1.0);
  EXPECT_NEAR(g.Evaluate(a, a), 1.0, 1e-12);
  EXPECT_NEAR(se.Evaluate(a, a), 1.3, 1e-12);
  EXPECT_NEAR(p.Evaluate(a, a), 1.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelSymmetryTest, ::testing::Range(0, 5));

TEST(KernelTest, GramMatrixIsSymmetric) {
  Rng rng(9);
  Matrix x(6, 3);
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.NextDouble();
  GaussianKernel k(0.5);
  Matrix gram = k.GramMatrix(x);
  EXPECT_LT(gram.MaxAbsDiff(gram.Transpose()), 1e-14);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(gram(i, i), 1.0, 1e-12);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The cross-kernel block gives every entry the bits of the scalar
// EvaluateData(point, row): the Gaussian override through unit-weight
// column distances, the others through the gathering default.
TEST(KernelTest, EvaluateBlockMatchesEvaluateDataBitwise) {
  Rng rng(71);
  const size_t m = 13, nrows = 7, dim = 5, stride = 6;
  std::vector<double> cols(dim * m);
  for (double& v : cols) v = rng.NextDouble();
  std::vector<double> rows(nrows * stride);
  for (double& v : rows) v = rng.NextDouble();
  GaussianKernel g(0.7);
  PolynomialKernel p(3, 0.5);
  PerceptronKernel pc;
  for (const Kernel* k : std::vector<const Kernel*>{&g, &p, &pc}) {
    std::vector<double> out(nrows * m);
    k->EvaluateBlock(cols.data(), m, dim, rows.data(), nrows, stride,
                     out.data());
    for (size_t c = 0; c < m; ++c) {
      std::vector<double> point(dim);
      for (size_t j = 0; j < dim; ++j) point[j] = cols[j * m + c];
      for (size_t r = 0; r < nrows; ++r) {
        const double ref =
            k->EvaluateData(point.data(), rows.data() + r * stride, dim);
        EXPECT_PRED2(SameBits, out[r * m + c], ref)
            << k->name() << " point " << c << " row " << r;
      }
    }
  }
}

TEST(KernelTest, PolynomialMatchesDefinition) {
  PolynomialKernel k(2, 1.0);
  Vector a{1.0, 2.0};
  Vector b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(k.Evaluate(a, b), (11.0 + 1.0) * (11.0 + 1.0));
}

// ------------------------------------------------------------------- GP

TEST(GpTest, InterpolatesNoiselessData) {
  Matrix x(5, 1);
  Vector y(5);
  for (int i = 0; i < 5; ++i) {
    x(static_cast<size_t>(i), 0) = i * 0.2;
    y[static_cast<size_t>(i)] = std::sin(i * 0.2 * 3.0);
  }
  GpHyperparams hp = GpHyperparams::Default(1);
  hp.log_noise_variance = std::log(1e-8);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, hp).ok());
  const auto pred = gp.PredictBatch(x);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(pred.mean[i], y[i], 1e-3);
    EXPECT_LT(pred.variance[i], 1e-3);
  }
}

TEST(GpTest, VarianceGrowsAwayFromData) {
  Matrix x(3, 1);
  Vector y{0.0, 1.0, 0.5};
  x(0, 0) = 0.0;
  x(1, 0) = 0.1;
  x(2, 0) = 0.2;
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, GpHyperparams::Default(1)).ok());
  const auto pred = gp.PredictBatch(Matrix{{0.1}, {3.0}});
  EXPECT_GT(pred.variance[1], pred.variance[0]);
}

TEST(GpTest, ConstantTargetsPredictMean) {
  Matrix x(4, 2);
  Rng rng(2);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 2; ++j) x(i, j) = rng.NextDouble();
  Vector y(4, 7.5);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y, GpHyperparams::Default(2)).ok());
  EXPECT_NEAR(gp.PredictBatch(Matrix{{0.5, 0.5}}).mean[0], 7.5, 1e-6);
}

TEST(GpTest, RejectsMismatchedInput) {
  GaussianProcess gp;
  EXPECT_FALSE(gp.Fit(Matrix(3, 2), Vector(2), GpHyperparams::Default(2)).ok());
  EXPECT_FALSE(gp.Fit(Matrix(3, 2), Vector(3), GpHyperparams::Default(5)).ok());
}

TEST(GpTest, LogMarginalLikelihoodPrefersTruth) {
  // Data generated from a smooth function: a reasonable lengthscale should
  // beat an absurdly small one.
  Matrix x(12, 1);
  Vector y(12);
  for (int i = 0; i < 12; ++i) {
    x(static_cast<size_t>(i), 0) = i / 12.0;
    y[static_cast<size_t>(i)] = std::sin(2.0 * i / 12.0);
  }
  GpHyperparams good = GpHyperparams::Default(1);
  GpHyperparams bad = GpHyperparams::Default(1);
  bad.log_lengthscales = Vector(1, std::log(1e-4));
  EXPECT_GT(testutil::ReferenceLogMarginalLikelihood(x, y, good),
            testutil::ReferenceLogMarginalLikelihood(x, y, bad));
}

TEST(GpHyperparamsTest, FlattenRoundTrip) {
  GpHyperparams hp = GpHyperparams::Default(3);
  hp.log_lengthscales[1] = -2.0;
  hp.log_signal_variance = 0.7;
  hp.log_noise_variance = -5.5;
  GpHyperparams back = GpHyperparams::Unflatten(hp.Flatten());
  EXPECT_DOUBLE_EQ(back.log_lengthscales[1], -2.0);
  EXPECT_DOUBLE_EQ(back.log_signal_variance, 0.7);
  EXPECT_DOUBLE_EQ(back.log_noise_variance, -5.5);
}

// ---------------------------------------------------------- SliceSampler

TEST(SliceSamplerTest, SamplesStandardNormal) {
  auto log_density = [](const Vector& x) { return -0.5 * x[0] * x[0]; };
  SliceSampler sampler(log_density, SliceSampler::Options());
  Rng rng(31);
  auto samples = sampler.Sample(Vector{0.3}, 3000, 50, 1, &rng);
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& s : samples) values.push_back(s[0]);
  EXPECT_NEAR(math::Mean(values), 0.0, 0.1);
  EXPECT_NEAR(math::StdDev(values), 1.0, 0.1);
}

TEST(SliceSamplerTest, SamplesShiftedBivariate) {
  auto log_density = [](const Vector& x) {
    const double a = x[0] - 2.0;
    const double b = x[1] + 1.0;
    return -0.5 * (a * a + b * b / 0.25);
  };
  SliceSampler sampler(log_density, SliceSampler::Options());
  Rng rng(37);
  auto samples = sampler.Sample(Vector{0.0, 0.0}, 2500, 80, 1, &rng);
  std::vector<double> xs, ys;
  for (const auto& s : samples) {
    xs.push_back(s[0]);
    ys.push_back(s[1]);
  }
  EXPECT_NEAR(math::Mean(xs), 2.0, 0.15);
  EXPECT_NEAR(math::Mean(ys), -1.0, 0.15);
  EXPECT_NEAR(math::StdDev(ys), 0.5, 0.1);
}

// --------------------------------------------------------------- EiMcmc

TEST(EiMcmcTest, FitAndAcquire) {
  Rng rng(41);
  Matrix x(10, 2);
  Vector y(10);
  for (int i = 0; i < 10; ++i) {
    x(static_cast<size_t>(i), 0) = rng.NextDouble();
    x(static_cast<size_t>(i), 1) = rng.NextDouble();
    // Bowl with minimum at (0.5, 0.5).
    const double dx = x(static_cast<size_t>(i), 0) - 0.5;
    const double dy = x(static_cast<size_t>(i), 1) - 0.5;
    y[static_cast<size_t>(i)] = dx * dx + dy * dy;
  }
  EiMcmc::Options opts;
  opts.num_hyper_samples = 4;
  opts.burn_in = 6;
  EiMcmc model(opts);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  EXPECT_TRUE(model.fitted());
  EXPECT_DOUBLE_EQ(model.best_observed(), math::Min(y.data()));
  const Matrix qs{{0.5, 0.5}, {0.95, 0.05}};
  const Vector eis = model.AcquisitionValueBatch(qs);
  ASSERT_EQ(eis.size(), 2u);
  EXPECT_GE(eis[0], 0.0);
  // A far-away point with high uncertainty should have positive EI.
  EXPECT_GT(eis[1], 0.0);
  for (size_t i = 0; i < qs.rows(); ++i) {
    EXPECT_NEAR(eis[i], testutil::ReferenceAcquisition(model, qs.Row(i)),
                1e-10 * std::max(1.0, std::abs(eis[i])));
  }
}

TEST(EiMcmcTest, PredictAveragedTracksData) {
  Rng rng(43);
  Matrix x(8, 1);
  Vector y(8);
  for (int i = 0; i < 8; ++i) {
    x(static_cast<size_t>(i), 0) = i / 8.0;
    y[static_cast<size_t>(i)] = 3.0 + x(static_cast<size_t>(i), 0);
  }
  EiMcmc model;
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  Matrix q(1, 1);
  q(0, 0) = 0.5;
  const auto pred = model.PredictAveragedBatch(q);
  EXPECT_NEAR(pred.mean[0], 3.5, 0.25);
}

TEST(EiMcmcTest, RejectsTooFewSamples) {
  Rng rng(47);
  EiMcmc model;
  EXPECT_FALSE(model.Fit(Matrix(1, 2), Vector(1), &rng).ok());
}

// ----------------------------------------------------------------- KPCA

TEST(KpcaTest, RecoversLowDimensionalStructure) {
  // Points on a 2-D plane embedded in 6-D: KPCA with a wide Gaussian
  // kernel should explain most variance with few components.
  Rng rng(53);
  Matrix x(40, 6);
  for (size_t i = 0; i < 40; ++i) {
    const double a = rng.NextDouble();
    const double b = rng.NextDouble();
    for (size_t j = 0; j < 6; ++j) {
      x(i, j) = (j % 2 == 0 ? a : b) * 0.9 + 0.05;
    }
  }
  GaussianKernel kernel(2.0);
  Kpca kpca;
  ASSERT_TRUE(kpca.Fit(x, &kernel).ok());
  EXPECT_LE(kpca.num_components(), 6);
  EXPECT_GE(kpca.explained_variance_ratio(), 0.85);
}

TEST(KpcaTest, ProjectionsOfDistinctPointsDiffer) {
  Rng rng(59);
  Matrix x(20, 4);
  for (size_t i = 0; i < 20; ++i)
    for (size_t j = 0; j < 4; ++j) x(i, j) = rng.NextDouble();
  GaussianKernel kernel(1.0);
  Kpca kpca;
  ASSERT_TRUE(kpca.Fit(x, &kernel).ok());
  Vector a(4, 0.2), b(4, 0.8);
  EXPECT_GT((kpca.Project(a) - kpca.Project(b)).Norm(), 1e-4);
}

// Project is the one-row case of ProjectRows, and each projected row
// depends on its own input row only: every batch size, below, at and
// across the 64-row block, gives each row Project's bits.
TEST(KpcaTest, ProjectRowsMatchesProjectBitwise) {
  Rng rng(67);
  Matrix x(20, 5);
  for (size_t i = 0; i < 20; ++i)
    for (size_t j = 0; j < 5; ++j) x(i, j) = rng.NextDouble();
  GaussianKernel gaussian(0.8);
  PolynomialKernel poly(2, 1.0);
  for (const Kernel* kernel : std::vector<const Kernel*>{&gaussian, &poly}) {
    Kpca kpca;
    ASSERT_TRUE(kpca.Fit(x, kernel).ok()) << kernel->name();
    const size_t latent = static_cast<size_t>(kpca.num_components());
    for (size_t rows : {1u, 3u, 63u, 64u, 65u, 130u}) {
      Matrix q(rows, 5);
      for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < 5; ++j) q(i, j) = rng.NextDouble();
      const Matrix z = kpca.ProjectRows(q);
      ASSERT_EQ(z.rows(), rows);
      ASSERT_EQ(z.cols(), latent);
      for (size_t i = 0; i < rows; ++i) {
        const Vector ref = kpca.Project(q.Row(i));
        for (size_t j = 0; j < latent; ++j) {
          EXPECT_PRED2(SameBits, z(i, j), ref[j])
              << kernel->name() << " rows " << rows << " row " << i;
        }
      }
    }
  }
}

TEST(KpcaTest, EigenvaluesDescend) {
  // Kpca::Fit keeps components in the order JacobiEigenSymmetric returns
  // them, so the spectrum of the centered Gram matrix it decomposes must
  // come back descending.
  Rng rng(61);
  Matrix x(15, 3);
  for (size_t i = 0; i < 15; ++i)
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.NextDouble();
  GaussianKernel kernel(1.0);
  Kpca kpca;
  ASSERT_TRUE(kpca.Fit(x, &kernel).ok());

  const size_t n = x.rows();
  const Matrix k = kernel.GramMatrix(x);
  Vector row_means(n);
  double grand_mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) row_means[i] += k(i, j);
    grand_mean += row_means[i];
    row_means[i] /= static_cast<double>(n);
  }
  grand_mean /= static_cast<double>(n * n);
  Matrix kc(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      kc(i, j) = k(i, j) - row_means[i] - row_means[j] + grand_mean;
  auto eig = math::JacobiEigenSymmetric(kc);
  ASSERT_TRUE(eig.ok());
  const Vector& ev = eig->eigenvalues;
  ASSERT_EQ(ev.size(), n);
  for (size_t i = 0; i + 1 < ev.size(); ++i) EXPECT_GE(ev[i], ev[i + 1]);
}

TEST(KpcaTest, RejectsTooFewSamples) {
  GaussianKernel kernel(1.0);
  Kpca kpca;
  EXPECT_FALSE(kpca.Fit(Matrix(1, 3), &kernel).ok());
  EXPECT_FALSE(kpca.Fit(Matrix(5, 3), nullptr).ok());
}

// ------------------------------------------------------------ Regressors

/// Mean squared error of `model` over the rows of `x`.
double TrainingMse(const Regressor& model, const Matrix& x, const Vector& y) {
  double s = 0.0;
  for (size_t r = 0; r < x.rows(); ++r) {
    const double d = model.Predict(x.Row(r)) - y[r];
    s += d * d;
  }
  return s / static_cast<double>(x.rows());
}

Matrix MakeFeatures(Rng* rng, int n, int d) {
  Matrix x(static_cast<size_t>(n), static_cast<size_t>(d));
  for (size_t i = 0; i < x.rows(); ++i)
    for (size_t j = 0; j < x.cols(); ++j) x(i, j) = rng->NextDouble();
  return x;
}

TEST(LinearRegressionTest, ExactOnLinearData) {
  Rng rng(73);
  Matrix x = MakeFeatures(&rng, 30, 3);
  Vector y(30);
  for (size_t i = 0; i < 30; ++i) {
    y[i] = 2.0 * x(i, 0) - 1.0 * x(i, 1) + 0.5 * x(i, 2) + 4.0;
  }
  LinearRegression reg;
  ASSERT_TRUE(reg.Fit(x, y).ok());
  EXPECT_NEAR(reg.weights()[0], 2.0, 1e-6);
  EXPECT_NEAR(reg.weights()[1], -1.0, 1e-6);
  EXPECT_NEAR(reg.intercept(), 4.0, 1e-6);
  EXPECT_NEAR(reg.Predict(Vector{0.5, 0.5, 0.5}), 4.75, 1e-6);
}

TEST(GbrtTest, FitsNonlinearFunction) {
  Rng rng(79);
  Matrix x = MakeFeatures(&rng, 200, 2);
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) {
    y[i] = std::sin(6.0 * x(i, 0)) + (x(i, 1) > 0.5 ? 2.0 : 0.0);
  }
  Gbrt model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_LT(TrainingMse(model, x, y), 0.05);
}

TEST(GbrtTest, FeatureImportancesIdentifyRelevantFeature) {
  Rng rng(83);
  Matrix x = MakeFeatures(&rng, 150, 4);
  Vector y(150);
  for (size_t i = 0; i < 150; ++i) y[i] = 5.0 * x(i, 2);  // only dim 2 matters
  Gbrt model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  const auto importances = model.FeatureImportances();
  ASSERT_EQ(importances.size(), 4u);
  EXPECT_GT(importances[2], 0.8);
  double sum = 0.0;
  for (double v : importances) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RegressionTreeTest, PerfectSplitOnStep) {
  Matrix x(8, 1);
  Vector y(8);
  for (int i = 0; i < 8; ++i) {
    x(static_cast<size_t>(i), 0) = i;
    y[static_cast<size_t>(i)] = i < 4 ? 0.0 : 10.0;
  }
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y, RegressionTree::Options()).ok());
  EXPECT_NEAR(tree.Predict(Vector{1.0}), 0.0, 1e-9);
  EXPECT_NEAR(tree.Predict(Vector{6.0}), 10.0, 1e-9);
}

TEST(KnnTest, InterpolatesLocally) {
  Matrix x(4, 1);
  Vector y{0.0, 1.0, 2.0, 3.0};
  for (int i = 0; i < 4; ++i) x(static_cast<size_t>(i), 0) = i;
  KnnRegressor knn(2);
  ASSERT_TRUE(knn.Fit(x, y).ok());
  const double pred = knn.Predict(Vector{1.5});
  EXPECT_GT(pred, 0.9);
  EXPECT_LT(pred, 2.1);
}

TEST(LogisticRegressionTest, MonotoneFitWithinRange) {
  Rng rng(89);
  Matrix x = MakeFeatures(&rng, 60, 1);
  Vector y(60);
  for (size_t i = 0; i < 60; ++i) y[i] = 10.0 + 20.0 * x(i, 0);
  LogisticRegression reg;
  ASSERT_TRUE(reg.Fit(x, y).ok());
  EXPECT_LT(reg.Predict(Vector{0.1}), reg.Predict(Vector{0.9}));
  EXPECT_GT(reg.Predict(Vector{0.5}), 10.0);
  EXPECT_LT(reg.Predict(Vector{0.5}), 30.0);
}

TEST(SvrTest, FitsSmoothFunction) {
  Rng rng(97);
  Matrix x = MakeFeatures(&rng, 80, 1);
  Vector y(80);
  for (size_t i = 0; i < 80; ++i) y[i] = std::sin(3.0 * x(i, 0));
  SvrRegressor svr;
  ASSERT_TRUE(svr.Fit(x, y).ok());
  EXPECT_LT(TrainingMse(svr, x, y), 0.1);
}

TEST(RegressorTest, AllRejectEmptyInput) {
  Matrix empty(0, 2);
  Vector y;
  LinearRegression lin;
  Gbrt gbrt;
  KnnRegressor knn;
  LogisticRegression log_reg;
  SvrRegressor svr;
  for (Regressor* r : std::vector<Regressor*>{&lin, &gbrt, &knn, &log_reg,
                                              &svr}) {
    EXPECT_FALSE(r->Fit(empty, y).ok()) << r->name();
  }
}

}  // namespace
}  // namespace locat::ml
