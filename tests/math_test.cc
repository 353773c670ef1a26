#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/cholesky.h"
#include "math/distributions.h"
#include "math/eigen.h"
#include "math/matrix.h"
#include "math/stats.h"

namespace locat::math {
namespace {

TEST(VectorTest, BasicOps) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.Dot(b), 32.0);
  EXPECT_NEAR(a.Norm(), std::sqrt(14.0), 1e-12);
  Vector d = b - a;
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(MatrixTest, IdentityAndMultiply) {
  Matrix m{{1, 2}, {3, 4}};
  Matrix i = Matrix::Identity(2);
  Matrix p = m * i;
  EXPECT_EQ(p.MaxAbsDiff(m), 0.0);
  Vector v{1.0, 1.0};
  Vector mv = m * v;
  EXPECT_DOUBLE_EQ(mv[0], 3.0);
  EXPECT_DOUBLE_EQ(mv[1], 7.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transpose();
  ASSERT_EQ(t.rows(), 3u);
  ASSERT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
}

TEST(MatrixTest, RowColSetRow) {
  Matrix m(2, 3);
  m.SetRow(0, Vector{1, 2, 3});
  m.SetRow(1, Vector{4, 5, 6});
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 6.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
}

TEST(MatrixTest, AddToDiagonal) {
  Matrix m = Matrix::Identity(3);
  m.AddToDiagonal(0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(MatrixTest, AssociativityProperty) {
  Rng rng(3);
  Matrix a(4, 5), b(5, 3), c(3, 2);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 5; ++j) a(i, j) = rng.NextGaussian();
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = 0; j < 3; ++j) b(i, j) = rng.NextGaussian();
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 2; ++j) c(i, j) = rng.NextGaussian();
  EXPECT_LT(((a * b) * c).MaxAbsDiff(a * (b * c)), 1e-10);
}

class CholeskySeedTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySeedTest, FactorReconstructsAndSolves) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t n = 6;
  // Random SPD matrix: A = B B^T + n I.
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) b(i, j) = rng.NextGaussian();
  Matrix a = b * b.Transpose();
  a.AddToDiagonal(static_cast<double>(n));

  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  const Matrix l = chol->L();
  EXPECT_LT((l * l.Transpose()).MaxAbsDiff(a), 1e-9);

  Vector rhs(n);
  for (size_t i = 0; i < n; ++i) rhs[i] = rng.NextGaussian();
  Vector x = chol->Solve(rhs);
  Vector ax = a * x;
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskySeedTest, ::testing::Range(0, 8));

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(Cholesky::Factor(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::Factor(a).ok());
}

TEST(CholeskyTest, JitterRecoversNearSingular) {
  // Rank-deficient Gram matrix.
  Matrix a{{1, 1}, {1, 1}};
  auto chol = Cholesky::FactorWithJitter(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_GT(chol->jitter(), 0.0);
}

TEST(CholeskyTest, LogDeterminant) {
  Matrix a{{4, 0}, {0, 9}};
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(FactorLogDeterminant(chol->L()), std::log(36.0), 1e-12);
}

TEST(EigenTest, DiagonalMatrix) {
  Matrix a{{3, 0}, {0, 1}};
  auto eig = JacobiEigenSymmetric(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-10);
}

TEST(EigenTest, KnownSymmetricMatrix) {
  Matrix a{{2, 1}, {1, 2}};  // eigenvalues 3 and 1
  auto eig = JacobiEigenSymmetric(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-9);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-9);
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(JacobiEigenSymmetric(Matrix(2, 3)).ok());
}

class EigenSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenSeedTest, ReconstructionAndOrthonormality) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const size_t n = 7;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      a(i, j) = rng.NextGaussian();
      a(j, i) = a(i, j);
    }
  }
  auto eig = JacobiEigenSymmetric(a);
  ASSERT_TRUE(eig.ok());
  const Matrix& v = eig->eigenvectors;
  // V^T V = I.
  EXPECT_LT((v.Transpose() * v).MaxAbsDiff(Matrix::Identity(n)), 1e-8);
  // V diag(lambda) V^T = A.
  Matrix lam(n, n);
  for (size_t i = 0; i < n; ++i) lam(i, i) = eig->eigenvalues[i];
  EXPECT_LT((v * lam * v.Transpose()).MaxAbsDiff(a), 1e-8);
  // Descending order.
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_GE(eig->eigenvalues[i], eig->eigenvalues[i + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenSeedTest, ::testing::Range(0, 8));

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation(xs), 0.4);
}

TEST(StatsTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({}), 0.0);
}

TEST(StatsTest, CvZeroMean) {
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({-1.0, 1.0}), 0.0);
}

TEST(StatsTest, MinMax) {
  std::vector<double> xs = {3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(Min(xs), 1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 5.0);
}

TEST(StatsTest, RankWithTies) {
  std::vector<double> ranks = RankWithTies({10, 20, 20, 30});
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(StatsTest, RankAllEqual) {
  std::vector<double> ranks = RankWithTies({5, 5, 5});
  for (double r : ranks) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(DistributionsTest, NormalCdfSymmetry) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-3.0) + NormalCdf(3.0), 1.0, 1e-12);
}

TEST(DistributionsTest, NormalPdfPeak) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804, 1e-9);
  EXPECT_GT(NormalPdf(0.0), NormalPdf(1.0));
}

TEST(DistributionsTest, ExpectedImprovementProperties) {
  // Zero stddev degenerates to max(best - mean, 0).
  EXPECT_DOUBLE_EQ(ExpectedImprovement(5.0, 0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedImprovement(3.0, 0.0, 4.0), 1.0);
  // EI is positive with uncertainty even when the mean is worse.
  EXPECT_GT(ExpectedImprovement(5.0, 1.0, 4.0), 0.0);
  // EI increases with uncertainty.
  EXPECT_LT(ExpectedImprovement(5.0, 0.5, 4.0),
            ExpectedImprovement(5.0, 2.0, 4.0));
  // EI increases as the predicted mean improves.
  EXPECT_LT(ExpectedImprovement(5.0, 1.0, 4.0),
            ExpectedImprovement(3.0, 1.0, 4.0));
}

}  // namespace
}  // namespace locat::math
