#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "acquisition_reference.h"
#include "common/rng.h"
#include "math/distributions.h"
#include "math/stats.h"
#include "ml/ei_mcmc.h"
#include "ml/pca.h"

namespace locat::ml {
namespace {

using math::Matrix;
using math::Vector;

// ------------------------------------------------------------------ PCA

TEST(PcaTest, RecoversAxisAlignedStructure) {
  // Variance concentrated in dimension 1.
  Rng rng(5);
  Matrix x(50, 3);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = 0.5 + 0.01 * rng.NextGaussian();
    x(i, 1) = rng.NextDouble();  // dominant variance
    x(i, 2) = 0.5 + 0.01 * rng.NextGaussian();
  }
  Pca pca;
  ASSERT_TRUE(pca.Fit(x).ok());
  EXPECT_EQ(pca.num_components(), 1);
  EXPECT_GT(pca.explained_variance_ratio(), 0.85);
  // The first component is (roughly) dimension 1.
  const Vector lo = pca.Project(Vector{0.5, 0.0, 0.5});
  const Vector hi = pca.Project(Vector{0.5, 1.0, 0.5});
  EXPECT_GT(std::fabs(hi[0] - lo[0]), 0.9);
}

TEST(PcaTest, RejectsDegenerateInput) {
  Pca pca;
  EXPECT_FALSE(pca.Fit(Matrix(1, 3)).ok());
  EXPECT_FALSE(pca.Fit(Matrix(5, 3)).ok());  // all-zero: no variance
}

// ----------------------------------------------------- Acquisition rules

TEST(AcquisitionTest, ProbabilityOfImprovementProperties) {
  // PI in [0, 1], monotone in the mean.
  EXPECT_GE(math::ProbabilityOfImprovement(5.0, 1.0, 4.0), 0.0);
  EXPECT_LE(math::ProbabilityOfImprovement(5.0, 1.0, 4.0), 1.0);
  EXPECT_GT(math::ProbabilityOfImprovement(3.0, 1.0, 4.0),
            math::ProbabilityOfImprovement(5.0, 1.0, 4.0));
  // Degenerate sigma.
  EXPECT_DOUBLE_EQ(math::ProbabilityOfImprovement(3.0, 0.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(math::ProbabilityOfImprovement(5.0, 0.0, 4.0), 0.0);
}

TEST(AcquisitionTest, EiMcmcSupportsAllKinds) {
  Rng rng(19);
  Matrix x(8, 1);
  Vector y(8);
  for (int i = 0; i < 8; ++i) {
    x(static_cast<size_t>(i), 0) = i / 8.0;
    y[static_cast<size_t>(i)] = std::cos(3.0 * i / 8.0);
  }
  for (AcquisitionKind kind : {AcquisitionKind::kExpectedImprovement,
                               AcquisitionKind::kProbabilityOfImprovement}) {
    EiMcmc::Options opts;
    opts.acquisition = kind;
    opts.num_hyper_samples = 3;
    opts.burn_in = 4;
    EiMcmc model(opts);
    Rng fit_rng(21);
    ASSERT_TRUE(model.Fit(x, y, &fit_rng).ok());
    const Vector value = model.AcquisitionValueBatch(Matrix{{0.5}});
    ASSERT_EQ(value.size(), 1u);
    EXPECT_TRUE(std::isfinite(value[0]));
    EXPECT_NEAR(value[0],
                testutil::ReferenceAcquisition(model, Vector{0.5}, kind),
                1e-10 * std::max(1.0, std::abs(value[0])));
  }
}

}  // namespace
}  // namespace locat::ml
