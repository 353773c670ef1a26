// Per-candidate reference for the ensemble acquisition, shared by the
// EiMcmc tests.
#ifndef LOCAT_TESTS_ACQUISITION_REFERENCE_H_
#define LOCAT_TESTS_ACQUISITION_REFERENCE_H_

#include <cmath>

#include "math/distributions.h"
#include "math/matrix.h"
#include "ml/ei_mcmc.h"

namespace locat::testutil {

/// What `EiMcmc::AcquisitionValueBatch` computes for one candidate, built
/// the straightforward way: every ensemble member's `PredictReference`,
/// scored by `kind` against the incumbent and averaged in member order.
/// Agrees with the batch up to floating-point reassociation.
inline double ReferenceAcquisition(
    const ml::EiMcmc& model, const math::Vector& x,
    ml::AcquisitionKind kind = ml::AcquisitionKind::kExpectedImprovement) {
  double total = 0.0;
  for (const auto& gp : model.ensemble()) {
    const auto p = gp.PredictReference(x);
    const double sd = std::sqrt(p.variance);
    switch (kind) {
      case ml::AcquisitionKind::kProbabilityOfImprovement:
        total += math::ProbabilityOfImprovement(p.mean, sd,
                                                model.best_observed());
        break;
      case ml::AcquisitionKind::kExpectedImprovement:
        total += math::ExpectedImprovement(p.mean, sd, model.best_observed());
        break;
    }
  }
  return total / static_cast<double>(model.ensemble().size());
}

}  // namespace locat::testutil

#endif  // LOCAT_TESTS_ACQUISITION_REFERENCE_H_
