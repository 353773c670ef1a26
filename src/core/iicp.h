#ifndef LOCAT_CORE_IICP_H_
#define LOCAT_CORE_IICP_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "math/matrix.h"
#include "ml/kernels.h"
#include "ml/kpca.h"
#include "obs/trace.h"

namespace locat::core {

/// Result of IICP: which parameters CPS kept, and the fitted KPCA that CPE
/// uses to extract the "new parameters" fed to the DAGP.
class IicpResult {
 public:
  /// Indices (into the 38-parameter vector) that CPS selected, ascending.
  const std::vector<int>& selected_params() const { return selected_; }

  /// |SCC| of every original parameter against the execution time.
  const std::vector<double>& spearman_abs() const { return scc_abs_; }

  /// Latent dimension CPE extracted.
  int latent_dim() const { return kpca_.num_components(); }

  /// Projects a full unit-cube configuration (38 dims) to the latent
  /// space: the one-row case of EncodeRows.
  math::Vector Encode(const math::Vector& unit_conf) const;

  /// Projects every row of `unit_confs` (rows x 38) to the latent space:
  /// SelectDims, then one batched KPCA projection. Row r depends only on
  /// input row r.
  math::Matrix EncodeRows(const math::Matrix& unit_confs) const;

  const ml::Kpca& kpca() const { return kpca_; }

 private:
  friend class Iicp;
  /// Restriction of each row to the CPS-selected dimensions, scaled by
  /// the CPS correlation weights (the hybrid step: CPE's kernel sees
  /// runtime-relevant directions amplified).
  math::Matrix SelectDims(const math::Matrix& unit_confs) const;

  std::vector<int> selected_;
  std::vector<double> scc_abs_;
  std::vector<double> weights_;
  std::shared_ptr<ml::GaussianKernel> kernel_;  // owns the KPCA kernel
  ml::Kpca kpca_;
};

/// Identifying Important Configuration Parameters: CPS (Spearman filter)
/// followed by CPE (Gaussian-kernel KPCA).
class Iicp {
 public:
  /// Runs IICP on N_IICP samples: `unit_confs` is n x 38 (configurations
  /// in unit-cube coordinates), `times[i]` the matching execution time.
  /// Requires n >= 4. CPS keeps the parameters with |SCC| >= 0.2 (the
  /// paper's "poor correlation" cutoff) and never returns an empty
  /// selection: when fewer than 3 clear the bound, the top-3 by |SCC| are
  /// kept (the paper's pipeline implicitly assumes at least some
  /// correlated parameters). CPE keeps the KPCA components covering 90%
  /// of the spectrum.
  ///
  /// `tracer` (optional) records the CPS and CPE stages as nested spans.
  static StatusOr<IicpResult> Run(const math::Matrix& unit_confs,
                                  const std::vector<double>& times,
                                  obs::Tracer* tracer = nullptr);
};

}  // namespace locat::core

#endif  // LOCAT_CORE_IICP_H_
