#ifndef LOCAT_TUNERS_FRONTEND_H_
#define LOCAT_TUNERS_FRONTEND_H_

#include <memory>
#include <string>

#include "core/iicp.h"
#include "core/qcsa.h"
#include "core/tuning.h"

namespace locat::tuners {

/// Retrofits LOCAT's QCSA and/or IICP stages onto any baseline tuner
/// (Section 5.10: the "QCSA", "IICP", and "QIT" variants of Tuneful, DAC,
/// GBO-RL, and QTune).
///
/// The frontend collects a small random sample set (charged to the
/// optimization meter like everything else), then:
///   - QCSA: restricts the session to the configuration-sensitive queries
///     so the inner tuner transparently runs the RQA;
///   - IICP: restricts the inner tuner's search to the CPS-selected
///     parameters via Tuner::SetFreeParams.
class QcsaIicpFrontend : public core::Tuner {
 public:
  struct Options {
    bool apply_qcsa = true;
    bool apply_iicp = true;
    int n_qcsa = 30;
    int n_iicp = 20;
    uint64_t seed = 61;

    Options() {}
  };

  QcsaIicpFrontend(std::unique_ptr<core::Tuner> inner, Options options);

  std::string name() const override;
  core::TuningResult Tune(core::TuningSession* session,
                          double datasize_gb) override;
  void SetObservability(const obs::ObsContext& obs) override;

  const core::QcsaResult* qcsa_result() const {
    return qcsa_ ? &*qcsa_ : nullptr;
  }
  const core::IicpResult* iicp_result() const {
    return iicp_ ? &*iicp_ : nullptr;
  }

 private:
  std::unique_ptr<core::Tuner> inner_;
  Options options_;
  Rng rng_;
  std::optional<core::QcsaResult> qcsa_;
  std::optional<core::IicpResult> iicp_;
};

}  // namespace locat::tuners

#endif  // LOCAT_TUNERS_FRONTEND_H_
