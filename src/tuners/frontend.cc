#include "tuners/frontend.h"

#include <algorithm>

namespace locat::tuners {

QcsaIicpFrontend::QcsaIicpFrontend(std::unique_ptr<core::Tuner> inner,
                                   Options options)
    : inner_(std::move(inner)), options_(options), rng_(options.seed) {}

void QcsaIicpFrontend::SetObservability(const obs::ObsContext& obs) {
  core::Tuner::SetObservability(obs);
  inner_->SetObservability(obs);
}

std::string QcsaIicpFrontend::name() const {
  std::string suffix;
  if (options_.apply_qcsa && options_.apply_iicp) {
    suffix = "+QIT";
  } else if (options_.apply_qcsa) {
    suffix = "+QCSA";
  } else if (options_.apply_iicp) {
    suffix = "+IICP";
  }
  return inner_->name() + suffix;
}

core::TuningResult QcsaIicpFrontend::Tune(core::TuningSession* session,
                                          double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  sparksim::ConfigSpace space = session->space();

  // --- Sample collection: max(N_QCSA, N_IICP) random full-app runs.
  const int n_samples =
      std::max(options_.apply_qcsa ? options_.n_qcsa : 0,
               options_.apply_iicp ? options_.n_iicp : 0);
  std::vector<math::Vector> units;
  std::vector<double> seconds;
  std::vector<std::vector<double>> per_query(
      static_cast<size_t>(session->app().num_queries()));
  int sample_failures = 0;
  session->ClearQueryRestriction();
  {
    obs::ScopedSpan span(tracer(), "frontend/sampling", "tuner");
    double sample_best = 0.0;
    for (int i = 0; i < n_samples; ++i) {
      const double before = session->optimization_seconds();
      const StatusOr<core::EvalRecord> rec_or =
          session->Evaluate(space.RandomValid(&rng_), datasize_gb);
      if (!rec_or.ok()) continue;
      const core::EvalRecord& rec = *rec_or;
      const double eval_seconds = session->optimization_seconds() - before;
      if (rec.failed) {
        // Killed sample: its per-query vector is truncated, so it can't
        // feed QCSA's aligned columns — drop it from the analyses.
        ++sample_failures;
      } else {
        units.push_back(rec.unit);
        seconds.push_back(rec.app_seconds);
        for (size_t q = 0; q < rec.per_query_seconds.size(); ++q) {
          per_query[q].push_back(rec.per_query_seconds[q]);
        }
        if (sample_best <= 0.0 || rec.app_seconds < sample_best) {
          sample_best = rec.app_seconds;
        }
      }
      if (observer() != nullptr) {
        core::EmitSimpleIteration(observer(), name(), "sampling", i,
                                  datasize_gb, eval_seconds, rec.app_seconds,
                                  sample_best, rec.full_app, sample_failures);
      }
    }
  }

  // --- QCSA: restrict the session to the CSQs (successful samples only).
  if (options_.apply_qcsa && static_cast<int>(units.size()) >= 2) {
    auto qcsa = core::AnalyzeQuerySensitivity(per_query, tracer());
    if (qcsa.ok()) {
      qcsa_ = std::move(qcsa).value();
      session->RestrictToQueries(qcsa_->csq_indices);
      if (observer() != nullptr) {
        obs::PhaseEvent ev;
        ev.tuner = name();
        ev.phase = "qcsa";
        ev.fields = {
            {"csq", static_cast<double>(qcsa_->csq_indices.size())},
            {"ciq", static_cast<double>(qcsa_->ciq_indices.size())},
            {"threshold", qcsa_->threshold},
        };
        observer()->OnPhase(ev);
      }
    }
  }

  // --- IICP: restrict the inner tuner's parameters.
  if (options_.apply_iicp && static_cast<int>(units.size()) >= 4) {
    const int n = std::min<int>(options_.n_iicp,
                                static_cast<int>(units.size()));
    math::Matrix confs(static_cast<size_t>(n), sparksim::kNumParams);
    std::vector<double> ts(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      confs.SetRow(static_cast<size_t>(i), units[static_cast<size_t>(i)]);
      ts[static_cast<size_t>(i)] = seconds[static_cast<size_t>(i)];
    }
    auto iicp = core::Iicp::Run(confs, ts, options_.iicp, tracer());
    if (iicp.ok()) {
      iicp_ = std::move(iicp).value();
      inner_->SetFreeParams(iicp_->selected_params());
      if (observer() != nullptr) {
        obs::PhaseEvent ev;
        ev.tuner = name();
        ev.phase = "iicp";
        ev.fields = {
            {"selected_params",
             static_cast<double>(iicp_->selected_params().size())},
            {"latent_dim", static_cast<double>(iicp_->latent_dim())},
        };
        observer()->OnPhase(ev);
      }
    }
  }

  core::TuningResult result = inner_->Tune(session, datasize_gb);
  session->ClearQueryRestriction();

  result.tuner_name = name();
  result.failed_evaluations += sample_failures;
  result.optimization_seconds = session->optimization_seconds() - meter_start;
  result.evaluations = session->evaluations() - evals_start;
  return result;
}

}  // namespace locat::tuners
