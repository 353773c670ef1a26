#include "core/locat_tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "math/kern/kern.h"
#include "ml/lhs.h"

namespace locat::core {

LocatTuner::LocatTuner(Options options)
    : options_(options), rng_(options.seed) {
  // Lighter MCMC for the high-dimensional pre-IICP phase keeps the cold
  // start cheap; accuracy matters most after the reduction.
  options_.dagp.ei.num_hyper_samples =
      std::min(options_.dagp.ei.num_hyper_samples, 6);
  options_.dagp.ei.burn_in = std::min(options_.dagp.ei.burn_in, 10);
  options_.dagp.ei.thin = 1;
  dagp_ = Dagp(options_.dagp);
}

void LocatTuner::SetObservability(const obs::ObsContext& obs) {
  Tuner::SetObservability(obs);
  dagp_.SetObservability(obs.tracer, obs.metrics);
}

Status LocatTuner::RefitDagp() {
  const Status status = dagp_.Refit(&rng_);
  if (status.ok() && dagp_.last_refit_kind() != Dagp::RefitKind::kAppend) {
    fit_unreported_ = true;
  }
  return status;
}

void LocatTuner::EmitIteration(double datasize_gb, double eval_seconds,
                               double objective, bool full_app) {
  const int iteration = iter_in_pass_++;
  const bool report_fit = fit_unreported_;
  fit_unreported_ = false;
  if (observer() == nullptr) return;
  obs::BoIterationEvent ev;
  ev.tuner = name();
  ev.phase = phase_label_;
  ev.iteration = iteration;
  ev.datasize_gb = datasize_gb;
  ev.eval_seconds = eval_seconds;
  ev.objective_seconds = objective;
  ev.incumbent_seconds = best_objective_;
  ev.relative_ei = pending_relative_ei_;
  ev.candidate_pool = pending_candidate_pool_;
  ev.full_app = full_app;
  ev.acq_seconds = pending_acq_seconds_;
  if (report_fit) {
    // Only the first event after an MCMC refit carries its cost, so sums
    // over events count each refit once.
    const ml::EiMcmc::FitStats& fit = dagp_.last_fit_stats();
    ev.dagp_fit_seconds = fit.wall_seconds;
    ev.mcmc_ensemble = fit.ensemble_size;
    ev.mcmc_density_evals = fit.sampler.density_evals;
    ev.mcmc_acceptance = fit.sampler.acceptance_rate();
  }
  ev.rqa_share = rqa_share_;
  ev.rqa_queries = static_cast<int>(rqa_.size());
  ev.failed_evals = failed_evals_;
  observer()->OnIteration(ev);
}

std::string LocatTuner::name() const {
  if (options_.enable_qcsa && options_.enable_iicp) return "LOCAT";
  if (options_.enable_qcsa) return "LOCAT-AP";      // all parameters
  if (options_.enable_iicp) return "LOCAT-noQCSA";
  return "LOCAT-DAGPonly";
}

math::Vector LocatTuner::EncodeUnit(const math::Vector& unit) const {
  if (iicp_) return iicp_->Encode(unit);
  return unit;
}

double LocatTuner::RqaObjective(const std::vector<double>& per_query,
                                double full_seconds) const {
  if (rqa_.empty() || per_query.empty()) return full_seconds;
  double sum_all = 0.0;
  for (double t : per_query) sum_all += t;
  double sum_rqa = 0.0;
  for (int idx : rqa_) {
    if (idx >= 0 && static_cast<size_t>(idx) < per_query.size()) {
      sum_rqa += per_query[static_cast<size_t>(idx)];
    }
  }
  // Keep the (small) submit-overhead share so objectives before and after
  // the reduction stay on the same scale as RQA runs.
  return sum_rqa + (full_seconds - sum_all);
}

void LocatTuner::EvaluateAndRecord(
    TuningSession* session, const std::vector<sparksim::SparkConf>& confs,
    double datasize_gb, bool full_app) {
  auto run = [&](const sparksim::SparkConf& conf) {
    return full_app ? session->Evaluate(conf, datasize_gb)
                    : session->EvaluateSubset(conf, datasize_gb, rqa_);
  };
  // Every first attempt runs before any retry, so the simulator's noise
  // and fault streams see the runs in the order the configurations are
  // listed. Each charge is the meter's value after the run minus before.
  std::vector<StatusOr<EvalRecord>> recs;
  std::vector<double> eval_seconds;
  recs.reserve(confs.size());
  eval_seconds.reserve(confs.size());
  for (const auto& conf : confs) {
    const double before = session->optimization_seconds();
    recs.push_back(run(conf));
    eval_seconds.push_back(session->optimization_seconds() - before);
  }

  for (size_t k = 0; k < confs.size(); ++k) {
    const sparksim::SparkConf& conf = confs[k];
    StatusOr<EvalRecord>& rec_or = recs[k];
    // Retry budget: a failed run may be bad luck (straggler/kill draw), so
    // re-run within the budget, charging exponential backoff to the meter
    // — wasted wall clock is part of the optimization cost.
    int attempt = 0;
    while (rec_or.ok() && rec_or->failed &&
           attempt < options_.retry.max_retries) {
      const double backoff = options_.retry.BackoffSeconds(attempt);
      session->ChargePenaltySeconds(backoff);
      eval_seconds[k] += backoff;
      ++attempt;
      const double before = session->optimization_seconds();
      rec_or = run(conf);
      eval_seconds[k] += session->optimization_seconds() - before;
    }

    Observation obs;
    obs.unit = session->space().ToUnit(conf);
    obs.datasize_gb = datasize_gb;
    double objective = 0.0;
    if (!rec_or.ok()) {
      // Hard evaluation error (bad inputs): impute with no partial time.
      obs.failed = true;
      objective = CensoredObjective(worst_objective_, 0.0,
                                    options_.censor_margin);
    } else if (rec_or->failed) {
      // Censored: the run died after the retry budget. Its true cost is
      // unknown but at least the partial time and at least as bad as the
      // worst completed run; the margin steers DAGP/EI away.
      obs.failed = true;
      objective = CensoredObjective(worst_objective_, rec_or->app_seconds,
                                    options_.censor_margin);
    } else if (full_app) {
      obs.per_query = rec_or->per_query_seconds;
      objective =
          RqaObjective(rec_or->per_query_seconds, rec_or->app_seconds);
    } else {
      objective = rec_or->app_seconds;
    }
    obs.objective_seconds = objective;
    const bool failed = obs.failed;
    dagp_.AddObservation(EncodeUnit(obs.unit), datasize_gb, objective);
    observations_.push_back(std::move(obs));

    if (!failed) {
      worst_objective_ = std::max(worst_objective_, objective);
      if (best_objective_ <= 0.0 || objective < best_objective_) {
        best_objective_ = objective;
        best_conf_ = conf;
      }
    } else {
      ++failed_evals_;
    }
    trajectory_.push_back(best_objective_);
    EmitIteration(datasize_gb, eval_seconds[k], objective, full_app);
  }
}

LocatTuner::Proposal LocatTuner::ProposeNext(TuningSession* session,
                                             double datasize_gb) {
  const sparksim::ConfigSpace& space = session->space();
  // Wall clock of the whole proposal (incumbent scan, candidate
  // generation, EI scoring) — the acquisition half of the per-iteration
  // optimization overhead, reported next to the surrogate-fit half.
  // Measured unconditionally, like EiMcmc::FitStats.wall_seconds.
  const auto acq_start = std::chrono::steady_clock::now();

  // Anchor the local candidate families on the *posterior-mean* incumbent
  // rather than the raw noisy minimum: a single lucky observation would
  // otherwise drag the whole local search to a mediocre region. Scored as
  // one batched prediction over the history.
  math::Vector best_unit = space.ToUnit(best_conf_);
  if (dagp_.fitted() && !observations_.empty()) {
    std::vector<math::Vector> encoded;
    encoded.reserve(observations_.size() + priors_.size());
    for (const auto& obs : observations_) {
      encoded.push_back(EncodeUnit(obs.unit));
    }
    // Transferred prior units compete for the anchor too: the donor's
    // optimum is exactly the region a warm start exists to reach, and the
    // incumbent-anchored local/line families are the only way the
    // proposal loop gets there (the global family is uniform noise in 38
    // dimensions). The posterior mean at a prior reflects the rescaled
    // donor objective, so a genuinely better donor region wins the anchor
    // and this app's next evaluations refine it — with real runs, which
    // then take over the incumbent. Without priors the scan is unchanged.
    for (const auto& p : priors_) {
      encoded.push_back(EncodeUnit(p.unit));
    }
    const std::vector<double> sizes(encoded.size(), datasize_gb);
    const std::vector<Dagp::Prediction> preds =
        dagp_.PredictBatch(encoded, sizes);
    double best_score = 0.0;
    for (size_t i = 0; i < preds.size(); ++i) {
      const double score = preds[i].seconds;
      if (best_score <= 0.0 || score < best_score) {
        best_score = score;
        best_unit = i < observations_.size()
                        ? observations_[i].unit
                        : priors_[i - observations_.size()].unit;
      }
    }
  }

  // After IICP only the CPS-selected parameters are tuned; the rest stay
  // pinned to the incumbent's values (Section 3.3: "only tune the
  // important parameters").
  const std::vector<int>* tuned_dims = nullptr;
  if (iicp_) tuned_dims = &iicp_->selected_params();

  // Three candidate families, mirroring standard BO practice:
  //   - global: uniform over the tuned dimensions (exploration);
  //   - local: perturb a random ~30% subset of tuned dimensions around the
  //     incumbent (basin descent);
  //   - line: move a single tuned dimension to a fresh value (cliff
  //     parameters like memoryOverhead respond to coordinate moves).
  std::vector<int> identity_dims;
  if (tuned_dims == nullptr) {
    identity_dims.resize(sparksim::kNumParams);
    for (int i = 0; i < sparksim::kNumParams; ++i) {
      identity_dims[static_cast<size_t>(i)] = i;
    }
    tuned_dims = &identity_dims;
  }
  const bool have_incumbent = best_objective_ > 0.0;

  // Generate the whole pool first (sequentially — candidate generation is
  // where the RNG stream lives), then score every survivor in one batched
  // EI pass. Near-duplicates are dropped *before* scoring, exactly as the
  // scalar loop did.
  std::vector<math::Vector> pool_units;
  std::vector<math::Vector> pool_encoded;
  pool_units.reserve(static_cast<size_t>(options_.candidates));
  pool_encoded.reserve(static_cast<size_t>(options_.candidates));
  for (int c = 0; c < options_.candidates; ++c) {
    math::Vector unit = best_unit;
    int family = have_incumbent ? c % 3 : 1;
    // Late in the reduced phase, stop proposing global jumps: anneal to
    // local refinement around the incumbent.
    if (exploit_only_ && family == 1) family = (c % 2 == 0) ? 0 : 2;
    if (family == 0) {
      for (int d : *tuned_dims) {
        const size_t i = static_cast<size_t>(d);
        if (rng_.Bernoulli(0.3)) {
          unit[i] = std::clamp(best_unit[i] + rng_.Gaussian(0.0, 0.08), 0.0,
                               1.0);
        }
      }
    } else if (family == 1) {
      for (int d : *tuned_dims) {
        unit[static_cast<size_t>(d)] = rng_.NextDouble();
      }
    } else {
      const int d = (*tuned_dims)[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(tuned_dims->size()) - 1))];
      unit[static_cast<size_t>(d)] = rng_.NextDouble();
    }
    // Round-trip through the configuration space so the candidate is a
    // *valid* configuration (Section 5.12 constraints).
    const sparksim::SparkConf conf =
        space.Repair(space.FromUnit(unit));
    math::Vector valid_unit = space.ToUnit(conf);
    // Skip near-duplicates of past observations: re-running an evaluated
    // configuration wastes a cluster run and starves QCSA/IICP of sample
    // diversity.
    bool duplicate = false;
    for (const auto& obs : observations_) {
      if (obs.datasize_gb == datasize_gb &&
          std::sqrt(math::kern::SquaredDistance(
              obs.unit.data().data(), valid_unit.data().data(),
              valid_unit.size())) < 0.05) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    pool_encoded.push_back(EncodeUnit(valid_unit));
    pool_units.push_back(std::move(valid_unit));
  }

  Proposal best;
  double best_ei = -1.0;
  if (!pool_units.empty()) {
    const math::Vector eis =
        dagp_.ExpectedImprovementBatch(pool_encoded, datasize_gb);
    // Scan in generation order with strict '>' so the first maximum wins,
    // matching the scalar loop's tie-break.
    for (size_t i = 0; i < pool_units.size(); ++i) {
      if (eis[i] > best_ei) {
        best_ei = eis[i];
        best.unit = pool_units[i];
      }
    }
  }
  if (best_ei < 0.0) {
    // Everything was a duplicate; fall back to a fresh random point.
    best.unit = session->space().RandomValidUnit(&rng_);
    best.relative_ei = 1.0;
  } else {
    best.relative_ei = 1.0 - std::exp(-std::max(0.0, best_ei));
  }
  pending_relative_ei_ = best.relative_ei;
  pending_candidate_pool_ = options_.candidates;
  pending_acq_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    acq_start)
          .count();
  return best;
}

void LocatTuner::RunQcsaAndIicp(TuningSession* session) {
  const int num_queries = session->app().num_queries();

  // --- QCSA on the first N_QCSA full-app runs (matrix S, equation (2)).
  // Failed runs never contribute: their per_query is empty (or truncated
  // at the kill), so the CV computation sees only completed samples.
  if (options_.enable_qcsa) {
    std::vector<std::vector<double>> times(
        static_cast<size_t>(num_queries));
    for (const auto& obs : observations_) {
      if (obs.failed) continue;
      if (static_cast<int>(obs.per_query.size()) != num_queries) continue;
      for (int q = 0; q < num_queries; ++q) {
        times[static_cast<size_t>(q)].push_back(
            obs.per_query[static_cast<size_t>(q)]);
      }
    }
    auto qcsa = AnalyzeQuerySensitivity(times, tracer());
    if (qcsa.ok()) {
      qcsa_ = std::move(qcsa).value();
      rqa_ = qcsa_->csq_indices;
    }
  }
  if (rqa_.empty()) {
    rqa_.resize(static_cast<size_t>(num_queries));
    for (int q = 0; q < num_queries; ++q) rqa_[static_cast<size_t>(q)] = q;
  }
  // A transferred CSQ hint replaces the local estimate: the donor (or
  // this app's own pre-eviction tune) computed its sensitivity statistics
  // from a full sampling budget, while a warm start's shrunken schedule
  // observed too few samples for the CV ranking to mean anything — an
  // arbitrary RQA makes the reduced objective a proxy uncorrelated with
  // the full application and the whole refinement phase optimizes noise.
  if (!priors_.empty() && !prior_rqa_.empty()) {
    std::vector<int> hinted;
    hinted.reserve(prior_rqa_.size());
    for (int q : prior_rqa_) {
      if (q >= 0 && q < num_queries) hinted.push_back(q);
    }
    if (!hinted.empty()) rqa_ = std::move(hinted);
  }

  // --- IICP on the first N_IICP *successful* samples (matrix S',
  // equation (5)): censored penalty values are imputed, not measured, and
  // would distort the Spearman/KPCA statistics.
  if (options_.enable_iicp) {
    std::vector<size_t> ok_idx;
    for (size_t i = 0; i < observations_.size() &&
                       static_cast<int>(ok_idx.size()) < options_.n_iicp;
         ++i) {
      if (!observations_[i].failed) ok_idx.push_back(i);
    }
    const int n = static_cast<int>(ok_idx.size());
    math::Matrix confs(static_cast<size_t>(n), sparksim::kNumParams);
    std::vector<double> ts(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      confs.SetRow(static_cast<size_t>(i),
                   observations_[ok_idx[static_cast<size_t>(i)]].unit);
      ts[static_cast<size_t>(i)] =
          observations_[ok_idx[static_cast<size_t>(i)]].objective_seconds;
    }
    auto iicp = Iicp::Run(confs, ts, options_.iicp, tracer());
    if (iicp.ok()) iicp_ = std::move(iicp).value();
  }

  double rqa_ratio_sum = 0.0;
  int rqa_ratio_count = 0;
  // --- Objectives change (full app -> RQA) and so may the encoding:
  // rebuild the DAGP from the re-encoded history. When IICP produced a
  // low-dimensional latent space, the EI-MCMC ensemble can afford to be
  // richer than in the 38-dimensional phase A; without the reduction the
  // light options stay (a rich MCMC over 38 lengthscales costs minutes
  // per refit and is exactly what IICP exists to avoid).
  Dagp::Options reduced_opts = options_.dagp;
  if (iicp_) {
    reduced_opts.ei.num_hyper_samples = 10;
    reduced_opts.ei.burn_in = 16;
    reduced_opts.ei.thin = 1;
  }
  dagp_ = Dagp(reduced_opts);
  // The reassignment dropped the observability wiring; restore it.
  dagp_.SetObservability(obs_.tracer, obs_.metrics);
  dagp_.Clear();
  for (auto& obs : observations_) {
    if (!obs.per_query.empty()) {
      // Phase-A observations stored the full-app time; per_query lets us
      // convert them to the RQA objective (CSQ times + submit overhead).
      double sum_all = 0.0;
      for (double t : obs.per_query) sum_all += t;
      const double overhead = obs.objective_seconds - sum_all;
      double sum_rqa = 0.0;
      for (int idx : rqa_) {
        if (idx >= 0 && static_cast<size_t>(idx) < obs.per_query.size()) {
          sum_rqa += obs.per_query[static_cast<size_t>(idx)];
        }
      }
      obs.objective_seconds = sum_rqa + overhead;
      if (sum_all > 0.0) {
        rqa_ratio_sum += (sum_rqa + overhead) / (sum_all + overhead);
        ++rqa_ratio_count;
      }
    }
    dagp_.AddObservation(EncodeUnit(obs.unit), obs.datasize_gb,
                         obs.objective_seconds);
  }
  if (rqa_ratio_count > 0) rqa_share_ = rqa_ratio_sum / rqa_ratio_count;

  // Transferred priors enter the surrogate here — and only here. They are
  // donor-app objectives on the donor's own RQA scale; mixing that scale
  // with this app's raw observations would skew the whole GP fit, so each
  // prior is rescaled to this app's objective scale first. The factor is
  // calibrated pointwise: each of this app's (just re-scaled) phase-A
  // observations is paired with the nearest donor prior in unit space —
  // restricted to the donor data size closest (log-wise) to this cold
  // start's size — and the factor is the median of the pairwise log
  // ratios. Comparing nearest configurations, not whole histories, keeps
  // the calibration honest when the donor export mixes random samples
  // with exploitation samples near its own optimum. The single
  // multiplicative factor preserves the *shape* of the donor's cost
  // surface (which is all a transfer can promise) while the absolute
  // level matches the observations just recorded.
  if (!priors_.empty()) {
    double own_ds = 0.0;
    for (const auto& obs : observations_) {
      if (!obs.failed) own_ds = obs.datasize_gb;
    }
    double best_gap = 1e300;
    double anchor_ds = priors_.front().datasize_gb;
    for (const auto& p : priors_) {
      const double gap = std::fabs(std::log(p.datasize_gb / own_ds));
      if (gap < best_gap) {
        best_gap = gap;
        anchor_ds = p.datasize_gb;
      }
    }
    std::vector<double> log_ratios;
    for (const auto& obs : observations_) {
      if (obs.failed || obs.objective_seconds <= 0.0) continue;
      const PriorObservation* nearest = nullptr;
      double nearest_d2 = 1e300;
      for (const auto& p : priors_) {
        if (p.datasize_gb != anchor_ds) continue;
        double d2 = 0.0;
        for (size_t k = 0; k < obs.unit.size() && k < p.unit.size(); ++k) {
          const double d = obs.unit[k] - p.unit[k];
          d2 += d * d;
        }
        if (d2 < nearest_d2) {
          nearest_d2 = d2;
          nearest = &p;
        }
      }
      if (nearest != nullptr && nearest->objective_seconds > 0.0) {
        log_ratios.push_back(std::log(obs.objective_seconds /
                                      nearest->objective_seconds));
      }
    }
    if (!log_ratios.empty()) {
      std::nth_element(log_ratios.begin(),
                       log_ratios.begin() + log_ratios.size() / 2,
                       log_ratios.end());
      const double factor = std::exp(log_ratios[log_ratios.size() / 2]);
      // Pessimism (>= 1) is applied after the rescale so it survives the
      // normalization: donor knowledge sits slightly above this app's
      // level and real observations win ties near the optimum.
      const double lift = factor * std::max(1.0, prior_pessimism_);
      for (const auto& p : priors_) {
        dagp_.AddObservation(EncodeUnit(p.unit), p.datasize_gb,
                             p.objective_seconds * lift);
      }
      // The donors' claimed optima — at the data size most comparable to
      // this cold start — are worth real runs (the probes after the
      // rebuild): the latent encoding was fitted on a handful of this
      // app's own samples and can project the donors' discriminating
      // dimensions away, so trusting the surrogate alone to rediscover
      // the region is not reliable. Greedily pick up to three priors by
      // ascending objective, skipping near-duplicates, so one probe
      // failing (a donor optimum can sit just past this app's memory
      // edge) does not void the transfer.
      std::vector<const PriorObservation*> ranked;
      for (const auto& p : priors_) {
        if (p.datasize_gb == anchor_ds) ranked.push_back(&p);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const PriorObservation* a, const PriorObservation* b) {
                  return a->objective_seconds < b->objective_seconds;
                });
      for (const PriorObservation* p : ranked) {
        if (prior_probe_units_.size() >= 3) break;
        bool close = false;
        for (const auto& u : prior_probe_units_) {
          if ((u - p->unit).Norm() < 0.5) {
            close = true;
            break;
          }
        }
        if (!close) prior_probe_units_.push_back(p->unit);
      }
    }
  }

  // Recompute the incumbent (and the censored-cost anchor) under the RQA
  // objective; failed runs never hold either.
  best_objective_ = 0.0;
  worst_objective_ = 0.0;
  for (const auto& obs : observations_) {
    if (obs.failed) continue;
    if (best_objective_ <= 0.0 ||
        obs.objective_seconds < best_objective_) {
      best_objective_ = obs.objective_seconds;
    }
    worst_objective_ = std::max(worst_objective_, obs.objective_seconds);
  }

  if (observer() != nullptr) {
    if (qcsa_) {
      obs::PhaseEvent ev;
      ev.tuner = name();
      ev.phase = "qcsa";
      ev.fields = {
          {"csq", static_cast<double>(qcsa_->csq_indices.size())},
          {"ciq", static_cast<double>(qcsa_->ciq_indices.size())},
          {"threshold", qcsa_->threshold},
          {"rqa_share", rqa_share_},
      };
      observer()->OnPhase(ev);
    }
    if (iicp_) {
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

void LocatTuner::SeedPriorObservations(std::vector<PriorObservation> priors,
                                       double pessimism) {
  if (cold_started_) return;
  std::vector<PriorObservation> valid;
  valid.reserve(priors.size());
  for (auto& p : priors) {
    if (p.objective_seconds <= 0.0 || p.datasize_gb <= 0.0) continue;
    if (static_cast<int>(p.unit.size()) != sparksim::kNumParams) continue;
    valid.push_back(std::move(p));
  }
  if (valid.empty()) return;
  // The priors do NOT enter the surrogate yet: donor objectives live on
  // the donor's scale, and phase A observes raw full-app times — mixing
  // the two would bias every phase-A refit. RunQcsaAndIicp injects them,
  // rescaled to this app's objective level, when the cold start switches
  // to the RQA objective.
  priors_ = std::move(valid);
  prior_pessimism_ = std::max(1.0, pessimism);
  // The transferred surrogate (plus the probe runs of the donors' best
  // configurations) stands in for most of the cold-start samples: cut
  // the QCSA sampling budget to a third (never below the LHS points) and
  // the reduced-space floor/cap likewise.
  options_.n_qcsa = std::max(options_.lhs_init, options_.n_qcsa / 3);
  options_.min_iterations = std::max(1, options_.min_iterations / 3);
  options_.max_iterations =
      std::max(options_.min_iterations, options_.max_iterations / 3);
}

void LocatTuner::SeedRqaHint(std::vector<int> csq_indices) {
  if (cold_started_) return;
  prior_rqa_ = std::move(csq_indices);
}

std::vector<LocatTuner::PriorObservation> LocatTuner::ExportObservations(
    size_t cap) const {
  std::vector<size_t> ok;
  ok.reserve(observations_.size());
  for (size_t i = 0; i < observations_.size(); ++i) {
    if (!observations_[i].failed) ok.push_back(i);
  }
  std::vector<PriorObservation> out;
  if (ok.empty() || cap == 0) return out;
  const size_t n = std::min(cap, ok.size());
  out.reserve(n);
  // Even stride over the successful history: the sample spans LHS
  // exploration through reduced-space refinement instead of clustering at
  // either end.
  for (size_t k = 0; k < n; ++k) {
    const size_t i = ok[(k * ok.size()) / n];
    PriorObservation p;
    p.unit = observations_[i].unit;
    p.datasize_gb = observations_[i].datasize_gb;
    p.objective_seconds = observations_[i].objective_seconds;
    out.push_back(std::move(p));
  }
  return out;
}

void LocatTuner::ObserveExternalRun(const sparksim::ConfigSpace& space,
                                    const sparksim::SparkConf& conf,
                                    double datasize_gb,
                                    double full_app_seconds) {
  if (!cold_started_ || full_app_seconds <= 0.0) return;
  Observation obs;
  obs.unit = space.ToUnit(conf);
  obs.datasize_gb = datasize_gb;
  obs.objective_seconds = full_app_seconds * rqa_share_;
  dagp_.AddObservation(EncodeUnit(obs.unit), datasize_gb,
                       obs.objective_seconds);
  worst_objective_ = std::max(worst_objective_, obs.objective_seconds);
  observations_.push_back(std::move(obs));
}

void LocatTuner::ObserveFailedExternalRun(const sparksim::ConfigSpace& space,
                                          const sparksim::SparkConf& conf,
                                          double datasize_gb,
                                          double partial_seconds) {
  if (!cold_started_) return;
  Observation obs;
  obs.unit = space.ToUnit(conf);
  obs.datasize_gb = datasize_gb;
  obs.failed = true;
  obs.objective_seconds =
      CensoredObjective(worst_objective_,
                        std::max(0.0, partial_seconds) * rqa_share_,
                        options_.censor_margin);
  dagp_.AddObservation(EncodeUnit(obs.unit), datasize_gb,
                       obs.objective_seconds);
  observations_.push_back(std::move(obs));
  ++failed_evals_;
}

TuningResult LocatTuner::Tune(TuningSession* session, double datasize_gb) {
  const double meter_start = session->optimization_seconds();
  const int evals_start = session->evaluations();
  const int failed_start = failed_evals_;
  trajectory_.clear();
  iter_in_pass_ = 0;
  obs::ScopedSpan tune_span(tracer(), "tune", "tuner");
  tune_span.Arg("datasize_gb", datasize_gb);
  tune_span.Arg("warm", cold_started_ ? 1.0 : 0.0);

  const sparksim::ConfigSpace& space = session->space();

  if (!cold_started_) {
    // Phase A: LHS start points + BO over the full space, full app.
    {
      obs::ScopedSpan span(tracer(), "tune/lhs", "tuner");
      phase_label_ = "lhs";
      pending_relative_ei_ = 0.0;
      pending_candidate_pool_ = 0;
      pending_acq_seconds_ = 0.0;
      const math::Matrix lhs =
          ml::LatinHypercube(options_.lhs_init, sparksim::kNumParams, &rng_);
      std::vector<sparksim::SparkConf> lhs_confs;
      lhs_confs.reserve(static_cast<size_t>(options_.lhs_init));
      for (int i = 0; i < options_.lhs_init; ++i) {
        lhs_confs.push_back(
            space.Repair(space.FromUnit(lhs.Row(static_cast<size_t>(i)))));
      }
      EvaluateAndRecord(session, lhs_confs, datasize_gb, /*full_app=*/true);
    }
    {
      obs::ScopedSpan span(tracer(), "tune/qcsa-sampling", "tuner");
      phase_label_ = "qcsa";
      // QCSA/IICP need a *diverse* sample set ("random configurations",
      // Section 3.2), so two of three phase-A runs draw uniformly and
      // only the third follows the acquisition function. The random
      // draws between two acquisition steps don't depend on each other's
      // results, so they accumulate in `pending` and run together: all
      // their first attempts before any of their retries.
      std::vector<sparksim::SparkConf> pending;
      while (static_cast<int>(observations_.size() + pending.size()) <
             options_.n_qcsa) {
        pending_relative_ei_ = 0.0;
        pending_candidate_pool_ = 0;
        pending_acq_seconds_ = 0.0;
        const size_t i = observations_.size() + pending.size();
        sparksim::SparkConf conf = space.RandomValid(&rng_);
        if (i % 3 == 2) {
          // Flush the queued random runs first so the refit (and the
          // proposal) see every observation drawn so far.
          EvaluateAndRecord(session, pending, datasize_gb,
                            /*full_app=*/true);
          pending.clear();
          pending_relative_ei_ = 0.0;
          pending_candidate_pool_ = 0;
          pending_acq_seconds_ = 0.0;
          if (RefitDagp().ok()) {
            const Proposal prop = ProposeNext(session, datasize_gb);
            conf = space.Repair(space.FromUnit(prop.unit));
          }
          EvaluateAndRecord(session, {conf}, datasize_gb, /*full_app=*/true);
        } else {
          pending.push_back(std::move(conf));
        }
      }
      pending_relative_ei_ = 0.0;
      pending_candidate_pool_ = 0;
      pending_acq_seconds_ = 0.0;
      EvaluateAndRecord(session, pending, datasize_gb, /*full_app=*/true);
    }

    // Phase A': QCSA + IICP on the collected samples.
    {
      obs::ScopedSpan span(tracer(), "tune/analyze", "tuner");
      RunQcsaAndIicp(session);
    }
    cold_started_ = true;

    // Phase B: BO on the RQA in the (possibly) reduced encoding.
    obs::ScopedSpan span(tracer(), "tune/reduced", "tuner");
    phase_label_ = "reduced";
    // Transfer probes: real RQA runs of the donors' claimed-best
    // configurations. A good transfer takes over the incumbent here and
    // the candidate families below refine it; a bad one costs an
    // evaluation and the observation steers the surrogate away. Never
    // runs without priors, keeping the prior-free path byte-identical.
    if (!prior_probe_units_.empty()) {
      pending_relative_ei_ = 0.0;
      pending_candidate_pool_ = 0;
      pending_acq_seconds_ = 0.0;
      std::vector<sparksim::SparkConf> probe_confs;
      probe_confs.reserve(prior_probe_units_.size());
      for (const auto& u : prior_probe_units_) {
        probe_confs.push_back(space.Repair(space.FromUnit(u)));
      }
      EvaluateAndRecord(session, probe_confs, datasize_gb,
                        /*full_app=*/false);
    }
    int iterations = 0;
    while (iterations < options_.max_iterations) {
      exploit_only_ = iterations >= (options_.max_iterations * 3) / 5;
      if (!RefitDagp().ok()) break;
      const Proposal prop = ProposeNext(session, datasize_gb);
      if (iterations >= options_.min_iterations &&
          prop.relative_ei < options_.ei_stop) {
        break;  // Converged: expected improvement below 10%.
      }
      const sparksim::SparkConf conf =
          space.Repair(space.FromUnit(prop.unit));
      EvaluateAndRecord(session, {conf}, datasize_gb, /*full_app=*/false);
      ++iterations;
    }
  } else {
    // Warm start at a new data size: the DAGP transfers across ds.
    obs::ScopedSpan span(tracer(), "tune/warm", "tuner");
    phase_label_ = "warm";
    int iterations = 0;
    while (iterations < options_.warm_iterations) {
      if (!RefitDagp().ok()) break;
      const Proposal prop = ProposeNext(session, datasize_gb);
      if (iterations >= 3 && prop.relative_ei < options_.ei_stop) break;
      const sparksim::SparkConf conf =
          space.Repair(space.FromUnit(prop.unit));
      EvaluateAndRecord(session, {conf}, datasize_gb, /*full_app=*/false);
      ++iterations;
    }
    // The incumbent may come from another data size; re-rank the history
    // restricted to this ds (with the GP's help when it is empty).
    double best = 0.0;
    for (const auto& obs : observations_) {
      if (obs.failed) continue;
      if (obs.datasize_gb == datasize_gb &&
          (best <= 0.0 || obs.objective_seconds < best)) {
        best = obs.objective_seconds;
        best_objective_ = best;
      }
    }
  }

  // Recommend the final configuration robustly: rank evaluated points by
  // the DAGP posterior mean (standard BO practice — under noisy runs the
  // raw minimum is a winner's-curse artifact), then re-run the top few
  // once more (charged) and pick the best two-run average.
  obs::ScopedSpan recommend_span(tracer(), "tune/recommend", "tuner");
  phase_label_ = "recommend";
  pending_relative_ei_ = 0.0;
  pending_candidate_pool_ = 0;
  pending_acq_seconds_ = 0.0;
  const bool have_model = dagp_.fitted() || RefitDagp().ok();
  std::vector<std::pair<double, size_t>> ranked;
  if (have_model) {
    // One batched posterior-mean pass over this data size's history.
    const auto acq_start = std::chrono::steady_clock::now();
    std::vector<math::Vector> encoded;
    std::vector<size_t> indices;
    for (size_t i = 0; i < observations_.size(); ++i) {
      const auto& obs = observations_[i];
      if (obs.datasize_gb != datasize_gb || obs.failed) continue;
      encoded.push_back(EncodeUnit(obs.unit));
      indices.push_back(i);
    }
    if (!encoded.empty()) {
      const std::vector<double> sizes(encoded.size(), datasize_gb);
      const std::vector<Dagp::Prediction> preds =
          dagp_.PredictBatch(encoded, sizes);
      for (size_t k = 0; k < preds.size(); ++k) {
        ranked.push_back({preds[k].seconds, indices[k]});
      }
    }
    pending_acq_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      acq_start)
            .count();
  } else {
    for (size_t i = 0; i < observations_.size(); ++i) {
      const auto& obs = observations_[i];
      if (obs.datasize_gb != datasize_gb || obs.failed) continue;
      ranked.push_back({obs.objective_seconds, i});
    }
  }
  std::sort(ranked.begin(), ranked.end());
  // Re-measure the top candidates in ranked order.
  const size_t n_rerun = std::min<size_t>(ranked.size(), 3);
  double champion = 0.0;
  for (size_t r = 0; r < n_rerun; ++r) {
    const auto& obs = observations_[ranked[r].second];
    const sparksim::SparkConf conf = space.Repair(space.FromUnit(obs.unit));
    const double before = session->optimization_seconds();
    const StatusOr<EvalRecord> rec_or =
        session->EvaluateSubset(conf, datasize_gb, rqa_);
    if (!rec_or.ok()) continue;
    if (rec_or->failed) {
      // A kill during the confirmation re-run disqualifies the
      // candidate — the previously ranked observations stand.
      ++failed_evals_;
    } else {
      const double avg = 0.5 * (rec_or->app_seconds + obs.objective_seconds);
      if (champion <= 0.0 || avg < champion) {
        champion = avg;
        best_conf_ = conf;
        best_objective_ = avg;
      }
    }
    EmitIteration(datasize_gb, session->optimization_seconds() - before,
                  rec_or->app_seconds, /*full_app=*/false);
  }

  TuningResult result;
  result.tuner_name = name();
  result.best_conf = best_conf_;
  result.best_observed_seconds = best_objective_;
  result.optimization_seconds =
      session->optimization_seconds() - meter_start;
  result.evaluations = session->evaluations() - evals_start;
  result.failed_evaluations = failed_evals_ - failed_start;
  result.trajectory = trajectory_;

  tune_span.Arg("evaluations", static_cast<double>(result.evaluations));
  tune_span.Arg("optimization_seconds", result.optimization_seconds);
  tune_span.Arg("best_seconds", result.best_observed_seconds);
  if (result.failed_evaluations > 0) {
    tune_span.Arg("failed_evals",
                  static_cast<double>(result.failed_evaluations));
  }
  if (observer() != nullptr) {
    obs::PhaseEvent ev;
    ev.tuner = name();
    ev.phase = "summary";
    ev.fields = {
        {"evaluations", static_cast<double>(result.evaluations)},
        {"optimization_seconds", result.optimization_seconds},
        {"best_seconds", result.best_observed_seconds},
        {"datasize_gb", datasize_gb},
        {"failed_evals", static_cast<double>(result.failed_evaluations)},
    };
    observer()->OnPhase(ev);
  }
  return result;
}

}  // namespace locat::core
