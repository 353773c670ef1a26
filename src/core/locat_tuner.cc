#include "core/locat_tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "core/candidate_screen.h"
#include "ml/lhs.h"

namespace locat::core {
namespace {

/// The reduced-space and warm searches stop once the best candidate's
/// relative EI drops below this bound (DESIGN.md "Stop rule calibration").
constexpr double kEiStop = 0.02;
/// A run that keeps failing costs this multiple of max(worst seen,
/// partial time).
constexpr double kCensorMargin = 2.0;
/// A failed evaluation is re-run up to kMaxRetries times; the backoff
/// before retry k is charged to the meter (wasted wall clock is part of
/// the optimization cost).
constexpr int kMaxRetries = 2;
constexpr double kBackoffSeconds[kMaxRetries] = {30.0, 60.0};

/// The rows of a matrix with bitwise-equal copies folded: `rows` holds
/// each distinct row once, in first-appearance order, and `of[i]` is the
/// index in `rows` of input row i.
struct DistinctRows {
  math::Matrix rows;
  std::vector<size_t> of;
};

DistinctRows FoldRepeats(const math::Matrix& units) {
  const size_t cols = units.cols();
  DistinctRows out;
  out.rows = math::Matrix(units.rows(), cols);
  out.of.resize(units.rows());
  // Keys view the ValueBytes of `units`' rows; the hash only places
  // buckets.
  std::unordered_map<std::string_view, size_t> first;
  first.reserve(units.rows());
  size_t distinct = 0;
  for (size_t i = 0; i < units.rows(); ++i) {
    const double* row = units.RowData(i);
    const auto [it, fresh] = first.emplace(ValueBytes({row, cols}), distinct);
    if (fresh) {
      std::copy(row, row + cols, out.rows.RowData(distinct));
      ++distinct;
    }
    out.of[i] = it->second;
  }
  out.rows.ResizeRows(distinct);
  return out;
}

}  // namespace

LocatTuner::LocatTuner(Options options)
    : options_(options),
      rng_(options.seed),
      dagp_(SurrogateOptions(/*reduced=*/false)) {}

ml::EiMcmc::Options LocatTuner::SurrogateOptions(bool reduced) const {
  // Lighter MCMC for the high-dimensional pre-IICP phase keeps the cold
  // start cheap; accuracy matters most after the reduction, where the
  // latent space makes a richer ensemble affordable.
  ml::EiMcmc::Options ei;
  ei.num_hyper_samples = std::min(reduced ? 10 : 6, options_.max_hyper_samples);
  ei.burn_in = reduced ? 16 : 10;
  ei.thin = 1;
  ei.acquisition = options_.acquisition;
  return ei;
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
                               double objective, bool full_app, bool failed,
                               const Proposal* proposal) {
  const int iteration = iter_in_pass_++;
  const bool report_fit = fit_unreported_;
  fit_unreported_ = false;
  if (observer() == nullptr) return;
  double relative_ei = 0.0;
  int candidate_pool = 0;
  double acq_seconds = 0.0;
  double pred_log_mean = 0.0;
  double pred_log_sd = 0.0;
  if (proposal != nullptr) {
    relative_ei = proposal->relative_ei;
    candidate_pool = proposal->candidate_pool;
    acq_seconds = proposal->acq_seconds;
    // A failed run's objective is imputed, not observed, so there is
    // nothing to score the prediction against.
    if (!failed) {
      pred_log_mean = proposal->log_mean;
      pred_log_sd = proposal->log_sd;
    }
  }
  // Only the first event after an MCMC refit carries its cost, so sums
  // over events count each refit once.
  ml::EiMcmc::FitStats fit;
  if (report_fit) fit = dagp_.last_fit_stats();
  observer()->Emit(obs::Event(
      "iteration", name(), phase_label_,
      {{"iter", iteration},
       {"datasize_gb", datasize_gb},
       {"eval_seconds", eval_seconds},
       {"objective_seconds", objective},
       {"incumbent_seconds", best_objective_},
       {"relative_ei", relative_ei},
       {"candidate_pool", candidate_pool},
       {"full_app", full_app},
       {"dagp_fit_seconds", fit.wall_seconds},
       {"acq_seconds", acq_seconds},
       {"mcmc_ensemble", fit.ensemble_size},
       {"mcmc_density_evals", fit.sampler.density_evals},
       {"mcmc_acceptance", fit.sampler.acceptance_rate()},
       {"rqa_share", rqa_share_},
       {"rqa_queries", static_cast<int>(rqa_.size())},
       {"failed_evals", failed_evals_},
       {"pred_log_mean", pred_log_mean},
       {"pred_log_sd", pred_log_sd}}));
}

std::string LocatTuner::name() const {
  return options_.enable_iicp ? "LOCAT" : "LOCAT-AP";  // AP: all parameters
}

math::Vector LocatTuner::EncodeUnit(const math::Vector& unit) const {
  if (iicp_) return iicp_->Encode(unit);
  return unit;
}

math::Matrix LocatTuner::EncodeRows(const math::Matrix& units) const {
  if (iicp_) return iicp_->EncodeRows(units);
  return units;
}

double LocatTuner::RqaObjective(const std::vector<double>& per_query,
                                double full_seconds) const {
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
    double datasize_gb, bool full_app, const Proposal* proposal) {
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
    // A failed run may be bad luck (straggler/kill draw), so re-run it,
    // charging the backoff to the meter.
    for (int attempt = 0;
         attempt < kMaxRetries && rec_or.ok() && rec_or->failed; ++attempt) {
      session->ChargePenaltySeconds(kBackoffSeconds[attempt]);
      eval_seconds[k] += kBackoffSeconds[attempt];
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
      objective = CensoredObjective(worst_objective_, 0.0, kCensorMargin);
    } else if (rec_or->failed) {
      // Censored: the run died after the retry budget. Its true cost is
      // unknown but at least the partial time and at least as bad as the
      // worst completed run; the margin steers DAGP/EI away.
      obs.failed = true;
      objective = CensoredObjective(worst_objective_, rec_or->app_seconds,
                                    kCensorMargin);
    } else {
      // Full-app runs happen before QCSA only; RunQcsaAndIicp converts
      // their objective to the RQA scale through per_query.
      objective = rec_or->app_seconds;
      if (full_app) {
        obs.per_query.reserve(rec_or->per_query.size());
        for (const auto& q : rec_or->per_query) {
          obs.per_query.push_back(q.exec_seconds);
        }
      }
    }
    obs.objective_seconds = objective;
    const bool failed = obs.failed;
    Record(std::move(obs), &conf);
    trajectory_.push_back(best_objective_);
    EmitIteration(datasize_gb, eval_seconds[k], objective, full_app, failed,
                  proposal);
  }
}

void LocatTuner::Record(Observation obs,
                        const sparksim::SparkConf* incumbent_conf) {
  const double objective = obs.objective_seconds;
  const bool failed = obs.failed;
  dagp_.AddObservation(EncodeUnit(obs.unit), obs.datasize_gb, objective,
                       obs.unit.data());
  observations_.push_back(std::move(obs));
  if (failed) {
    ++failed_evals_;
    return;
  }
  worst_objective_ = std::max(worst_objective_, objective);
  if (incumbent_conf != nullptr &&
      (best_objective_ <= 0.0 || objective < best_objective_)) {
    best_objective_ = objective;
    best_conf_ = *incumbent_conf;
  }
}

void LocatTuner::Search(TuningSession* session, double datasize_gb,
                        int floor, int cap, bool anneal) {
  const sparksim::ConfigSpace& space = session->space();
  for (int iterations = 0; iterations < cap; ++iterations) {
    if (anneal) exploit_only_ = iterations >= (cap * 3) / 5;
    if (!RefitDagp().ok()) break;
    const Proposal prop = ProposeNext(session, datasize_gb);
    // Converged: expected improvement below the stop bound. The discarded
    // proposal emits nothing.
    if (iterations >= floor && prop.relative_ei < kEiStop) break;
    EvaluateAndRecord(session, {space.Repair(space.FromUnit(prop.unit))},
                      datasize_gb, /*full_app=*/false, &prop);
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
  // one batched prediction over the history's distinct units.
  math::Vector best_unit = space.ToUnit(best_conf_);
  if (dagp_.fitted() && !observations_.empty()) {
    // Transferred prior units compete for the anchor too: the donor's
    // optimum is exactly the region a warm start exists to reach, and the
    // incumbent-anchored local/line families are the only way the
    // proposal loop gets there (the global family is uniform noise in 38
    // dimensions). The posterior mean at a prior reflects the rescaled
    // donor objective, so a genuinely better donor region wins the anchor
    // and this app's next evaluations refine it — with real runs, which
    // then take over the incumbent. Without priors the scan is unchanged.
    const size_t rows = observations_.size() + priors_.size();
    math::Matrix units(rows, sparksim::kNumParams);
    for (size_t i = 0; i < rows; ++i) {
      units.SetRow(i, i < observations_.size()
                          ? observations_[i].unit
                          : priors_[i - observations_.size()].unit);
    }
    // A repeated run's unit scores the same as its first copy, which the
    // strict '<' scan meets first, so scanning the distinct units in
    // first-appearance order finds the same row. Encoding and prediction
    // are per row, so each distinct unit has the bits it has in the full
    // batch.
    const DistinctRows distinct = FoldRepeats(units);
    const std::vector<Dagp::Prediction> preds = dagp_.PredictBatch(
        EncodeRows(distinct.rows),
        std::vector<double>(distinct.rows.rows(), datasize_gb));
    double best_score = 0.0;
    size_t best_row = 0;
    for (size_t i = 0; i < preds.size(); ++i) {
      const double score = preds[i].seconds;
      if (best_score <= 0.0 || score < best_score) {
        best_score = score;
        best_row = i;
      }
    }
    best_unit = distinct.rows.Row(best_row);
  }

  // After IICP only the CPS-selected parameters are tuned; the rest stay
  // pinned to the incumbent's values (Section 3.3: "only tune the
  // important parameters").
  static const std::vector<int> kAllDims = [] {
    std::vector<int> dims(sparksim::kNumParams);
    for (int i = 0; i < sparksim::kNumParams; ++i) {
      dims[static_cast<size_t>(i)] = i;
    }
    return dims;
  }();
  const std::vector<int>& tuned_dims =
      iicp_ ? iicp_->selected_params() : kAllDims;

  // Three candidate families, mirroring standard BO practice:
  //   - global: uniform over the tuned dimensions (exploration);
  //   - local: perturb a random ~30% subset of tuned dimensions around the
  //     incumbent (basin descent);
  //   - line: move a single tuned dimension to a fresh value (cliff
  //     parameters like memoryOverhead respond to coordinate moves).
  const bool have_incumbent = best_objective_ > 0.0;

  // Generate the whole pool first (sequentially — candidate generation is
  // where the RNG stream lives), then encode and score every survivor in
  // one batch. Each candidate is round-tripped through the configuration
  // space so it is a *valid* configuration (Section 5.12 constraints),
  // written straight into the next pool row. Near-duplicates of this data
  // size's observations are dropped before scoring (re-running an
  // evaluated configuration wastes a cluster run and starves QCSA/IICP of
  // sample diversity), and so are bit-identical copies of an earlier pool
  // member: a copy's EI has the first copy's bits, so the strict-'>' scan
  // below could never pick it. Survivors are the leading rows of `pool`;
  // a dropped row is overwritten by the next candidate.
  //
  // A candidate is the anchor (`best_unit`) with some tuned coordinates
  // moved, so the anchor's round trip (`base`) is computed once, and a
  // candidate recomputes only the coordinates it moved, plus the coupled
  // resource parameters when it moved one of them (DESIGN.md "Candidate
  // generation"). `moved` marks the coordinates whose round trip differs
  // from `base`, which is all the near-duplicate screen needs to know.
  constexpr size_t dim = static_cast<size_t>(sparksim::kNumParams);
  const double* anchor = best_unit.data().data();
  double base[dim];
  space.ToUnit(space.Repair(space.FromUnit(best_unit)), base);
  NearDuplicateScreen screen(base, dim, observations_.size());
  for (const auto& obs : observations_) {
    if (obs.datasize_gb == datasize_gb) {
      screen.AddObservation(obs.unit.data().data());
    }
  }
  const size_t candidates = static_cast<size_t>(options_.candidates);
  math::Matrix pool(candidates, dim);
  RowSet pool_rows(candidates, dim);
  // The candidate's unit at the coupled parameters, the only entries
  // RoundTripCoupled reads; reset to the anchor's after each use.
  double unit[dim];
  std::copy(anchor, anchor + dim, unit);
  size_t pool_size = 0;
  for (size_t c = 0; c < candidates; ++c) {
    double* row = pool.RowData(pool_size);
    std::copy(base, base + dim, row);
    uint64_t moved = 0;
    bool coupled = false;
    const auto move = [&](int d, double u) {
      if (sparksim::ConfigSpace::Coupled(d)) {
        unit[d] = u;
        coupled = true;
        return;
      }
      row[d] = space.RoundTripCoord(d, u);
      moved |= static_cast<uint64_t>(row[d] != base[d]) << d;
    };
    int family = have_incumbent ? static_cast<int>(c % 3) : 1;
    // Late in the reduced phase, stop proposing global jumps: anneal to
    // local refinement around the incumbent.
    if (exploit_only_ && family == 1) family = (c % 2 == 0) ? 0 : 2;
    if (family == 0) {
      for (int d : tuned_dims) {
        if (rng_.Bernoulli(0.3)) {
          move(d,
               std::clamp(anchor[d] + rng_.Gaussian(0.0, 0.08), 0.0, 1.0));
        }
      }
    } else if (family == 1) {
      for (int d : tuned_dims) move(d, rng_.NextDouble());
    } else {
      const int d = tuned_dims[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(tuned_dims.size()) - 1))];
      move(d, rng_.NextDouble());
    }
    if (coupled) {
      space.RoundTripCoupled(unit, row);
      for (const sparksim::ParamId d : sparksim::ConfigSpace::kCoupledParams) {
        moved |= static_cast<uint64_t>(row[d] != base[d]) << d;
        unit[d] = anchor[d];
      }
    }
    if (screen.Near(row, moved)) continue;
    if (pool_rows.Insert(pool.RowData(0), pool_size)) ++pool_size;
  }
  pool.ResizeRows(pool_size);

  // The first maximum in generation order wins; a pool of more than 64
  // rows is screened by the newest ensemble member first (DESIGN.md
  // "Screened acquisition").
  Proposal best;
  ml::EiMcmc::Pick pick;
  if (pool_size > 0) {
    pick = iicp_ ? dagp_.PickCandidate(iicp_->EncodeRows(pool), datasize_gb)
                 : dagp_.PickCandidate(pool, datasize_gb);
  }
  if (pick.row == ml::EiMcmc::kNoRow || pick.value < 0.0) {
    // Nothing to pick (every candidate was a duplicate, or no value was
    // a number >= 0): fall back to a fresh random point.
    best.unit = session->space().RandomValidUnit(&rng_);
    best.relative_ei = 1.0;
  } else {
    best.unit = pool.Row(pick.row);
    best.relative_ei = 1.0 - std::exp(-std::max(0.0, pick.value));
    best.log_mean = pick.mean;
    best.log_sd = std::sqrt(pick.variance);
  }
  best.candidate_pool = static_cast<int>(pool_size);
  best.acq_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - acq_start)
                         .count();
  return best;
}

void LocatTuner::RunQcsaAndIicp(TuningSession* session) {
  const int num_queries = session->app().num_queries();

  // --- QCSA on the first N_QCSA full-app runs (matrix S, equation (2)).
  // Failed runs never contribute: their per_query is empty (or truncated
  // at the kill), so the CV computation sees only completed samples.
  std::vector<std::vector<double>> times(static_cast<size_t>(num_queries));
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
  bool iicp_transferred = false;
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
    auto iicp = Iicp::Run(confs, ts, tracer());
    if (iicp.ok()) {
      iicp_ = std::make_shared<const IicpResult>(std::move(iicp).value());
    } else if (!priors_.empty() && prior_iicp_ != nullptr) {
      // A warm start's third-of-budget schedule can fall below IICP's
      // 4-sample floor. The transferred reduction then stands in, so BO
      // (and every EI-MCMC refit) stays in the latent space instead of
      // marginalizing hyperparameters over all 38 parameters.
      iicp_ = prior_iicp_;
      iicp_transferred = true;
    }
  }

  double rqa_ratio_sum = 0.0;
  int rqa_ratio_count = 0;
  // --- Objectives change (full app -> RQA) and so may the encoding:
  // rebuild the DAGP from the re-encoded history. When IICP produced a
  // low-dimensional latent space, the EI-MCMC ensemble can afford to be
  // richer than in the 38-dimensional phase A; without the reduction the
  // light options stay (a rich MCMC over 38 lengthscales costs minutes
  // per refit and is exactly what IICP exists to avoid).
  dagp_ = Dagp(SurrogateOptions(/*reduced=*/iicp_ != nullptr));
  // The reassignment dropped the observability wiring; restore it.
  dagp_.SetObservability(obs_.tracer, obs_.metrics);
  for (auto& obs : observations_) {
    if (!obs.per_query.empty()) {
      // Phase-A observations stored the full-app time; per_query converts
      // them to the RQA objective (CSQ times + submit overhead).
      const double full_seconds = obs.objective_seconds;
      obs.objective_seconds = RqaObjective(obs.per_query, full_seconds);
      double sum_all = 0.0;
      for (double t : obs.per_query) sum_all += t;
      if (sum_all > 0.0) {
        rqa_ratio_sum +=
            obs.objective_seconds / (sum_all + (full_seconds - sum_all));
        ++rqa_ratio_count;
      }
    }
    dagp_.AddObservation(EncodeUnit(obs.unit), obs.datasize_gb,
                         obs.objective_seconds, obs.unit.data());
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
      for (const auto& p : priors_) {
        dagp_.AddObservation(EncodeUnit(p.unit), p.datasize_gb,
                             p.objective_seconds * factor, p.unit.data());
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

  if (qcsa_) {
    obs::EmitPhase(observer(), name(), "qcsa",
                   {{"csq", static_cast<double>(qcsa_->csq_indices.size())},
                    {"ciq", static_cast<double>(qcsa_->ciq_indices.size())},
                    {"threshold", qcsa_->threshold},
                    {"rqa_share", rqa_share_}});
  }
  if (iicp_) {
    obs::EmitPhase(
        observer(), name(), "iicp",
        {{"selected_params",
          static_cast<double>(iicp_->selected_params().size())},
         {"latent_dim", static_cast<double>(iicp_->latent_dim())},
         {"transferred", iicp_transferred ? 1.0 : 0.0}});
  }
}

void LocatTuner::SeedPriorObservations(std::vector<PriorObservation> priors) {
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
  // The transferred surrogate (plus the probe runs of the donors' best
  // configurations) stands in for most of the cold-start samples: cut
  // the QCSA sampling budget to a third (never below the LHS points) and
  // the reduced-space floor/cap likewise.
  options_.n_qcsa = std::max(options_.lhs_init, options_.n_qcsa / 3);
  options_.min_iterations = std::max(1, options_.min_iterations / 3);
  options_.max_iterations =
      std::max(options_.min_iterations, options_.max_iterations / 3);
}

void LocatTuner::SeedTransferHint(TransferHint hint) {
  if (cold_started_) return;
  prior_rqa_ = std::move(hint.csq_indices);
  prior_iicp_ = std::move(hint.iicp);
}

LocatTuner::TransferHint LocatTuner::ExportTransferHint() const {
  TransferHint hint;
  if (qcsa_) hint.csq_indices = qcsa_->csq_indices;
  hint.iicp = iicp_;
  return hint;
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
  Record(std::move(obs), /*incumbent_conf=*/nullptr);
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
                        kCensorMargin);
  Record(std::move(obs), /*incumbent_conf=*/nullptr);
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
      const math::Matrix lhs =
          ml::LatinHypercube(options_.lhs_init, sparksim::kNumParams, &rng_);
      std::vector<sparksim::SparkConf> lhs_confs;
      lhs_confs.reserve(static_cast<size_t>(options_.lhs_init));
      for (int i = 0; i < options_.lhs_init; ++i) {
        lhs_confs.push_back(
            space.Repair(space.FromUnit(lhs.Row(static_cast<size_t>(i)))));
      }
      EvaluateAndRecord(session, lhs_confs, datasize_gb, /*full_app=*/true,
                        /*proposal=*/nullptr);
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
        const size_t i = observations_.size() + pending.size();
        sparksim::SparkConf conf = space.RandomValid(&rng_);
        if (i % 3 == 2) {
          // Flush the queued random runs first so the refit (and the
          // proposal) see every observation drawn so far.
          EvaluateAndRecord(session, pending, datasize_gb,
                            /*full_app=*/true, /*proposal=*/nullptr);
          pending.clear();
          std::optional<Proposal> prop;
          if (RefitDagp().ok()) {
            prop = ProposeNext(session, datasize_gb);
            conf = space.Repair(space.FromUnit(prop->unit));
          }
          EvaluateAndRecord(session, {conf}, datasize_gb, /*full_app=*/true,
                            prop ? &*prop : nullptr);
        } else {
          pending.push_back(std::move(conf));
        }
      }
      EvaluateAndRecord(session, pending, datasize_gb, /*full_app=*/true,
                        /*proposal=*/nullptr);
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
      std::vector<sparksim::SparkConf> probe_confs;
      probe_confs.reserve(prior_probe_units_.size());
      for (const auto& u : prior_probe_units_) {
        probe_confs.push_back(space.Repair(space.FromUnit(u)));
      }
      EvaluateAndRecord(session, probe_confs, datasize_gb,
                        /*full_app=*/false, /*proposal=*/nullptr);
    }
    Search(session, datasize_gb, options_.min_iterations,
           options_.max_iterations, /*anneal=*/true);
  } else {
    // Warm start at a new data size: the DAGP transfers across ds.
    obs::ScopedSpan span(tracer(), "tune/warm", "tuner");
    phase_label_ = "warm";
    Search(session, datasize_gb, /*floor=*/3, options_.warm_iterations,
           /*anneal=*/false);
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
  const bool have_model = dagp_.fitted() || RefitDagp().ok();
  std::vector<std::pair<double, size_t>> ranked;
  // The ranking pass is this phase's acquisition; its wall time goes on
  // the first re-run event only.
  Proposal ranking;
  const Proposal* unreported = &ranking;
  if (have_model) {
    // One batched posterior-mean pass over this data size's distinct
    // units, fanned out to every run.
    const auto acq_start = std::chrono::steady_clock::now();
    std::vector<size_t> indices;
    for (size_t i = 0; i < observations_.size(); ++i) {
      const auto& obs = observations_[i];
      if (obs.datasize_gb != datasize_gb || obs.failed) continue;
      indices.push_back(i);
    }
    if (!indices.empty()) {
      math::Matrix units(indices.size(), sparksim::kNumParams);
      for (size_t k = 0; k < indices.size(); ++k) {
        units.SetRow(k, observations_[indices[k]].unit);
      }
      const DistinctRows distinct = FoldRepeats(units);
      const std::vector<Dagp::Prediction> preds = dagp_.PredictBatch(
          EncodeRows(distinct.rows),
          std::vector<double>(distinct.rows.rows(), datasize_gb));
      for (size_t k = 0; k < indices.size(); ++k) {
        ranked.push_back({preds[distinct.of[k]].seconds, indices[k]});
      }
    }
    ranking.acq_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - acq_start)
                              .count();
  } else {
    for (size_t i = 0; i < observations_.size(); ++i) {
      const auto& obs = observations_[i];
      if (obs.datasize_gb != datasize_gb || obs.failed) continue;
      ranked.push_back({obs.objective_seconds, i});
    }
  }
  std::sort(ranked.begin(), ranked.end());
  // Re-measure the top three distinct configurations in ranked order. The
  // runs of one configuration rank side by side (served configurations
  // are reported many times), and re-running one of them again would
  // spend the confirmation budget on a candidate already in the list.
  std::vector<std::string_view> remeasured;
  double champion = 0.0;
  for (size_t r = 0; r < ranked.size() && remeasured.size() < 3; ++r) {
    const auto& obs = observations_[ranked[r].second];
    const std::string_view unit = ValueBytes(obs.unit.data());
    if (std::find(remeasured.begin(), remeasured.end(), unit) !=
        remeasured.end()) {
      continue;
    }
    remeasured.push_back(unit);
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
                  rec_or->app_seconds, /*full_app=*/false, rec_or->failed,
                  unreported);
    unreported = nullptr;
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
  obs::EmitPhase(
      observer(), name(), "summary",
      {{"evaluations", result.evaluations},
       {"optimization_seconds", result.optimization_seconds},
       {"best_seconds", result.best_observed_seconds},
       {"datasize_gb", datasize_gb},
       {"failed_evals", result.failed_evaluations}});
  // Nothing reads the ensemble before the next tune: an idle tuner keeps
  // the history and the chain, not ~10 n x n factors. The next tune's
  // first refit is a full one that continues the chain.
  dagp_.DropEnsemble();
  return result;
}

}  // namespace locat::core
