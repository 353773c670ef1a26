#ifndef LOCAT_CORE_LOCAT_TUNER_H_
#define LOCAT_CORE_LOCAT_TUNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dagp.h"
#include "core/iicp.h"
#include "core/qcsa.h"
#include "core/tuning.h"
#include "ml/ei_mcmc.h"

namespace locat::core {

/// The LOCAT auto-tuner (Figure 3): BO with a Datasize-Aware GP, QCSA
/// query reduction, and IICP parameter reduction.
///
/// Cold start (first Tune call):
///   1. 3 Latin-Hypercube start points, then BO iterations over the full
///      38-parameter space, running the full application — these runs
///      double as the N_QCSA/N_IICP sample set (Section 5.1/5.3: LOCAT
///      does not collect extra samples; it reuses the BO executions).
///   2. After N_QCSA runs: QCSA removes configuration-insensitive queries;
///      subsequent evaluations execute only the RQA.
///   3. IICP (on the first N_IICP samples): CPS Spearman filter + CPE
///      Gaussian-KPCA produce a low-dimensional encoding; the DAGP history
///      is re-encoded and BO continues in the latent space.
///   4. Stop once >= min_iterations reduced-space iterations ran and the
///      best candidate's relative EI drops below a fixed bound (2%, not
///      the paper's 10%; see DESIGN.md "Stop rule calibration").
///
/// Warm start (later Tune calls with a different data size): the DAGP
/// already models t = f(conf, ds), so only warm_iterations RQA runs at the
/// new size are needed — the paper's online data-size adaptation.
/// Between tunes the tuner keeps the history and the EI-MCMC chain but
/// frees the fitted ensemble; a warm start's first refit rebuilds it,
/// continuing the chain.
class LocatTuner : public Tuner {
 public:
  struct Options {
    int n_qcsa = 30;
    int n_iicp = 20;
    int lhs_init = 3;
    /// Reduced-space iteration floor and cap; the EI stop rule ends the
    /// search between them.
    int min_iterations = 25;
    int max_iterations = 55;
    /// Candidate pool per BO iteration.
    int candidates = 900;
    /// Iteration cap when re-tuning for a new data size (warm start).
    int warm_iterations = 12;
    uint64_t seed = 1;
    /// Ablation switch: Figure 15's "AP" variant sets enable_iicp = false
    /// and keeps all 38 parameters.
    bool enable_iicp = true;
    /// Acquisition rule averaged over the EI-MCMC ensemble (Section 2.2's
    /// comparison in bench/ablation_acquisition).
    ml::AcquisitionKind acquisition = ml::AcquisitionKind::kExpectedImprovement;
    /// Cap (>= 1) on the EI-MCMC ensemble: it holds min(6, cap) GPs
    /// before IICP and min(10, cap) after it; 1 is a single fit.
    int max_hyper_samples = 10;

    Options() {}
  };

  explicit LocatTuner(Options options = Options());

  std::string name() const override;
  TuningResult Tune(TuningSession* session, double datasize_gb) override;
  void SetObservability(const obs::ObsContext& obs) override;

  /// One transferable observation: a full-space unit configuration, the
  /// data size it ran at and the objective it achieved. This is the
  /// currency of cross-application warm starts — unit coordinates are
  /// app-independent, so observations harvested from one tuner can seed
  /// another app's surrogate.
  struct PriorObservation {
    math::Vector unit;              // full 38-dim unit configuration
    double datasize_gb = 0.0;
    double objective_seconds = 0.0;
  };

  /// Seeds the DAGP with observations transferred from other (similar)
  /// applications BEFORE the cold start — the retrieval-augmented warm
  /// start of ROADMAP item 1. The priors enter the surrogate only (never
  /// the incumbent, QCSA/IICP statistics or the trajectory), and only at
  /// the QCSA/IICP rebuild, rescaled (median-to-median, anchored at the
  /// donor data size nearest this tune's size) to this app's objective
  /// level so the two scales never mix. The donor's claimed-best
  /// configuration additionally gets one real probe run right after the
  /// rebuild, so a good transfer immediately becomes the incumbent. The
  /// cold start runs a reduced schedule: a third of the QCSA sampling
  /// budget and of the reduced-space iteration floor/cap, because the
  /// transferred surrogate stands in for the missing samples. Entries with
  /// a non-positive objective or a wrong dimension are dropped. Calls after
  /// the cold start (or with nothing valid to seed) are no-ops, so a
  /// tuner that never receives priors behaves byte-identically to one
  /// where this method does not exist.
  void SeedPriorObservations(std::vector<PriorObservation> priors);

  /// What one app's tune hands another app's warm start besides
  /// observations: the configuration-sensitive query set (QCSA) and the
  /// parameter reduction (IICP). Both are properties of the application's
  /// queries and cost surface, and the donor estimated them from a full
  /// sampling budget. A warm start's shrunken schedule cannot: a third of
  /// the QCSA budget is too few samples for the CV ranking to mean
  /// anything, and under small budgets it falls below IICP's 4-sample
  /// floor, which would leave BO in the full 38-dimensional space.
  struct TransferHint {
    std::vector<int> csq_indices;
    /// Shared and immutable: one reduction can serve any number of
    /// recipients at once (encoding is read-only).
    std::shared_ptr<const IicpResult> iicp;
  };

  /// Seeds the transfer hint from a donor app (or this app's own
  /// pre-eviction history). When priors were seeded, the cold start
  /// adopts the hinted CSQ indices as the RQA instead of its own QCSA
  /// estimate, and the hinted reduction when its own IICP run fails;
  /// a successful local IICP always wins. Out-of-range indices are
  /// dropped; an empty hint, or a call after the cold start, is a no-op.
  void SeedTransferHint(TransferHint hint);

  /// This tuner's hint for others: its QCSA CSQ indices and the IICP
  /// reduction it searches in (empty/null before the cold start).
  TransferHint ExportTransferHint() const;

  /// Exports up to `cap` successful observations (evenly strided over the
  /// history so the sample spans the whole search, most representative
  /// first-to-last) for transfer to another application's warm start.
  /// Failed/censored observations are never exported.
  std::vector<PriorObservation> ExportObservations(size_t cap) const;

  /// Number of observations recorded so far (successful + censored).
  size_t num_observations() const { return observations_.size(); }

  /// True once prior observations were seeded (and will shape the cold
  /// start).
  bool warm_started() const { return !priors_.empty(); }

  /// Feeds an already-executed production run into the DAGP (the online
  /// path: production runs are free observations). The full-application
  /// time is converted to the RQA-equivalent objective via the CSQ share
  /// estimated during the cold start; before the cold start the call is a
  /// no-op.
  void ObserveExternalRun(const sparksim::ConfigSpace& space,
                          const sparksim::SparkConf& conf,
                          double datasize_gb, double full_app_seconds);

  /// Feeds a *failed* production run into the DAGP: the config gets the
  /// censored penalty cost (worst-seen x margin, at least the partial
  /// time observed) so the model steers away from the region. No-op
  /// before the cold start.
  void ObserveFailedExternalRun(const sparksim::ConfigSpace& space,
                                const sparksim::SparkConf& conf,
                                double datasize_gb,
                                double partial_seconds = 0.0);

  /// Cumulative evaluations that ended failed (after retries), across all
  /// Tune passes and external reports.
  int failed_evaluations() const { return failed_evals_; }

  /// Introspection for benches/tests; null before the cold start finishes
  /// the respective phase.
  const QcsaResult* qcsa_result() const {
    return qcsa_ ? &*qcsa_ : nullptr;
  }
  const IicpResult* iicp_result() const { return iicp_.get(); }
  /// Query indices the RQA executes (all queries before QCSA or when it
  /// fails).
  const std::vector<int>& rqa_indices() const { return rqa_; }
  /// The surrogate: every recorded run, keyed by its unit configuration
  /// and data size (repeated runs share a GP row).
  const Dagp& dagp() const { return dagp_; }

 private:
  struct Observation {
    math::Vector unit;                // full 38-dim unit configuration
    double datasize_gb = 0.0;
    double objective_seconds = 0.0;   // RQA-equivalent objective, or the
                                      // censored penalty when failed
    std::vector<double> per_query;    // successful full-app runs only
    bool failed = false;              // run died even after retries
  };

  /// Encoded representation for the DAGP (latent after IICP, identity
  /// before).
  math::Vector EncodeUnit(const math::Vector& unit) const;
  /// EncodeUnit of every row of `units` (rows x 38) in one batch.
  math::Matrix EncodeRows(const math::Matrix& units) const;

  /// The next configuration, chosen by maximizing EI over a candidate
  /// pool, with the telemetry of that acquisition for the evaluation it
  /// produces to report.
  struct Proposal {
    math::Vector unit;
    double relative_ei = 0.0;
    int candidate_pool = 0;    // pool rows after dedup (before the screen)
    double acq_seconds = 0.0;  // wall clock of the whole proposal
    /// The ensemble's predictive mean and standard deviation of
    /// ln(objective seconds) at `unit`; 0 for a random fallback.
    double log_mean = 0.0;
    double log_sd = 0.0;
  };
  Proposal ProposeNext(TuningSession* session, double datasize_gb);

  /// Evaluates each configuration (full app or RQA depending on phase),
  /// first attempts in order and then, per configuration in order, the
  /// failure-aware tail: retries within the retry budget (backoff charged
  /// to the meter), a censored cost when it keeps failing, Record, the
  /// trajectory and telemetry. `proposal` is the acquisition that produced
  /// the (single) configuration, or null for LHS, random and probe runs.
  void EvaluateAndRecord(TuningSession* session,
                         const std::vector<sparksim::SparkConf>& confs,
                         double datasize_gb, bool full_app,
                         const Proposal* proposal);

  /// Appends one observation to the history and the DAGP. A failed one
  /// counts towards failed_evaluations(); a successful one moves the
  /// censored-cost anchor and, when `incumbent_conf` is set (this tuner's
  /// own runs, never external reports), may become the incumbent.
  void Record(Observation obs, const sparksim::SparkConf* incumbent_conf);

  /// The BO loop on the RQA: refit, propose, stop once at least `floor`
  /// iterations ran and the relative EI is below the stop bound, evaluate;
  /// at most `cap` iterations. `anneal` (the reduced phase) drops global
  /// candidates from 3/5 of the cap on; without it the proposals keep
  /// whatever the cold start left.
  void Search(TuningSession* session, double datasize_gb, int floor, int cap,
              bool anneal);

  /// RQA-equivalent objective of a full-app run: CSQ query times plus the
  /// submit overhead share.
  double RqaObjective(const std::vector<double>& per_query,
                      double full_seconds) const;

  void RunQcsaAndIicp(TuningSession* session);

  /// EI-MCMC settings of the DAGP before IICP (`reduced` false) and after
  /// a successful IICP reduction.
  ml::EiMcmc::Options SurrogateOptions(bool reduced) const;

  /// Refits the DAGP and, when the refit ran EI-MCMC (not appends), marks
  /// its FitStats for the next emitted iteration event.
  Status RefitDagp();

  /// Sends one "iteration" event for a just-charged evaluation, with the
  /// acquisition telemetry of `proposal` (zeros when null; its prediction
  /// also reads 0 when the run `failed`); no-op without an observer (the
  /// event is not even built).
  void EmitIteration(double datasize_gb, double eval_seconds,
                     double objective, bool full_app, bool failed,
                     const Proposal* proposal);

  Options options_;
  Rng rng_;
  bool cold_started_ = false;
  /// Transferred observations (cross-app warm start). They live in the
  /// DAGP only — never in observations_, so the incumbent, trajectory,
  /// QCSA/IICP statistics and duplicate checks see exclusively this
  /// app's own runs.
  std::vector<PriorObservation> priors_;
  /// The donors' claimed-best units (lowest prior objectives at the
  /// anchor data size, pairwise-diverse); probed with real evaluations
  /// right after the QCSA/IICP rebuild so a genuinely good transfer
  /// immediately becomes the incumbent the reduced-space families refine.
  /// Several diverse probes instead of the single best: a tuned donor
  /// configuration often sits at a resource-efficiency edge (tight
  /// memory overhead), and the recipient's slightly different profile
  /// can push exactly that point into failure. Empty without priors.
  std::vector<math::Vector> prior_probe_units_;
  /// Transferred CSQ indices and reduction (see SeedTransferHint); the
  /// rebuild adopts them when priors were seeded.
  std::vector<int> prior_rqa_;
  std::shared_ptr<const IicpResult> prior_iicp_;
  std::optional<QcsaResult> qcsa_;
  /// Null until a reduction exists (own IICP run or adopted hint).
  std::shared_ptr<const IicpResult> iicp_;
  std::vector<int> rqa_;
  Dagp dagp_;
  std::vector<Observation> observations_;
  sparksim::SparkConf best_conf_;
  double best_objective_ = 0.0;
  /// Worst *successful* objective seen (censored-cost anchor).
  double worst_objective_ = 0.0;
  int failed_evals_ = 0;
  bool exploit_only_ = false;
  double rqa_share_ = 1.0;  // mean RQA/full-app time ratio (cold start)
  std::vector<double> trajectory_;

  // Telemetry context for the next EmitIteration. Plain stores, updated
  // regardless of whether an observer is wired (they never feed back into
  // the search), so the disabled path stays branch-free.
  const char* phase_label_ = "lhs";
  int iter_in_pass_ = 0;
  /// Set by an MCMC refit, cleared by the next EmitIteration.
  bool fit_unreported_ = false;
};

}  // namespace locat::core

#endif  // LOCAT_CORE_LOCAT_TUNER_H_
