#include "ml/gp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "math/kern/kern.h"
#include "math/stats.h"

namespace locat::ml {
namespace {

constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)

// Candidates per PredictBatch block: at the tuner's n of up to ~80 rows
// the block's n x 64 k*^T (<= 40 KB) stays in L1 through the
// cross-kernel, the mean and the forward substitution.
constexpr size_t kPredictBlock = 64;

/// exp(-2 * log_l_d) per dimension — the multiplicative form of the ARD
/// lengthscales. Computing these once per kernel build (instead of one
/// exp + divide per dimension per pair) is the main cost reduction in the
/// MCMC hot path.
math::Vector KernelWeights(const GpHyperparams& hp) {
  math::Vector w(hp.log_lengthscales.size());
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = std::exp(-2.0 * hp.log_lengthscales[i]);
  }
  return w;
}

/// The original per-pair kernel evaluation: one exp + divide per
/// dimension. Retained as the reference/baseline implementation.
double ReferenceArdSqExp(const math::Vector& a, const math::Vector& b,
                         const GpHyperparams& hp) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double l = std::exp(hp.log_lengthscales[i]);
    const double d = (a[i] - b[i]) / l;
    s += d * d;
  }
  return std::exp(hp.log_signal_variance) * std::exp(-0.5 * s);
}

/// The kernel diagonal of a row of m runs: (signal + noise / m) +
/// 1e-10 / m, the noise and the 1e-10 floor averaged over the runs. With
/// m = 1 this is (signal + noise) + 1e-10 exactly.
double RowDiagonal(double sv, double noise, double m) {
  return (sv + noise / m) + 1e-10 / m;
}

void KernelDiagonal(double sv, double noise, const std::vector<double>& count,
                    std::vector<double>* diag) {
  diag->resize(count.size());
  for (size_t g = 0; g < count.size(); ++g) {
    (*diag)[g] = RowDiagonal(sv, noise, count[g]);
  }
}

/// Runs per row.
std::vector<double> RowCounts(const std::vector<size_t>& row_of,
                              size_t rows) {
  std::vector<double> count(rows, 0.0);
  for (size_t g : row_of) count[g] += 1.0;
  return count;
}

math::Matrix BuildKernelMatrix(const math::Matrix& x, const GpHyperparams& hp,
                               const std::vector<double>& count) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  const math::Vector w = KernelWeights(hp);
  const double sv = std::exp(hp.log_signal_variance);
  std::vector<double> diag;
  KernelDiagonal(sv, std::exp(hp.log_noise_variance), count, &diag);
  math::Matrix k(n, n);
  // Strict lower triangle row-batched: weighted squared distances straight
  // into row i, one vectorized exp pass over the row, then mirror.
  for (size_t i = 0; i < n; ++i) {
    double* row = k.RowData(i);
    math::kern::WeightedSquaredDistanceRows(x.RowData(0), i, d, d,
                                            x.RowData(i), w.data().data(),
                                            row);
    math::kern::ExpScaled(row, i, -0.5, sv);
    for (size_t j = 0; j < i; ++j) k(j, i) = row[j];
    row[i] = diag[i];
  }
  return k;
}

void Standardize(const math::Vector& y, math::Vector* ys, double* mean,
                 double* std) {
  *mean = math::Mean(y.data());
  *std = math::StdDev(y.data());
  if (*std < 1e-12) *std = 1.0;  // Constant targets: predict the mean.
  *ys = math::Vector(y.size());
  for (size_t i = 0; i < y.size(); ++i) (*ys)[i] = (y[i] - *mean) / *std;
}

/// `row_of` itself, or one row per run when it is empty.
std::vector<size_t> RowMap(std::span<const size_t> row_of, size_t runs) {
  std::vector<size_t> out(row_of.begin(), row_of.end());
  if (out.empty()) {
    out.resize(runs);
    for (size_t i = 0; i < runs; ++i) out[i] = i;
  }
  return out;
}

/// Folds the standardized runs `ys` onto `rows` rows. A row's sum starts
/// from its first run, so a one-run row's mean is that run's bits.
GpRowTargets FoldRuns(const math::Vector& ys, const std::vector<size_t>& row_of,
                      size_t rows) {
  GpRowTargets t;
  t.runs = ys.size();
  t.mean = math::Vector(rows);
  t.count.assign(rows, 0.0);
  for (size_t i = 0; i < ys.size(); ++i) {
    const size_t g = row_of[i];
    t.mean[g] = t.count[g] == 0.0 ? ys[i] : t.mean[g] + ys[i];
    t.count[g] += 1.0;
  }
  for (size_t g = 0; g < rows; ++g) {
    t.mean[g] = t.mean[g] / t.count[g];
    t.sum_log_count += std::log(t.count[g]);
  }
  for (size_t i = 0; i < ys.size(); ++i) {
    const double r = ys[i] - t.mean[row_of[i]];
    t.within_ss += r * r;
  }
  return t;
}

/// The log marginal likelihood of the runs from the row fit's factor and
/// weights: the row likelihood, plus the within-row correction when some
/// row holds more than one run (GpRowTargets).
double RunLogLikelihood(const math::Matrix& factor, const double* alpha,
                        const GpRowTargets& t, double noise) {
  const size_t rows = t.mean.size();
  double lml = -0.5 * math::kern::Dot(t.mean.data().data(), alpha, rows) -
               0.5 * math::FactorLogDeterminant(factor) -
               static_cast<double>(rows) * kHalfLog2Pi;
  if (t.runs > rows) {
    const double s2 = noise + 1e-10;
    const double extra = static_cast<double>(t.runs - rows);
    lml += -0.5 * (t.within_ss / s2 + t.sum_log_count + extra * std::log(s2)) -
           extra * kHalfLog2Pi;
  }
  return lml;
}

/// Lane t of the pair exponents: S_t[p] = fma chain over the coordinates
/// k == t (mod 4) in ascending k, fma(w_k, D_kp, acc) from +0, one Axpy
/// per coordinate over the coordinate-major squared differences.
void ComputeLane(const double* sqdiff, size_t npairs, size_t d,
                 const double* w, size_t t, double* lane) {
  std::fill(lane, lane + npairs, 0.0);
  for (size_t k = t; k < d; k += 4) {
    math::kern::Axpy(w[k], sqdiff + k * npairs, lane, npairs);
  }
}

/// e[p] = exp(-((S_0 + S_2) + (S_1 + S_3)) / 2) with post-scale 1, so a
/// later `signal * e[p]` is ExpScaled(-1/2, signal)'s own multiply.
void UnitKernel(const double* lanes, size_t npairs, double* e) {
  const double* s0 = lanes;
  const double* s1 = s0 + npairs;
  const double* s2 = s1 + npairs;
  const double* s3 = s2 + npairs;
  for (size_t p = 0; p < npairs; ++p) e[p] = (s0[p] + s2[p]) + (s1[p] + s3[p]);
  math::kern::ExpScaled(e, npairs, -0.5, 1.0);
}

/// Writes signal * e into the strict lower triangle of `k` (pair
/// p = i*(i-1)/2 + j, so row i reads e contiguously) and `diag[i]` onto
/// the diagonal; the upper triangle is left as it is.
void FillLowerKernel(const double* e, double sv, const double* diag,
                     math::Matrix* k) {
  const double* ei = e;
  for (size_t i = 0; i < k->rows(); ++i) {
    double* row = k->RowData(i);
    for (size_t j = 0; j < i; ++j) row[j] = sv * ei[j];
    row[i] = diag[i];
    ei += i;
  }
}

}  // namespace

bool ValidRowMap(std::span<const size_t> row_of, size_t runs, size_t rows) {
  if (row_of.empty()) return runs == rows;
  if (row_of.size() != runs) return false;
  std::vector<char> seen(rows, 0);
  for (size_t g : row_of) {
    if (g >= rows) return false;
    seen[g] = 1;
  }
  return std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; });
}

GpHyperparams GpHyperparams::Default(size_t input_dim) {
  GpHyperparams hp;
  hp.log_lengthscales = math::Vector(input_dim, std::log(0.3));
  hp.log_signal_variance = 0.0;
  hp.log_noise_variance = -4.0;
  return hp;
}

math::Vector GpHyperparams::Flatten() const {
  math::Vector flat(log_lengthscales.size() + 2);
  for (size_t i = 0; i < log_lengthscales.size(); ++i) {
    flat[i] = log_lengthscales[i];
  }
  flat[log_lengthscales.size()] = log_signal_variance;
  flat[log_lengthscales.size() + 1] = log_noise_variance;
  return flat;
}

GpHyperparams GpHyperparams::Unflatten(std::span<const double> flat) {
  GpHyperparams hp;
  const size_t d = flat.size() - 2;
  hp.log_lengthscales = math::Vector(d);
  for (size_t i = 0; i < d; ++i) hp.log_lengthscales[i] = flat[i];
  hp.log_signal_variance = flat[d];
  hp.log_noise_variance = flat[d + 1];
  return hp;
}

GpKernelCache::GpKernelCache(const math::Matrix& x, const math::Vector& y,
                             std::span<const size_t> row_of)
    : x_(x),
      y_raw_(y),
      row_of_(RowMap(row_of, y.size())),
      factor_(x.rows(), x.rows()) {
  assert(ValidRowMap(row_of, y.size(), x.rows()));
  math::Vector ys;
  Standardize(y, &ys, &y_mean_, &y_std_);
  targets_ = FoldRuns(ys, row_of_, x_.rows());
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  const size_t npairs = n * (n - 1) / 2;
  pair_sqdiff_.resize(npairs * d);
  for (size_t k = 0; k < d; ++k) {
    double* out = pair_sqdiff_.data() + k * npairs;
    for (size_t i = 0; i < n; ++i) {
      const double xik = x_(i, k);
      for (size_t j = 0; j < i; ++j) {
        const double diff = xik - x_(j, k);
        *out++ = diff * diff;
      }
    }
  }
}

math::Matrix GpKernelCache::BuildKernel(const GpHyperparams& hp) const {
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  const size_t npairs = n * (n - 1) / 2;
  const math::Vector w = KernelWeights(hp);
  const double sv = std::exp(hp.log_signal_variance);
  std::vector<double> diag;
  KernelDiagonal(sv, std::exp(hp.log_noise_variance), targets_.count, &diag);
  std::vector<double> lanes(4 * npairs);
  for (size_t t = 0; t < 4; ++t) {
    ComputeLane(pair_sqdiff_.data(), npairs, d, w.data().data(), t,
                lanes.data() + t * npairs);
  }
  std::vector<double> e(npairs);
  UnitKernel(lanes.data(), npairs, e.data());
  math::Matrix k(n, n);
  FillLowerKernel(e.data(), sv, diag.data(), &k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) k(j, i) = k(i, j);
  }
  return k;
}

bool GpKernelCache::RefreshLanes(std::span<const double> log_lengthscales) {
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  const size_t npairs = n * (n - 1) / 2;
  const bool cold = weights_.size() != d || lanes_.size() != 4 * npairs;
  if (cold) {
    log_l_.resize(d);
    weights_.resize(d);
    lanes_.assign(4 * npairs, 0.0);
    unit_kernel_.resize(npairs);
  }
  // A lane is stale when one of its coordinates' weight bits changed; a
  // coordinate whose log lengthscale kept its bits keeps its weight.
  bool stale[4] = {cold, cold, cold, cold};
  for (size_t k = 0; k < d; ++k) {
    const double v = log_lengthscales[k];
    if (!cold &&
        std::bit_cast<uint64_t>(v) == std::bit_cast<uint64_t>(log_l_[k])) {
      continue;
    }
    const double w = std::exp(-2.0 * v);  // KernelWeights' expression
    stale[k % 4] = stale[k % 4] || std::bit_cast<uint64_t>(w) !=
                                       std::bit_cast<uint64_t>(weights_[k]);
    log_l_[k] = v;
    weights_[k] = w;
  }
  bool changed = false;
  for (size_t t = 0; t < 4; ++t) {
    if (!stale[t]) continue;
    ComputeLane(pair_sqdiff_.data(), npairs, d, weights_.data(), t,
                lanes_.data() + t * npairs);
    changed = true;
  }
  return changed;
}

double GpKernelCache::LogMarginalLikelihood(std::span<const double> flat) {
  constexpr double kFailed = -std::numeric_limits<double>::infinity();
  memo_valid_ = false;
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  if (flat.size() != d + 2 || n == 0) return kFailed;
  if (RefreshLanes(flat.first(d))) {
    UnitKernel(lanes_.data(), unit_kernel_.size(), unit_kernel_.data());
  }
  const double sv = std::exp(flat[d]);
  const double noise = std::exp(flat[d + 1]);
  KernelDiagonal(sv, noise, targets_.count, &diag_);
  // Every call rewrites the whole lower triangle and nothing writes the
  // upper one, so the buffer is the zeroed-upper matrix Cholesky::Factor
  // builds.
  FillLowerKernel(unit_kernel_.data(), sv, diag_.data(), &factor_);
  jitter_ = 0.0;
  if (math::kern::CholeskyFactorInPlace(factor_.RowData(0), n) >= 0) {
    // A non-SPD pivot consumed the buffer; the jitter retries start over
    // from a rebuilt kernel (the same bits).
    auto chol = math::Cholesky::FactorWithJitter(
        BuildKernel(GpHyperparams::Unflatten(flat)));
    if (!chol.ok()) return kFailed;
    factor_ = chol->L();
    jitter_ = chol->jitter();
  }
  alpha_.assign(targets_.mean.data().begin(), targets_.mean.data().end());
  math::ForwardSubstituteInPlace(factor_, alpha_.data());
  math::BackSubstituteInPlace(factor_, alpha_.data());
  lml_ = RunLogLikelihood(factor_, alpha_.data(), targets_, noise);
  memo_key_.assign(flat.begin(), flat.end());
  memo_valid_ = true;
  return lml_;
}

std::optional<GpKernelCache::Factorization> GpKernelCache::TakeMemoized(
    std::span<const double> flat) {
  if (!memo_valid_ || !std::equal(flat.begin(), flat.end(), memo_key_.begin(),
                                  memo_key_.end())) {
    return std::nullopt;
  }
  memo_valid_ = false;
  return Factorization{math::Cholesky::FromFactor(factor_, jitter_),
                       math::Vector(alpha_), lml_};
}

Status GaussianProcess::Fit(const math::Matrix& x, const math::Vector& y,
                            const GpHyperparams& hp,
                            std::span<const size_t> row_of) {
  if (x.rows() == 0 || !ValidRowMap(row_of, y.size(), x.rows())) {
    return Status::InvalidArgument(
        "GP fit requires non-empty x and a run of y on every row");
  }
  if (hp.log_lengthscales.size() != x.cols()) {
    return Status::InvalidArgument("lengthscale dimension mismatch");
  }
  std::vector<size_t> rows = RowMap(row_of, y.size());
  auto chol = math::Cholesky::FactorWithJitter(
      BuildKernelMatrix(x, hp, RowCounts(rows, x.rows())));
  if (!chol.ok()) return chol.status();
  x_ = x;
  y_raw_ = y;
  row_of_ = std::move(rows);
  hp_ = hp;
  chol_ = std::move(chol).value();
  SolveTargets();
  FinishFit();
  return Status::OK();
}

Status GaussianProcess::Fit(const GpKernelCache& cache,
                            const GpHyperparams& hp) {
  if (hp.log_lengthscales.size() != cache.input_dim()) {
    return Status::InvalidArgument("lengthscale dimension mismatch");
  }
  x_ = cache.x();
  y_raw_ = cache.raw_y();
  row_of_ = cache.row_of();
  hp_ = hp;
  y_mean_ = cache.y_mean();
  y_std_ = cache.y_std();

  math::Matrix k = cache.BuildKernel(hp);
  auto chol = math::Cholesky::FactorWithJitter(k);
  if (!chol.ok()) return chol.status();
  chol_ = std::move(chol).value();
  alpha_ = chol_->Solve(cache.targets().mean);
  log_marginal_likelihood_ =
      RunLogLikelihood(chol_->L(), alpha_.data().data(), cache.targets(),
                       std::exp(hp.log_noise_variance));
  FinishFit();
  return Status::OK();
}

Status GaussianProcess::AdoptFit(const GpKernelCache& cache,
                                 const GpHyperparams& hp,
                                 GpKernelCache::Factorization factorization) {
  if (hp.log_lengthscales.size() != cache.input_dim()) {
    return Status::InvalidArgument("lengthscale dimension mismatch");
  }
  x_ = cache.x();
  y_raw_ = cache.raw_y();
  row_of_ = cache.row_of();
  hp_ = hp;
  y_mean_ = cache.y_mean();
  y_std_ = cache.y_std();
  chol_ = std::move(factorization.chol);
  alpha_ = std::move(factorization.alpha);
  log_marginal_likelihood_ = factorization.log_marginal_likelihood;
  FinishFit();
  return Status::OK();
}

Status GaussianProcess::AppendFit(const math::Vector& x_new, double y_new) {
  if (!fitted_) {
    return Status::FailedPrecondition("AppendFit requires a fitted GP");
  }
  if (x_new.size() != x_.cols()) {
    return Status::InvalidArgument("AppendFit dimension mismatch");
  }
  const size_t n = x_.rows();
  const size_t d = x_.cols();

  // Cross kernel row against the existing inputs, built with the exact
  // batched kernels BuildKernelMatrix uses for off-diagonal entries, so an
  // appended factor and a refit factor see bit-identical kernel values.
  math::Vector cross(n);
  math::kern::WeightedSquaredDistanceRows(x_.RowData(0), n, d, d,
                                          x_new.data().data(),
                                          inv_sq_lengthscales_.data().data(),
                                          cross.data().data());
  math::kern::ExpScaled(cross.data().data(), n, -0.5, signal_variance_);
  // The new row holds one run.
  const double diag =
      RowDiagonal(signal_variance_, std::exp(hp_.log_noise_variance), 1.0);

  // Stage the extended inputs; nothing is committed until the factor
  // extension succeeded.
  math::Matrix x_ext(n + 1, d);
  for (size_t i = 0; i < n; ++i) x_ext.SetRow(i, x_.Row(i));
  x_ext.SetRow(n, x_new);

  // AppendRow stages into fresh storage and leaves the factor untouched on
  // failure, so attempting in place is rollback-safe.
  if (!chol_->AppendRow(cross, diag).ok()) {
    // Schur completion went non-positive: the extension needs more
    // regularization than the stored jitter. Full O(n^3) fallback with the
    // escalating-jitter path on the extended kernel.
    std::vector<double> count = RowCounts(row_of_, n + 1);
    count[n] = 1.0;
    auto refactored = math::Cholesky::FactorWithJitter(
        BuildKernelMatrix(x_ext, hp_, count));
    if (!refactored.ok()) return refactored.status();
    chol_ = std::move(refactored).value();
  }

  x_ = std::move(x_ext);
  y_raw_.data().push_back(y_new);
  row_of_.push_back(n);
  SolveTargets();
  return Status::OK();
}

void GaussianProcess::SolveTargets() {
  math::Vector ys;
  Standardize(y_raw_, &ys, &y_mean_, &y_std_);
  const GpRowTargets targets = FoldRuns(ys, row_of_, x_.rows());
  alpha_ = chol_->Solve(targets.mean);
  log_marginal_likelihood_ =
      RunLogLikelihood(chol_->L(), alpha_.data().data(), targets,
                       std::exp(hp_.log_noise_variance));
}

void GaussianProcess::FinishFit() {
  inv_sq_lengthscales_ = KernelWeights(hp_);
  signal_variance_ = std::exp(hp_.log_signal_variance);
  fitted_ = true;
}

GaussianProcess::Prediction GaussianProcess::PredictReference(
    const math::Vector& x) const {
  assert(fitted_);
  const size_t n = x_.rows();
  math::Vector kstar(n);
  for (size_t i = 0; i < n; ++i) {
    kstar[i] = ReferenceArdSqExp(x, x_.Row(i), hp_);
  }

  Prediction pred;
  pred.mean = y_mean_ + y_std_ * kstar.Dot(alpha_);
  math::Vector v = kstar;
  math::ForwardSubstituteInPlace(chol_->L(), v.data().data());
  double var = ReferenceArdSqExp(x, x, hp_) - v.Dot(v);
  if (var < 0.0) var = 0.0;
  pred.variance = var * y_std_ * y_std_;
  return pred;
}

GaussianProcess::BatchPrediction GaussianProcess::PredictBatch(
    const math::Matrix& xs) const {
  assert(fitted_);
  assert(xs.cols() == x_.cols());
  const size_t m = xs.rows();
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  BatchPrediction out;
  out.mean = math::Vector(m);
  out.variance = math::Vector(m);
  if (m == 0) return out;

  const double* w = inv_sq_lengthscales_.data().data();
  const double* alpha = alpha_.data().data();
  const double ys2 = y_std_ * y_std_;
  // Per-block scratch, reused across blocks: the block's candidates
  // coordinate-major (d x b), its k*^T (n x b, solved in place into
  // V = L^-1 k*^T), the four lane accumulators of the mean, and the
  // variance's column sums of squares.
  std::vector<double> cols(d * kPredictBlock);
  std::vector<double> kt(n * kPredictBlock);
  std::vector<double> lanes(4 * kPredictBlock);
  std::vector<double> sumsq(kPredictBlock);
  for (size_t c0 = 0; c0 < m; c0 += kPredictBlock) {
    const size_t b = std::min(kPredictBlock, m - c0);
    for (size_t c = 0; c < b; ++c) {
      const double* xc = xs.RowData(c0 + c);
      for (size_t k = 0; k < d; ++k) cols[k * b + c] = xc[k];
    }
    // Row i of k*^T holds k(x_i, xs_c) for the block's candidates: the
    // weighted distance with q = x_i keeps the sign (x_i - xs_c) and lane
    // tree of a row-major WeightedSquaredDistanceRows of the training rows
    // against xs_c, and ExpScaled is lane-independent, so every entry has
    // that per-candidate k*'s bits. The mean's Dot(k*, alpha) becomes four
    // Axpy lanes, lane i % 4 taking row i in ascending i, combined with
    // Dot's (l0 + l2) + (l1 + l3).
    std::fill(lanes.begin(), lanes.begin() + 4 * b, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double* row = kt.data() + i * b;
      math::kern::WeightedSquaredDistanceCols(cols.data(), b, d,
                                              x_.RowData(i), w, row);
      math::kern::ExpScaled(row, b, -0.5, signal_variance_);
      math::kern::Axpy(alpha[i], row, lanes.data() + (i % 4) * b, b);
    }
    const double* l0 = lanes.data();
    const double* l1 = l0 + b;
    const double* l2 = l1 + b;
    const double* l3 = l2 + b;
    for (size_t c = 0; c < b; ++c) {
      const double dot = (l0[c] + l2[c]) + (l1[c] + l3[c]);
      out.mean[c0 + c] = y_mean_ + y_std_ * dot;
    }

    // var_c = k(x,x) - sum_i V(i,c)^2, the sum taken in ascending i.
    math::kern::SolveLowerMatrixInPlace(chol_->L().RowData(0), n, kt.data(),
                                        b);
    std::fill(sumsq.begin(), sumsq.begin() + b, 0.0);
    for (size_t i = 0; i < n; ++i) {
      math::kern::AddSquares(kt.data() + i * b, sumsq.data(), b);
    }
    for (size_t c = 0; c < b; ++c) {
      double var = signal_variance_ - sumsq[c];
      if (var < 0.0) var = 0.0;
      out.variance[c0 + c] = var * ys2;
    }
  }
  return out;
}

}  // namespace locat::ml
