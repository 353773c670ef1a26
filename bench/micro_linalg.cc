// Linear-algebra kernel bench: scalar backend vs the CPU's best SIMD
// backend on the primitives under the GP/KPCA hot path.
//
// For each problem size n it times, on both backends:
//   gemm cold: one n x n matrix product on freshly faulted-in operands
//              (first touch, includes dispatch init on the very first
//              call);
//   gemm warm: the same product with operands resident in cache;
//   chol:      Cholesky factorization of an SPD n x n Gram + n I;
//   gram:      ARD squared-exponential Gram construction over an
//              n x kDim dataset (batched squared distances + the shared
//              polynomial exp) — the DAGP fit inner loop;
//   fit:       one end-to-end EI-MCMC surrogate fit (cold chain).
// Wall times are minima over reps of an adaptively iterated loop
// (hand-rolled steady_clock timing; "cold" is the single first call and is reported as-is), written to
// BENCH_linalg.json.
//
// The two backends must agree bit-for-bit (checked every run on the Gram
// matrix and on every EI-MCMC ensemble member's log marginal likelihood
// and factor; the bench aborts on any mismatch). The acceptance bar is
// >= 3x on gram and >= 2x on fit at n = 120, single-core — the bench
// pins the thread pool to one worker unless --threads says otherwise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "math/cholesky.h"
#include "math/kern/kern.h"
#include "math/matrix.h"
#include "ml/ei_mcmc.h"
#include "ml/gp.h"
#include "ml/kernels.h"
#include "ml/sparse_gp.h"

namespace {

using namespace locat;
using Clock = std::chrono::steady_clock;

constexpr int kDim = 10;  // ~ IICP latent dims + data size
constexpr int kReps = 5;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Iterations so one timed loop does ~5e7 flop-equivalents: keeps every
/// measurement well above timer resolution without stretching the bench.
int Iters(double approx_flops) {
  return std::max(1, static_cast<int>(5e7 / std::max(1.0, approx_flops)));
}

/// Synthetic tuning-shaped dataset.
void MakeDataset(int n, math::Matrix* x, math::Vector* y) {
  Rng rng(1234);
  *x = math::Matrix(static_cast<size_t>(n), kDim);
  *y = math::Vector(static_cast<size_t>(n));
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    double s = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      const double v = rng.NextDouble();
      (*x)(i, j) = v;
      s += std::sin(4.0 * v + static_cast<double>(j)) / (1.0 + j);
    }
    (*y)[i] = 100.0 + 20.0 * s + 0.5 * rng.NextGaussian();
  }
}

math::Matrix RandomSquare(int n, uint64_t seed) {
  Rng rng(seed);
  math::Matrix m(static_cast<size_t>(n), static_cast<size_t>(n));
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

struct OpTimes {
  double gemm_cold_s = 0.0;
  double gemm_warm_s = 0.0;
  double chol_s = 0.0;
  double gram_s = 0.0;
  double fit_s = 0.0;
};

struct CaseResult {
  int n = 0;
  OpTimes scalar;
  OpTimes native;
  double gemm_speedup() const { return scalar.gemm_warm_s / native.gemm_warm_s; }
  double chol_speedup() const { return scalar.chol_s / native.chol_s; }
  double gram_speedup() const { return scalar.gram_s / native.gram_s; }
  double fit_speedup() const { return scalar.fit_s / native.fit_s; }
};

/// Times all ops for one size under the currently dispatched backend.
/// `gram_out` receives the Gram matrix and `fit_out` the fitted EI-MCMC
/// ensemble for the cross-backend bit checks.
OpTimes RunBackend(int n, math::Matrix* gram_out,
                   std::vector<ml::GaussianProcess>* fit_out) {
  OpTimes out;
  math::Matrix x;
  math::Vector y;
  MakeDataset(n, &x, &y);
  const ml::ArdSquaredExponentialKernel kernel(
      math::Vector(static_cast<size_t>(kDim), 0.5), 1.0);

  // GEMM, cold: freshly generated operands, first call after generation.
  {
    const math::Matrix a = RandomSquare(n, 42);
    const math::Matrix b = RandomSquare(n, 43);
    const auto t0 = Clock::now();
    const math::Matrix c = a * b;
    const auto t1 = Clock::now();
    if (!(c(0, 0) == c(0, 0))) std::abort();  // keep it observable
    out.gemm_cold_s = Seconds(t0, t1);
  }
  // GEMM, warm: same operands reused across an iterated loop.
  {
    const math::Matrix a = RandomSquare(n, 42);
    const math::Matrix b = RandomSquare(n, 43);
    const int iters = Iters(2.0 * n * n * n);
    double best = std::numeric_limits<double>::infinity();
    double sink = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      for (int it = 0; it < iters; ++it) {
        const math::Matrix c = a * b;
        sink += c(0, 0);
      }
      const auto t1 = Clock::now();
      best = std::min(best, Seconds(t0, t1) / iters);
    }
    if (!(sink == sink)) std::abort();
    out.gemm_warm_s = best;
  }
  // Cholesky of an SPD matrix (Gram + n I).
  {
    math::Matrix spd = kernel.GramMatrix(x);
    spd.AddToDiagonal(static_cast<double>(n));
    const int iters = Iters(n * n * n / 3.0);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      for (int it = 0; it < iters; ++it) {
        const auto chol = math::Cholesky::Factor(spd);
        if (!chol.ok()) std::abort();
      }
      const auto t1 = Clock::now();
      best = std::min(best, Seconds(t0, t1) / iters);
    }
    out.chol_s = best;
  }
  // Gram construction: batched weighted sqdist + vectorized exp.
  {
    const int iters = Iters(3.0 * n * n * kDim);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      for (int it = 0; it < iters; ++it) {
        *gram_out = kernel.GramMatrix(x);
      }
      const auto t1 = Clock::now();
      best = std::min(best, Seconds(t0, t1) / iters);
    }
    out.gram_s = best;
  }
  // End-to-end EI-MCMC surrogate fit (cold chain, as a tune's first refit).
  {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      ml::EiMcmc model;
      Rng rng(7);
      const auto t0 = Clock::now();
      if (!model.Fit(x, y, &rng).ok()) std::abort();
      const auto t1 = Clock::now();
      best = std::min(best, Seconds(t0, t1));
      *fit_out = model.ensemble();
    }
    out.fit_s = best;
  }
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

CaseResult RunCase(int n) {
  CaseResult out;
  out.n = n;
  math::Matrix gram_scalar;
  math::Matrix gram_native;
  std::vector<ml::GaussianProcess> fit_scalar;
  std::vector<ml::GaussianProcess> fit_native;
  math::kern::SetBackend(math::kern::Backend::kScalar);
  out.scalar = RunBackend(n, &gram_scalar, &fit_scalar);
  math::kern::SetBackend(math::kern::BestBackend());
  out.native = RunBackend(n, &gram_native, &fit_native);
  // Determinism gates: the backends must agree on every Gram bit, and on
  // every ensemble member's likelihood and factor bit.
  for (size_t i = 0; i < gram_scalar.rows(); ++i) {
    for (size_t j = 0; j < gram_scalar.cols(); ++j) {
      if (!SameBits(gram_scalar(i, j), gram_native(i, j))) {
        std::fprintf(stderr, "backend mismatch at n=%d (%zu,%zu)\n", n, i, j);
        std::abort();
      }
    }
  }
  if (fit_scalar.size() != fit_native.size()) {
    std::fprintf(stderr, "fit ensemble size mismatch at n=%d\n", n);
    std::abort();
  }
  for (size_t m = 0; m < fit_scalar.size(); ++m) {
    if (!SameBits(fit_scalar[m].LogMarginalLikelihood(),
                  fit_native[m].LogMarginalLikelihood())) {
      std::fprintf(stderr, "fit member %zu likelihood mismatch at n=%d\n", m,
                   n);
      std::abort();
    }
    const math::Matrix& ls = fit_scalar[m].factor();
    const math::Matrix& ln = fit_native[m].factor();
    for (size_t i = 0; i < ls.rows(); ++i) {
      for (size_t j = 0; j <= i; ++j) {
        if (!SameBits(ls(i, j), ln(i, j))) {
          std::fprintf(stderr, "fit member %zu factor mismatch at n=%d "
                       "(%zu,%zu)\n", m, n, i, j);
          std::abort();
        }
      }
    }
  }
  return out;
}

// ------------------------------------------------------------------
// Append & subset surrogate cases (rank-1 appends, max-min subsets)
// ------------------------------------------------------------------

constexpr int kAppendTail = 16;  // observations appended per timing run

struct IncTimes {
  double append_s = 0.0;      // one rank-1 AppendFit at history size ~n
  double refit_s = 0.0;       // full fixed-hyperparameter GP::Fit at n
  double sparse_fit_s = 0.0;  // subset selection + EI-MCMC fit on m points
};

struct IncCaseResult {
  int n = 0;
  int m = 0;  // inducing-subset size used by the sparse case
  IncTimes scalar;
  IncTimes native;
  double append_vs_refit() const { return native.append_s / native.refit_s; }
  double append_speedup() const { return scalar.append_s / native.append_s; }
  double sparse_fit_speedup() const {
    return scalar.sparse_fit_s / native.sparse_fit_s;
  }
};

/// Fits at n, then times kAppendTail successive AppendFits. Returns the
/// appended factor (lower triangle valid) via `factor_out` for the
/// cross-backend and update-vs-refit gates.
IncTimes RunIncBackend(int n, int m, const math::Matrix& x,
                       const math::Vector& y, const ml::GpHyperparams& hp,
                       math::Matrix* factor_out) {
  IncTimes out;
  const size_t un = static_cast<size_t>(n);
  math::Matrix x0(un, kDim);
  math::Vector y0(un);
  for (size_t i = 0; i < un; ++i) {
    x0.SetRow(i, x.Row(i));
    y0[i] = y[i];
  }

  // Full fixed-hyperparameter refit at n: the cost a non-incremental
  // surrogate pays per new observation once the MCMC is frozen.
  {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      ml::GaussianProcess gp;
      const auto t0 = Clock::now();
      if (!gp.Fit(x0, y0, hp).ok()) std::abort();
      const auto t1 = Clock::now();
      best = std::min(best, Seconds(t0, t1));
    }
    out.refit_s = best;
  }
  // Rank-1 appends: fit once, then absorb kAppendTail observations one at
  // a time. Per-append cost is the minimum over the tail (history size
  // stays within kAppendTail of n).
  {
    ml::GaussianProcess gp;
    if (!gp.Fit(x0, y0, hp).ok()) std::abort();
    double best = std::numeric_limits<double>::infinity();
    for (int k = 0; k < kAppendTail; ++k) {
      const size_t i = un + static_cast<size_t>(k);
      const auto t0 = Clock::now();
      if (!gp.AppendFit(x.Row(i), y[i]).ok()) std::abort();
      const auto t1 = Clock::now();
      best = std::min(best, Seconds(t0, t1));
    }
    out.append_s = best;
    if (gp.applied_jitter() != 0.0) std::abort();  // well-conditioned setup
    *factor_out = gp.factor();

    // Update-vs-refit equality gate: the appended factor must match a
    // from-scratch factorization of the full history to rounding.
    ml::GaussianProcess full;
    if (!full.Fit(x, y, hp).ok()) std::abort();
    const math::Matrix& ref = full.factor();
    for (size_t i = 0; i < ref.rows(); ++i) {
      for (size_t j = 0; j <= i; ++j) {
        const double tol = 1e-8 * std::max(1.0, std::abs(ref(i, j)));
        if (!(std::abs((*factor_out)(i, j) - ref(i, j)) <= tol)) {
          std::fprintf(stderr,
                       "append/refit factor mismatch at n=%d L(%zu,%zu)\n", n,
                       i, j);
          std::abort();
        }
      }
    }
  }
  // Subset refit: greedy max-min subset selection (seeded at the
  // incumbent) plus an EI-MCMC fast-path fit on the m subset points — the
  // whole cost of a Dagp refit past its cap, timed end to end.
  {
    size_t seed = 0;
    for (size_t i = 1; i < un; ++i) {
      if (y0[i] < y0[seed]) seed = i;
    }
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      ml::EiMcmc model;
      Rng rng(7);
      const auto t0 = Clock::now();
      const std::vector<size_t> idx =
          ml::GreedyMaxMinSubset(x0, static_cast<size_t>(m), seed);
      math::Matrix xs(idx.size(), kDim);
      math::Vector ys(idx.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        xs.SetRow(i, x0.Row(idx[i]));
        ys[i] = y0[idx[i]];
      }
      if (!model.Fit(xs, ys, &rng).ok()) std::abort();
      const auto t1 = Clock::now();
      best = std::min(best, Seconds(t0, t1));
    }
    out.sparse_fit_s = best;
  }
  return out;
}

IncCaseResult RunIncCase(int n, int m) {
  IncCaseResult out;
  out.n = n;
  out.m = m;
  math::Matrix x;
  math::Vector y;
  MakeDataset(n + kAppendTail, &x, &y);
  const ml::GpHyperparams hp = ml::GpHyperparams::Default(kDim);
  math::Matrix factor_scalar;
  math::Matrix factor_native;
  math::kern::SetBackend(math::kern::Backend::kScalar);
  out.scalar = RunIncBackend(n, m, x, y, hp, &factor_scalar);
  math::kern::SetBackend(math::kern::BestBackend());
  out.native = RunIncBackend(n, m, x, y, hp, &factor_native);
  // Determinism gate: the appended factor must agree bit-for-bit across
  // backends (lower triangle; the strict upper part is unspecified).
  for (size_t i = 0; i < factor_scalar.rows(); ++i) {
    for (size_t j = 0; j <= i; ++j) {
      if (!SameBits(factor_scalar(i, j), factor_native(i, j))) {
        std::fprintf(stderr, "append backend mismatch at n=%d (%zu,%zu)\n", n,
                     i, j);
        std::abort();
      }
    }
  }
  return out;
}

void WriteJson(const std::string& path, const std::vector<CaseResult>& cases,
               const std::vector<IncCaseResult>& inc_cases) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os.precision(6);
  os << "{\n"
     << "  \"benchmark\": \"linalg\",\n"
     << "  \"dim\": " << kDim << ",\n"
     << "  \"native_backend\": \""
     << math::kern::BackendName(math::kern::BestBackend()) << "\",\n"
     << "  \"threads\": " << common::ThreadPool::Global()->num_threads()
     << ",\n"
     << "  \"cases\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"n\": " << c.n
       << ", \"gemm_cold_scalar_s\": " << c.scalar.gemm_cold_s
       << ", \"gemm_cold_native_s\": " << c.native.gemm_cold_s
       << ", \"gemm_warm_scalar_s\": " << c.scalar.gemm_warm_s
       << ", \"gemm_warm_native_s\": " << c.native.gemm_warm_s
       << ", \"chol_scalar_s\": " << c.scalar.chol_s
       << ", \"chol_native_s\": " << c.native.chol_s
       << ", \"gram_scalar_s\": " << c.scalar.gram_s
       << ", \"gram_native_s\": " << c.native.gram_s
       << ", \"fit_scalar_s\": " << c.scalar.fit_s
       << ", \"fit_native_s\": " << c.native.fit_s
       << ", \"gemm_speedup\": " << c.gemm_speedup()
       << ", \"chol_speedup\": " << c.chol_speedup()
       << ", \"gram_speedup\": " << c.gram_speedup()
       << ", \"fit_speedup\": " << c.fit_speedup() << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"incremental_cases\": [\n";
  for (size_t i = 0; i < inc_cases.size(); ++i) {
    const IncCaseResult& c = inc_cases[i];
    os << "    {\"n\": " << c.n << ", \"m\": " << c.m
       << ", \"append_scalar_s\": " << c.scalar.append_s
       << ", \"append_native_s\": " << c.native.append_s
       << ", \"refit_scalar_s\": " << c.scalar.refit_s
       << ", \"refit_native_s\": " << c.native.refit_s
       << ", \"sparse_fit_scalar_s\": " << c.scalar.sparse_fit_s
       << ", \"sparse_fit_native_s\": " << c.native.sparse_fit_s
       << ", \"append_vs_refit\": " << c.append_vs_refit()
       << ", \"append_speedup\": " << c.append_speedup()
       << ", \"sparse_fit_speedup\": " << c.sparse_fit_speedup() << "}"
       << (i + 1 < inc_cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_linalg.json";
  int threads = 1;  // single-core by default: the acceptance bar
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }
  common::ThreadPool::SetGlobalThreads(threads);

  std::printf("native backend: %s\n",
              math::kern::BackendName(math::kern::BestBackend()));
  std::vector<CaseResult> cases;
  TablePrinter tp({"n", "gemm warm", "chol", "gram", "ei-mcmc fit"});
  for (int n : {20, 60, 120, 240}) {
    const CaseResult c = RunCase(n);
    cases.push_back(c);
    tp.AddRow({std::to_string(c.n),
               TablePrinter::Num(c.gemm_speedup(), 2) + "x",
               TablePrinter::Num(c.chol_speedup(), 2) + "x",
               TablePrinter::Num(c.gram_speedup(), 2) + "x",
               TablePrinter::Num(c.fit_speedup(), 2) + "x"});
  }
  tp.Print(std::cout);

  // Append & subset surrogate cases. m = 200 = core::Dagp::kMaxFitRows -
  // kMaxFitRows / 6, the subset a Dagp full refit fits past its cap.
  std::vector<IncCaseResult> inc_cases;
  TablePrinter itp({"n", "m", "append", "refit", "append/refit", "sparse fit"});
  for (int n : {240, 480, 960}) {
    const IncCaseResult c = RunIncCase(n, 200);
    inc_cases.push_back(c);
    itp.AddRow({std::to_string(c.n), std::to_string(c.m),
                TablePrinter::Num(c.native.append_s * 1e3, 3) + "ms",
                TablePrinter::Num(c.native.refit_s * 1e3, 3) + "ms",
                TablePrinter::Num(c.append_vs_refit(), 3),
                TablePrinter::Num(c.native.sparse_fit_s * 1e3, 3) + "ms"});
  }
  itp.Print(std::cout);
  // Acceptance gate: a rank-1 append at n=240 must cost at most 15% of a
  // full fixed-hyperparameter refit at the same size.
  if (inc_cases.front().append_vs_refit() > 0.15) {
    std::fprintf(stderr, "append/refit ratio %.3f exceeds 0.15 at n=240\n",
                 inc_cases.front().append_vs_refit());
    return 1;
  }

  WriteJson(out_path, cases, inc_cases);
  return 0;
}
