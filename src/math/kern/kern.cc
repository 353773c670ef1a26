#include "math/kern/kern.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "math/kern/kern_impl.h"
#include "math/kern/kern_ops.h"

namespace locat::math::kern {
namespace {

const KernOps* OpsFor(Backend b) {
  switch (b) {
#if defined(__x86_64__) || defined(_M_X64)
    case Backend::kAvx2:
      return Avx2Ops();
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      return NeonOps();
#endif
    default:
      return ScalarOps();
  }
}

/// Initial dispatch level from LOCAT_SIMD. Runs once, thread-safe via the
/// function-local static in BackendSlot().
Backend InitialBackend() {
  const char* env = std::getenv("LOCAT_SIMD");
  if (env == nullptr || *env == '\0') return BestBackend();
  const std::string v(env);
  if (v == "off" || v == "scalar") return Backend::kScalar;
  if (v != "native") {
    std::fprintf(stderr,
                 "locat: ignoring invalid LOCAT_SIMD=%s "
                 "(expected off|scalar|native); using native\n",
                 env);
  }
  return BestBackend();
}

// Two slots instead of one 16-byte atomic (which would drag in libatomic
// on some toolchains). They are only ever set together under SetBackend;
// a racing reader can at worst pair the old name with the new table, and
// both tables compute identical bits anyway.
std::atomic<Backend>& BackendSlot() {
  static std::atomic<Backend> slot(InitialBackend());
  return slot;
}

std::atomic<const KernOps*>& OpsSlot() {
  static std::atomic<const KernOps*> slot(
      OpsFor(BackendSlot().load(std::memory_order_relaxed)));
  return slot;
}

const KernOps& Ops() { return *OpsSlot().load(std::memory_order_acquire); }

}  // namespace

Backend BestBackend() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend::kAvx2;
  }
  return Backend::kScalar;
#elif defined(__aarch64__)
  return Backend::kNeon;
#else
  return Backend::kScalar;
#endif
}

bool BackendAvailable(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Backend ActiveBackend() {
  return BackendSlot().load(std::memory_order_acquire);
}

void SetBackend(Backend b) {
  assert(BackendAvailable(b));
  OpsSlot().store(OpsFor(b), std::memory_order_release);
  BackendSlot().store(b, std::memory_order_release);
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

const char* ActiveBackendName() { return BackendName(ActiveBackend()); }

double Dot(const double* a, const double* b, size_t n) {
  return Ops().dot(a, b, n);
}

double Sum(const double* x, size_t n) { return Ops().sum(x, n); }

double SquaredDistance(const double* a, const double* b, size_t n) {
  return Ops().sqdist(a, b, n);
}

double WeightedSquaredDistance(const double* a, const double* b,
                               const double* w, size_t n) {
  return Ops().wsqdist(a, b, w, n);
}

void MatVecRowMajor(const double* m, size_t rows, size_t cols,
                    const double* v, double* out) {
  Ops().matvec(m, rows, cols, v, out);
}

void SquaredDistanceRows(const double* rows, size_t nrows, size_t dim,
                         size_t stride, const double* q, double* out) {
  Ops().sqdist_rows(rows, nrows, dim, stride, q, out);
}

void WeightedSquaredDistanceRows(const double* rows, size_t nrows, size_t dim,
                                 size_t stride, const double* q,
                                 const double* w, double* out) {
  Ops().wsqdist_rows(rows, nrows, dim, stride, q, w, out);
}

void WeightedSquaredDistanceCols(const double* cols, size_t m, size_t dim,
                                 const double* q, const double* w,
                                 double* out) {
  Ops().wsqdist_cols(cols, m, dim, q, w, out);
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  Ops().axpy(alpha, x, y, n);
}

void AddSquares(const double* x, double* acc, size_t n) {
  Ops().add_squares(x, acc, n);
}

void Min(const double* a, const double* b, double* out, size_t n) {
  Ops().vmin(a, b, out, n);
}

void SubtractShift(const double* a, const double* b, double shift,
                   double* out, size_t n) {
  Ops().sub_shift(a, b, shift, out, n);
}

void ExpScaled(double* x, size_t n, double pre, double post) {
  Ops().exp_scaled(x, n, pre, post);
}

double Exp(double x) { return ExpScalar(x); }

void Gemm(const double* a, size_t m, size_t k, const double* b, size_t n,
          double* c) {
  Ops().gemm(a, m, k, b, n, c);
}

ptrdiff_t CholeskyFactorInPlace(double* a, size_t n) {
  return Ops().chol(a, n);
}

void SolveLowerMatrixInPlace(const double* l, size_t n, double* y, size_t m) {
  Ops().solve_lower_multi(l, n, y, m);
}

double CholUpdateAppendRow(const double* l, size_t n, size_t stride,
                           double* row, double diag) {
  return Ops().chol_append_row(l, n, stride, row, diag);
}

}  // namespace locat::math::kern
