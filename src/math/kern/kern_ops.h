#ifndef LOCAT_MATH_KERN_KERN_OPS_H_
#define LOCAT_MATH_KERN_KERN_OPS_H_

#include <cstddef>

namespace locat::math::kern {

/// Function-pointer table one backend TU fills in by instantiating the
/// shared templated kernel body (kern_impl.h) over its vector type. The
/// dispatcher (kern.cc) holds a pointer to the active table; swapping the
/// pointer swaps every kernel at once.
struct KernOps {
  double (*dot)(const double* a, const double* b, size_t n);
  double (*sum)(const double* x, size_t n);
  double (*sqdist)(const double* a, const double* b, size_t n);
  double (*wsqdist)(const double* a, const double* b, const double* w,
                    size_t n);
  void (*matvec)(const double* m, size_t rows, size_t cols, const double* v,
                 double* out);
  void (*sqdist_rows)(const double* rows, size_t nrows, size_t dim,
                      size_t stride, const double* q, double* out);
  void (*wsqdist_rows)(const double* rows, size_t nrows, size_t dim,
                       size_t stride, const double* q, const double* w,
                       double* out);
  void (*wsqdist_cols)(const double* cols, size_t m, size_t dim,
                       const double* q, const double* w, double* out);
  void (*axpy)(double alpha, const double* x, double* y, size_t n);
  void (*add_squares)(const double* x, double* acc, size_t n);
  void (*vmin)(const double* a, const double* b, double* out, size_t n);
  void (*sub_shift)(const double* a, const double* b, double shift,
                    double* out, size_t n);
  void (*exp_scaled)(double* x, size_t n, double pre, double post);
  void (*gemm)(const double* a, size_t m, size_t k, const double* b, size_t n,
               double* c);
  ptrdiff_t (*chol)(double* a, size_t n);
  void (*solve_lower_multi)(const double* l, size_t n, double* y, size_t m);
  double (*chol_append_row)(const double* l, size_t n, size_t stride,
                            double* row, double diag);
};

/// Per-backend tables. Each lives in a TU compiled with exactly the ISA
/// flags its vector type needs; the unsupported ones are absent from the
/// build (guarded in src/math/CMakeLists.txt).
const KernOps* ScalarOps();
#if defined(__x86_64__) || defined(_M_X64)
const KernOps* Avx2Ops();
#endif
#if defined(__aarch64__)
const KernOps* NeonOps();
#endif

}  // namespace locat::math::kern

#endif  // LOCAT_MATH_KERN_KERN_OPS_H_
