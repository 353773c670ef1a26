// Property tests for the SIMD kernel layer: the scalar backend and the
// best available SIMD backend must agree BIT-FOR-BIT on every kernel, for
// sizes covering full vectors, remainder lanes (n % 4 != 0), and the
// empty/degenerate edges. Accuracy of the shared polynomial exp is checked
// against libm separately (it intentionally is not libm).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/tuning.h"
#include "harness/experiments.h"
#include "math/cholesky.h"
#include "math/kern/kern.h"
#include "math/matrix.h"
#include "sparksim/simulator.h"
#include "workloads/workloads.h"

namespace locat::math::kern {
namespace {

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_PRED2(SameBits, (a), (b)) << "values: " << (a) << " vs " << (b)

std::vector<double> RandomVec(Rng* rng, size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = scale * rng->NextGaussian();
  return v;
}

/// Runs `body` under the scalar backend and under the best backend,
/// restoring the entry dispatch afterwards. When the best backend IS
/// scalar (no SIMD on this CPU), the test degenerates to scalar==scalar,
/// which is fine: the CI x86 runners exercise the real comparison.
template <typename Fn>
void CompareBackends(Fn body) {
  const Backend entry = ActiveBackend();
  SetBackend(Backend::kScalar);
  body(/*is_reference=*/true);
  SetBackend(BestBackend());
  body(/*is_reference=*/false);
  SetBackend(entry);
}

// Sizes straddling the 4-lane width: empty, sub-vector, exact multiples,
// and every remainder class.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 97, 240};

TEST(KernBackendEquality, DotSumSqDist) {
  Rng rng(42);
  for (size_t n : kSizes) {
    const auto a = RandomVec(&rng, n);
    const auto b = RandomVec(&rng, n);
    const auto w = RandomVec(&rng, n, 0.5);
    double ref_dot = 0, ref_sum = 0, ref_sq = 0, ref_wsq = 0;
    CompareBackends([&](bool is_reference) {
      const double d = Dot(a.data(), b.data(), n);
      const double s = Sum(a.data(), n);
      const double sq = SquaredDistance(a.data(), b.data(), n);
      const double wsq = WeightedSquaredDistance(a.data(), b.data(), w.data(), n);
      if (is_reference) {
        ref_dot = d;
        ref_sum = s;
        ref_sq = sq;
        ref_wsq = wsq;
      } else {
        EXPECT_SAME_BITS(ref_dot, d) << "dot n=" << n;
        EXPECT_SAME_BITS(ref_sum, s) << "sum n=" << n;
        EXPECT_SAME_BITS(ref_sq, sq) << "sqdist n=" << n;
        EXPECT_SAME_BITS(ref_wsq, wsq) << "wsqdist n=" << n;
      }
    });
  }
}

TEST(KernBackendEquality, RowBatchesMatchSingleCalls) {
  Rng rng(7);
  const size_t dim = 13, nrows = 9, stride = 17;
  const auto rows = RandomVec(&rng, nrows * stride);
  const auto q = RandomVec(&rng, dim);
  const auto w = RandomVec(&rng, dim, 0.3);
  CompareBackends([&](bool) {
    std::vector<double> out(nrows), wout(nrows), mv(nrows);
    SquaredDistanceRows(rows.data(), nrows, dim, stride, q.data(), out.data());
    WeightedSquaredDistanceRows(rows.data(), nrows, dim, stride, q.data(),
                                w.data(), wout.data());
    std::vector<double> m(nrows * dim);
    for (size_t i = 0; i < m.size(); ++i) m[i] = rows[i % rows.size()];
    MatVecRowMajor(m.data(), nrows, dim, q.data(), mv.data());
    for (size_t r = 0; r < nrows; ++r) {
      EXPECT_SAME_BITS(out[r],
                       SquaredDistance(rows.data() + r * stride, q.data(), dim));
      EXPECT_SAME_BITS(wout[r],
                       WeightedSquaredDistance(rows.data() + r * stride,
                                               q.data(), w.data(), dim));
      EXPECT_SAME_BITS(mv[r], Dot(m.data() + r * dim, q.data(), dim));
    }
  });
}

// The coordinate-major cross-kernel keeps the single call's lane tree: every
// point's output has the bits of WeightedSquaredDistance(q, point, w) on
// every backend. m covers the eight-point, four-point and scalar paths,
// dim every lane-class remainder.
TEST(KernBackendEquality, WeightedSquaredDistanceCols) {
  Rng rng(19);
  for (size_t m : {0u, 1u, 7u, 8u, 9u, 33u}) {
    for (size_t dim : {1u, 2u, 3u, 4u, 5u, 8u, 15u, 39u}) {
      const auto cols = RandomVec(&rng, m * dim);
      const auto q = RandomVec(&rng, dim);
      const auto w = RandomVec(&rng, dim, 0.5);
      std::vector<double> ref;
      CompareBackends([&](bool is_reference) {
        std::vector<double> out(m);
        WeightedSquaredDistanceCols(cols.data(), m, dim, q.data(), w.data(),
                                    out.data());
        std::vector<double> point(dim);
        for (size_t c = 0; c < m; ++c) {
          for (size_t k = 0; k < dim; ++k) point[k] = cols[k * m + c];
          EXPECT_SAME_BITS(out[c], WeightedSquaredDistance(
                                       q.data(), point.data(), w.data(), dim))
              << "m=" << m << " dim=" << dim << " c=" << c;
        }
        if (is_reference) {
          ref = out;
        } else {
          for (size_t c = 0; c < m; ++c) EXPECT_SAME_BITS(ref[c], out[c]);
        }
      });
    }
  }
}

TEST(KernBackendEquality, Elementwise) {
  Rng rng(99);
  for (size_t n : kSizes) {
    const auto a = RandomVec(&rng, n);
    const auto b = RandomVec(&rng, n);
    std::vector<double> ref_y, ref_sh, ref_acc;
    CompareBackends([&](bool is_reference) {
      auto y = b;
      Axpy(1.7, a.data(), y.data(), n);
      auto acc = b;
      AddSquares(a.data(), acc.data(), n);
      std::vector<double> sh(n);
      SubtractShift(a.data(), b.data(), 0.125, sh.data(), n);
      if (is_reference) {
        ref_y = y;
        ref_acc = acc;
        ref_sh = sh;
      } else {
        for (size_t i = 0; i < n; ++i) {
          EXPECT_SAME_BITS(ref_y[i], y[i]);
          EXPECT_SAME_BITS(ref_acc[i], acc[i]);
          EXPECT_SAME_BITS(ref_sh[i], sh[i]);
        }
      }
    });
  }
}

// The elementwise Min (sparse_gp's max-min distance update): backends
// bit-equal, and every element equals std::min (one selection, so the
// scalar check is exact, not approximate).
TEST(KernBackendEquality, BatchElementwise) {
  Rng rng(1001);
  for (size_t n : kSizes) {
    const auto a = RandomVec(&rng, n);
    const auto b = RandomVec(&rng, n);
    std::vector<double> ref_min;
    CompareBackends([&](bool is_reference) {
      std::vector<double> mn(n);
      Min(a.data(), b.data(), mn.data(), n);
      if (is_reference) {
        ref_min = mn;
        for (size_t i = 0; i < n; ++i) {
          EXPECT_SAME_BITS(mn[i], std::min(a[i], b[i]));
        }
      } else {
        for (size_t i = 0; i < n; ++i) EXPECT_SAME_BITS(ref_min[i], mn[i]);
      }
    });
  }
}

TEST(KernBackendEquality, ExpScaled) {
  Rng rng(1234);
  for (size_t n : kSizes) {
    // GP-shaped inputs: nonnegative squared distances, pre < 0.
    auto x = RandomVec(&rng, n);
    for (auto& v : x) v = v * v * 50.0;
    std::vector<double> ref;
    CompareBackends([&](bool is_reference) {
      auto y = x;
      ExpScaled(y.data(), n, -0.37, 1.3);
      if (is_reference) {
        ref = y;
      } else {
        for (size_t i = 0; i < n; ++i) EXPECT_SAME_BITS(ref[i], y[i]);
      }
    });
  }
}

TEST(KernExp, MatchesLibmClosely) {
  // The polynomial exp is not libm, but over the GP-relevant range it must
  // agree to a few ulp (the fast-vs-reference GP suites assert 1e-10).
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-60.0, 1.0);
    const double ours = Exp(x);
    const double libm = std::exp(x);
    EXPECT_NEAR(ours, libm, 4e-15 * libm) << "x=" << x;
  }
  EXPECT_EQ(Exp(0.0), 1.0);  // exact: kernels require k(x,x) == 1.0
  EXPECT_EQ(Exp(-1000.0), 0.0);  // documented flush to zero
  EXPECT_GT(Exp(709.0), 1e307);  // documented saturation
}

TEST(KernExp, ScalarEntryMatchesVectorLanes) {
  Rng rng(6);
  // 71 = two interleaved 32-element blocks, one single vector and a
  // 3-element padded tail: every ExpScaled path, plus the saturation,
  // clamp, flush and NaN edges.
  const size_t n = 71;
  auto x = RandomVec(&rng, n, 10.0);
  x[3] = 800.0;
  x[9] = 708.0;
  x[17] = -746.0;
  x[30] = -708.5;
  x[41] = std::numeric_limits<double>::quiet_NaN();
  x[69] = -1000.0;
  CompareBackends([&](bool) {
    auto y = x;
    ExpScaled(y.data(), n, 1.0, 1.0);
    for (size_t i = 0; i < n; ++i) EXPECT_SAME_BITS(y[i], Exp(x[i]));
  });
}

TEST(KernBackendEquality, Gemm) {
  Rng rng(21);
  const size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {8, 8, 8}, {13, 7, 9}, {40, 33, 17}, {65, 64, 63}};
  for (const auto& s : shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    const auto a = RandomVec(&rng, m * k);
    const auto b = RandomVec(&rng, k * n);
    std::vector<double> ref_c;
    CompareBackends([&](bool is_reference) {
      std::vector<double> c(m * n, -777.0);
      Gemm(a.data(), m, k, b.data(), n, c.data());
      if (is_reference) {
        ref_c = c;
        // Cross-check against a naive triple loop (tolerance, not bits).
        for (size_t i = 0; i < m; ++i)
          for (size_t j = 0; j < n; ++j) {
            double acc = 0;
            for (size_t kk = 0; kk < k; ++kk) {
              acc += a[i * k + kk] * b[kk * n + j];
            }
            EXPECT_NEAR(c[i * n + j], acc, 1e-10);
          }
      } else {
        for (size_t i = 0; i < m * n; ++i) {
          EXPECT_SAME_BITS(ref_c[i], c[i]);
        }
      }
    });
  }
}

/// Factors `spd` and solves L Y = B for each right-hand-side width m under
/// both backends; L and every Y must match bit for bit. The widths cover a
/// lone column, tail-only solves, one exact 16-column group, and groups
/// plus a tail.
void ExpectCholeskyAndSolveBackendEqual(const Matrix& spd, Rng* rng) {
  const size_t n = spd.rows();
  for (size_t m : {1u, 6u, 16u, 17u, 31u, 32u, 33u, 40u, 48u, 64u, 65u,
                   97u}) {
    const auto rhs = RandomVec(rng, n * m);
    std::vector<double> ref_l, ref_y;
    CompareBackends([&](bool is_reference) {
      std::vector<double> a(n * n);
      for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j) a[i * n + j] = spd(i, j);
      ASSERT_EQ(CholeskyFactorInPlace(a.data(), n), -1);
      auto y = rhs;
      SolveLowerMatrixInPlace(a.data(), n, y.data(), m);
      if (is_reference) {
        ref_l = a;
        ref_y = y;
      } else {
        for (size_t i = 0; i < n; ++i)
          for (size_t j = 0; j <= i; ++j)
            EXPECT_SAME_BITS(ref_l[i * n + j], a[i * n + j])
                << "L(" << i << "," << j << ") n=" << n;
        for (size_t i = 0; i < n * m; ++i)
          EXPECT_SAME_BITS(ref_y[i], y[i]) << "n=" << n << " m=" << m;
      }
    });
  }
}

TEST(KernBackendEquality, CholeskyAndSolve) {
  Rng rng(31);
  for (size_t n : {1u, 2u, 5u, 8u, 31u, 32u, 33u, 64u, 97u}) {
    // Random SPD matrix: B * B^T + n * I.
    Matrix bmat(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) bmat(i, j) = rng.NextGaussian();
    Matrix spd = bmat * bmat.Transpose();
    spd.AddToDiagonal(static_cast<double>(n));
    ExpectCholeskyAndSolveBackendEqual(spd, &rng);
  }

  // Block-diagonal SPD matrix: its factor is exactly zero between the two
  // blocks, so the solve's l_ij == 0 skip runs.
  const size_t n = 40, split = 17;
  Matrix spd(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      if ((i < split) != (j < split)) continue;
      const double v = rng.NextDouble() - 0.5;
      spd(i, j) = v;
      spd(j, i) = v;
    }
    spd(i, i) += static_cast<double>(n);
  }
  std::vector<double> l(n * n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) l[i * n + j] = spd(i, j);
  ASSERT_EQ(CholeskyFactorInPlace(l.data(), n), -1);
  ASSERT_EQ(l[(n - 1) * n], 0.0) << "factor must carry exact zeros";
  ExpectCholeskyAndSolveBackendEqual(spd, &rng);
}

TEST(KernCholesky, ReportsFirstBadPivot) {
  // Indefinite matrix: the factorization must fail deterministically with
  // the same pivot index on every backend (the SPD-jitter retry path in
  // Cholesky::FactorWithJitter depends on this agreement).
  const size_t n = 5;
  Matrix m = Matrix::Identity(n);
  m(3, 3) = -4.0;  // first bad pivot at index 3
  ptrdiff_t ref = -2;
  CompareBackends([&](bool is_reference) {
    std::vector<double> a(n * n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) a[i * n + j] = m(i, j);
    const ptrdiff_t piv = CholeskyFactorInPlace(a.data(), n);
    if (is_reference) {
      ref = piv;
      EXPECT_EQ(piv, 3);
    } else {
      EXPECT_EQ(ref, piv);
    }
  });
}

TEST(KernCholesky, JitterRetryPathBitIdentical) {
  // A barely-indefinite matrix drives Cholesky::FactorWithJitter through
  // its retry loop; the recovered factor must be bit-identical across
  // backends (jitter amounts are data-dependent).
  Rng rng(77);
  const size_t n = 24;
  Matrix bmat(n, 3);  // rank-3 Gram: massively rank-deficient
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < 3; ++j) bmat(i, j) = rng.NextGaussian();
  const Matrix gram = bmat * bmat.Transpose();
  Matrix ref_l(1, 1);
  double ref_jitter = -1.0;
  bool have_ref = false;
  CompareBackends([&](bool is_reference) {
    auto result = Cholesky::FactorWithJitter(gram);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Cholesky& chol = *result;
    if (is_reference) {
      ref_l = chol.L();
      ref_jitter = chol.jitter();
      have_ref = true;
      EXPECT_GT(chol.jitter(), 0.0);  // the path actually retried
    } else {
      ASSERT_TRUE(have_ref);
      EXPECT_EQ(ref_jitter, chol.jitter());
      const Matrix& l = chol.L();
      for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j)
          EXPECT_SAME_BITS(ref_l(i, j), l(i, j));
    }
  });
}

/// Random SPD matrix: B * B^T + n * I.
Matrix MakeSpd(Rng* rng, size_t n) {
  Matrix bmat(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) bmat(i, j) = rng->NextGaussian();
  Matrix spd = bmat * bmat.Transpose();
  spd.AddToDiagonal(static_cast<double>(n));
  return spd;
}

/// The blocked Cholesky's panel algorithm with one kern::Dot per entry:
/// panel width 32, each panel column left-looking over the panel's
/// finished columns, then the trailing update of every later entry by the
/// panel's inner products. Unblocked across rows, so it pins the order of
/// operations the 4-row panel blocking must keep.
void PanelCholeskyReplica(double* a, size_t n) {
  constexpr size_t kPanel = 32;
  for (size_t j0 = 0; j0 < n; j0 += kPanel) {
    const size_t jb = std::min(kPanel, n - j0);
    for (size_t j = j0; j < j0 + jb; ++j) {
      double* rj = a + j * n;
      rj[j] = std::sqrt(rj[j] - Dot(rj + j0, rj + j0, j - j0));
      const double inv = 1.0 / rj[j];
      for (size_t i = j + 1; i < n; ++i) {
        double* ri = a + i * n;
        ri[j] = (ri[j] - Dot(ri + j0, rj + j0, j - j0)) * inv;
      }
    }
    for (size_t i = j0 + jb; i < n; ++i) {
      double* ri = a + i * n;
      for (size_t j = j0 + jb; j <= i; ++j)
        ri[j] -= Dot(ri + j0, a + j * n + j0, jb);
    }
  }
}

TEST(KernCholesky, BlockedPanelMatchesPerEntryDotReplica) {
  // n covers lone rows, the 4-row blocks and their tails, one exact
  // panel, the panel boundary, and several panels with every tail class.
  const Backend entry = ActiveBackend();
  Rng rng(2112);
  for (size_t n : {1u, 3u, 4u, 5u, 31u, 32u, 33u, 36u, 37u, 64u, 65u, 77u,
                   100u}) {
    const Matrix spd = MakeSpd(&rng, n);
    std::vector<double> lower(n * n, 0.0);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j <= i; ++j) lower[i * n + j] = spd(i, j);
    for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kNeon}) {
      if (!BackendAvailable(b)) continue;
      SetBackend(b);
      auto ref = lower;
      PanelCholeskyReplica(ref.data(), n);
      auto got = lower;
      ASSERT_EQ(CholeskyFactorInPlace(got.data(), n), -1);
      for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j)
          EXPECT_SAME_BITS(ref[i * n + j], got[i * n + j])
              << "L(" << i << "," << j << ") n=" << n << " backend "
              << BackendName(b);
    }
  }
  SetBackend(entry);
}

// ---------------------------------------------------------------------------
// Bordered Cholesky append: the O(n^2) append must (a) agree with a
// from-scratch factorization to tight tolerance and (b) be bit-identical
// across backends, including every remainder-lane class.

TEST(KernCholUpdate, AppendRowBackendBitIdentical) {
  Rng rng(404);
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 31u, 64u, 97u}) {
    const Matrix spd = MakeSpd(&rng, n);
    const auto cross = RandomVec(&rng, n, 0.25);
    const double diag = static_cast<double>(n) + 1.0;
    std::vector<double> ref_row;
    double ref_d = 0.0;
    CompareBackends([&](bool is_reference) {
      // Factor into an (n+1)-stride buffer so the appended row shares the
      // storage layout Cholesky::AppendRow uses.
      const size_t stride = n + 1;
      std::vector<double> l(stride * stride, 0.0);
      {
        std::vector<double> a(n * n);
        for (size_t i = 0; i < n; ++i)
          for (size_t j = 0; j < n; ++j) a[i * n + j] = spd(i, j);
        ASSERT_EQ(CholeskyFactorInPlace(a.data(), n), -1);
        for (size_t i = 0; i < n; ++i)
          for (size_t j = 0; j <= i; ++j) l[i * stride + j] = a[i * n + j];
      }
      std::vector<double> row = cross;
      const double d =
          CholUpdateAppendRow(l.data(), n, stride, row.data(), diag);
      if (is_reference) {
        ref_row = row;
        ref_d = d;
        EXPECT_GT(d, 0.0);
      } else {
        EXPECT_SAME_BITS(ref_d, d) << "completion n=" << n;
        for (size_t j = 0; j < n; ++j)
          EXPECT_SAME_BITS(ref_row[j], row[j]) << "w[" << j << "] n=" << n;
      }
    });
  }
}

TEST(KernCholUpdate, AppendMatchesFullRefactorToTolerance) {
  Rng rng(405);
  for (size_t n : {2u, 5u, 8u, 33u, 40u, 63u}) {
    const Matrix spd = MakeSpd(&rng, n);
    // Factor the leading (n-1) block, append the last row/col, compare
    // against factoring the whole matrix at once. Different op order =>
    // tolerance, not bits.
    Matrix leading(n - 1, n - 1);
    for (size_t i = 0; i + 1 < n; ++i)
      for (size_t j = 0; j + 1 < n; ++j) leading(i, j) = spd(i, j);
    auto partial = Cholesky::Factor(leading);
    ASSERT_TRUE(partial.ok());
    Vector cross(n - 1);
    for (size_t j = 0; j + 1 < n; ++j) cross[j] = spd(n - 1, j);
    ASSERT_TRUE(partial->AppendRow(cross, spd(n - 1, n - 1)).ok());

    auto full = Cholesky::Factor(spd);
    ASSERT_TRUE(full.ok());
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j <= i; ++j) {
        const double ref = full->L()(i, j);
        EXPECT_NEAR(partial->L()(i, j), ref,
                    1e-9 * std::max(1.0, std::fabs(ref)))
            << "L(" << i << "," << j << ") n=" << n;
      }
  }
}

TEST(KernCholUpdate, AppendRejectsIndefiniteExtensionAndKeepsFactor) {
  Rng rng(406);
  const size_t n = 12;
  const Matrix spd = MakeSpd(&rng, n);
  auto chol = Cholesky::Factor(spd);
  ASSERT_TRUE(chol.ok());
  const Matrix before = chol->L();
  // diag far below the cross energy => negative Schur completion.
  Vector cross(n);
  for (size_t j = 0; j < n; ++j) cross[j] = spd(0, j);
  EXPECT_FALSE(chol->AppendRow(cross, /*diag=*/1e-9).ok());
  ASSERT_EQ(chol->L().rows(), n);  // unchanged
  EXPECT_EQ(before.MaxAbsDiff(chol->L()), 0.0);
}

TEST(KernCholUpdate, AppendRowJitterContract) {
  // A rank-deficient Gram forces FactorWithJitter to regularize; the
  // append must then extend the factor of (A + jitter I), i.e. apply the
  // stored jitter to the new diagonal. Reference: factor the extended
  // matrix with the same jitter added explicitly.
  Rng rng(407);
  const size_t n = 20;
  Matrix bmat(n + 1, 3);  // rank-3: every leading block is deficient
  for (size_t i = 0; i <= n; ++i)
    for (size_t j = 0; j < 3; ++j) bmat(i, j) = rng.NextGaussian();
  const Matrix gram_ext = bmat * bmat.Transpose();
  Matrix gram(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) gram(i, j) = gram_ext(i, j);

  auto chol = Cholesky::FactorWithJitter(gram);
  ASSERT_TRUE(chol.ok());
  ASSERT_GT(chol->jitter(), 0.0) << "test needs the jitter-retry path";
  const double jitter = chol->jitter();

  Vector cross(n);
  for (size_t j = 0; j < n; ++j) cross[j] = gram_ext(n, j);
  ASSERT_TRUE(chol->AppendRow(cross, gram_ext(n, n)).ok());
  EXPECT_EQ(chol->jitter(), jitter);  // appending never changes the jitter

  Matrix reference = gram_ext;
  reference.AddToDiagonal(jitter);
  auto ref = Cholesky::Factor(reference);
  ASSERT_TRUE(ref.ok()) << "extended matrix must be SPD under the same "
                           "jitter the original needed";
  for (size_t i = 0; i <= n; ++i)
    for (size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(chol->L()(i, j), ref->L()(i, j),
                  1e-8 * std::max(1.0, std::fabs(ref->L()(i, j))))
          << "L(" << i << "," << j << ")";
    }
}

TEST(KernDispatch, NamesAndAvailability) {
  EXPECT_TRUE(BackendAvailable(Backend::kScalar));
  EXPECT_TRUE(BackendAvailable(BestBackend()));
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
  EXPECT_STREQ(BackendName(Backend::kNeon), "neon");
}

// End-to-end determinism contract: a full LOCAT tuning run must be
// bit-identical across SIMD backends (scalar vs the CPU's best) and
// across thread counts, in every combination — the in-process equivalent
// of `LOCAT_SIMD=off/native x --threads 1/8`.
TEST(KernEndToEnd, TunerBitIdenticalAcrossBackendsAndThreads) {
  const Backend entry = ActiveBackend();
  auto run_once = [&]() {
    sparksim::ClusterSimulator sim(sparksim::X86Cluster(), 777);
    core::TuningSession session(&sim, workloads::HiBenchAggregation());
    return harness::MakeTuner("LOCAT", /*seed_salt=*/0)->Tune(&session, 150.0);
  };
  struct Run {
    Backend backend;
    int threads;
    core::TuningResult result;
  };
  std::vector<Run> runs;
  for (const Backend backend : {Backend::kScalar, BestBackend()}) {
    for (const int threads : {1, 8}) {
      SetBackend(backend);
      common::ThreadPool::SetGlobalThreads(threads);
      runs.push_back(Run{backend, threads, run_once()});
    }
  }
  common::ThreadPool::SetGlobalThreads(0);  // restore default
  SetBackend(entry);
  const auto& ref = runs.front().result;
  EXPECT_GT(ref.evaluations, 0);
  for (size_t i = 1; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const std::string label = std::string(BackendName(run.backend)) +
                              " threads=" + std::to_string(run.threads);
    EXPECT_EQ(ref.evaluations, run.result.evaluations) << label;
    EXPECT_DOUBLE_EQ(ref.optimization_seconds,
                     run.result.optimization_seconds)
        << label;
    EXPECT_DOUBLE_EQ(ref.best_observed_seconds,
                     run.result.best_observed_seconds)
        << label;
    EXPECT_TRUE(ref.best_conf == run.result.best_conf) << label;
  }
}

}  // namespace
}  // namespace locat::math::kern
