// gemm correctness: all transpose combinations, strided views, edge shapes,
// blocking boundaries, and alpha/beta handling — against the naive reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "common/test_utils.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

using camult::test::matrices_near;
using camult::test::reference_gemm;

Matrix make_operand(Trans t, idx rows_op, idx cols_op, std::uint64_t seed) {
  // Storage shape depends on whether the operand is transposed.
  return t == Trans::NoTrans ? random_matrix(rows_op, cols_op, seed)
                             : random_matrix(cols_op, rows_op, seed);
}

void check_gemm(Trans ta, Trans tb, idx m, idx n, idx k, double alpha,
                double beta, std::uint64_t seed) {
  Matrix a = make_operand(ta, m, k, seed);
  Matrix b = make_operand(tb, k, n, seed + 1);
  Matrix c = random_matrix(m, n, seed + 2);
  Matrix c_ref = c;

  gemm(ta, tb, alpha, a, b, beta, c.view());
  reference_gemm(ta, tb, alpha, a, b, beta, c_ref.view());

  const double tol = 1e-12 * static_cast<double>(std::max<idx>(k, 1));
  EXPECT_TRUE(matrices_near(c, c_ref, tol))
      << "m=" << m << " n=" << n << " k=" << k << " ta="
      << (ta == Trans::Trans) << " tb=" << (tb == Trans::Trans);
}

using ShapeParam = std::tuple<idx, idx, idx>;

class GemmShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GemmShapes, AllTransCombos) {
  auto [m, n, k] = GetParam();
  int s = 0;
  for (Trans ta : {Trans::NoTrans, Trans::Trans}) {
    for (Trans tb : {Trans::NoTrans, Trans::Trans}) {
      check_gemm(ta, tb, m, n, k, 1.0, 0.0, 100 + s);
      check_gemm(ta, tb, m, n, k, -0.5, 2.0, 200 + s);
      ++s;
    }
  }
}

// Shapes chosen to hit microkernel edges (MR=8, NR=6), cache-block edges
// (MC=192, KC=256, NC=768) and degenerate sizes.
INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmShapes,
    ::testing::Values(
        ShapeParam{1, 1, 1}, ShapeParam{2, 3, 4}, ShapeParam{8, 6, 8},
        ShapeParam{7, 5, 9}, ShapeParam{9, 7, 3}, ShapeParam{16, 12, 16},
        ShapeParam{17, 13, 19}, ShapeParam{1, 50, 1}, ShapeParam{50, 1, 7},
        ShapeParam{33, 1, 1}, ShapeParam{64, 64, 64}, ShapeParam{100, 100, 100},
        ShapeParam{193, 10, 257}, ShapeParam{10, 769, 5},
        ShapeParam{200, 60, 300}));

TEST(Gemm, ZeroKScalesCOnly) {
  Matrix a(5, 0);
  Matrix b(0, 4);
  Matrix c = random_matrix(5, 4, 7);
  Matrix c0 = c;
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 2.0, c.view());
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(c(i, j), 2.0 * c0(i, j));
  }
}

TEST(Gemm, AlphaZeroOnlyScales) {
  Matrix a = random_matrix(6, 7, 1);
  Matrix b = random_matrix(7, 5, 2);
  Matrix c = random_matrix(6, 5, 3);
  Matrix c0 = c;
  gemm(Trans::NoTrans, Trans::NoTrans, 0.0, a, b, 0.5, c.view());
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(c(i, j), 0.5 * c0(i, j));
  }
}

TEST(Gemm, BetaZeroOverwritesNaN) {
  Matrix a = random_matrix(4, 4, 1);
  Matrix b = random_matrix(4, 4, 2);
  Matrix c(4, 4);
  fill(c.view(), std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0, c.view());
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i < 4; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
  }
}

TEST(Gemm, WorksOnStridedSubviews) {
  // Operate on interior blocks of larger allocations (ld > rows).
  Matrix big_a = random_matrix(40, 40, 11);
  Matrix big_b = random_matrix(40, 40, 12);
  Matrix big_c = random_matrix(40, 40, 13);
  Matrix big_c_ref = big_c;

  auto a = big_a.view().block(3, 5, 20, 15);
  auto b = big_b.view().block(1, 2, 15, 18);
  auto c = big_c.view().block(7, 9, 20, 18);
  auto c_ref = big_c_ref.view().block(7, 9, 20, 18);

  gemm(Trans::NoTrans, Trans::NoTrans, 1.5, a, b, -1.0, c);
  reference_gemm(Trans::NoTrans, Trans::NoTrans, 1.5, a, b, -1.0, c_ref);
  EXPECT_TRUE(matrices_near(big_c, big_c_ref, 1e-11));
  // Elements outside the C block are untouched: compare the full matrices
  // (the reference only modified the same block).
}

TEST(Gemm, LargeCrossesAllCacheBlocks) {
  // One shape larger than MC/KC/NC in every dimension.
  const idx m = 250, n = 800, k = 300;
  Matrix a = random_matrix(m, k, 21);
  Matrix b = random_matrix(k, n, 22);
  Matrix c = Matrix::zeros(m, n);
  Matrix c_ref = Matrix::zeros(m, n);
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0, c.view());
  reference_gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0,
                 c_ref.view());
  EXPECT_TRUE(matrices_near(c, c_ref, 1e-10));
}

// A quiet NaN in A must reach C even when the matching B element is zero:
// the small-path used to skip bv == 0.0 terms as an "optimization", which
// silently laundered NaN * 0 into 0 and made NaN visibility depend on which
// code path (small vs blocked) the problem size selected. The health
// monitor's poison screening relies on propagation being path-independent.
TEST(Gemm, NanPropagatesThroughZeroBTerms) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Small path: m*n*k well under the blocked cutoff.
  {
    Matrix a = random_matrix(8, 8, 31);
    Matrix b = Matrix::zeros(8, 8);  // every bv is exactly 0.0
    Matrix c = random_matrix(8, 8, 32);
    a(3, 2) = nan;
    gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 1.0, c.view());
    for (idx j = 0; j < 8; ++j) {
      EXPECT_TRUE(std::isnan(c(3, j))) << "col " << j;
      EXPECT_FALSE(std::isnan(c(0, j))) << "col " << j;
    }
  }
  // Blocked path: same poison pattern, size past the small cutoff.
  {
    Matrix a = random_matrix(64, 64, 33);
    Matrix b = Matrix::zeros(64, 64);
    Matrix c = random_matrix(64, 64, 34);
    a(3, 2) = nan;
    gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 1.0, c.view());
    for (idx j = 0; j < 64; ++j) {
      EXPECT_TRUE(std::isnan(c(3, j))) << "col " << j;
      EXPECT_FALSE(std::isnan(c(0, j))) << "col " << j;
    }
  }
}

// Small-vs-blocked parity on the same poisoned values: embed the small
// problem in the corner of a zero-padded blocked-size problem and the
// shared region must agree on WHERE the NaNs are (values may differ in
// rounding order, NaN placement may not).
TEST(Gemm, NanPlacementMatchesSmallVsBlocked) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const idx m = 10, n = 6, k = 9;    // small path: 540 flops
  const idx M = 40, N = 40, K = 40;  // blocked path
  Matrix a = random_matrix(m, k, 41);
  Matrix b = random_matrix(k, n, 42);
  a(1, 4) = nan;
  b(7, 2) = 0.0;  // zero B term against a NaN-free A row
  a(5, 7) = nan;  // NaN against the zero B term: must still poison row 5
  Matrix c_small = Matrix::zeros(m, n);
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0, c_small.view());

  Matrix ap = Matrix::zeros(M, K);
  Matrix bp = Matrix::zeros(K, N);
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < m; ++i) ap(i, j) = a(i, j);
  }
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < k; ++i) bp(i, j) = b(i, j);
  }
  Matrix c_blocked = Matrix::zeros(M, N);
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, ap, bp, 0.0, c_blocked.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      EXPECT_EQ(std::isnan(c_small(i, j)), std::isnan(c_blocked(i, j)))
          << "(" << i << ", " << j << ")";
    }
  }
  // Rows 1 and 5 carry the planted NaNs.
  EXPECT_TRUE(std::isnan(c_small(1, 0)));
  EXPECT_TRUE(std::isnan(c_small(5, 0)));
  EXPECT_FALSE(std::isnan(c_small(0, 0)));
}

// ---- gemm_inner: C += alpha * A^T B, A (k x m) and B (k x n) ------------

void check_gemm_inner(idx m, idx n, idx k, double alpha, std::uint64_t seed) {
  Matrix a = random_matrix(k, m, seed);
  Matrix b = random_matrix(k, n, seed + 1);
  Matrix c = random_matrix(m, n, seed + 2);
  Matrix c_ref = c;
  gemm_inner(alpha, a, b, c.view());
  reference_gemm(Trans::Trans, Trans::NoTrans, alpha, a, b, 1.0, c_ref.view());
  const double tol = 1e-12 * static_cast<double>(std::max<idx>(k, 1));
  EXPECT_TRUE(matrices_near(c, c_ref, tol))
      << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha;
}

bool same_bits(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (idx j = 0; j < x.cols(); ++j) {
    if (std::memcmp(x.col_ptr(j), y.col_ptr(j),
                    static_cast<std::size_t>(x.rows()) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

class GemmInnerShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GemmInnerShapes, MatchesReference) {
  auto [m, n, k] = GetParam();
  check_gemm_inner(m, n, k, 1.0, 300);
  check_gemm_inner(m, n, k, -0.75, 310);
  check_gemm_inner(m, n, k, 2.5, 320);
}

// {m, n, k}: k % 8 != 0 (lane tail), m and n % 4 != 0 (tile fringes),
// m or n == 1, k across the 256-row chunk boundary, and the TSQR leaf shape.
INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmInnerShapes,
    ::testing::Values(ShapeParam{1, 1, 1}, ShapeParam{1, 1, 7},
                      ShapeParam{1, 9, 13}, ShapeParam{7, 1, 8},
                      ShapeParam{4, 4, 8}, ShapeParam{5, 6, 29},
                      ShapeParam{3, 7, 255}, ShapeParam{9, 11, 257},
                      ShapeParam{13, 2, 513}, ShapeParam{25, 25, 2000},
                      ShapeParam{50, 50, 3001}));

TEST(GemmInner, ZeroKOrAlphaLeavesCUntouched) {
  Matrix a = random_matrix(0, 5, 330);
  Matrix b = random_matrix(0, 3, 331);
  Matrix c = random_matrix(5, 3, 332);
  const Matrix c0 = c;
  gemm_inner(1.5, a, b, c.view());
  EXPECT_TRUE(same_bits(c, c0));

  // alpha == 0 reads neither operand: a NaN there must not reach C.
  Matrix a2 = random_matrix(9, 5, 333);
  Matrix b2 = random_matrix(9, 3, 334);
  a2(2, 1) = std::numeric_limits<double>::quiet_NaN();
  gemm_inner(0.0, a2, b2, c.view());
  EXPECT_TRUE(same_bits(c, c0));
}

TEST(GemmInner, WorksOnStridedSubviews) {
  Matrix abig = random_matrix(300, 20, 340);
  Matrix bbig = random_matrix(300, 20, 341);
  Matrix cbig = random_matrix(30, 30, 342);
  ConstMatrixView a = abig.view().block(7, 2, 263, 9);
  ConstMatrixView b = bbig.view().block(7, 5, 263, 6);
  Matrix c_ref = cbig;
  gemm_inner(-1.25, a, b, cbig.view().block(3, 4, 9, 6));
  reference_gemm(Trans::Trans, Trans::NoTrans, -1.25, a, b, 1.0,
                 c_ref.view().block(3, 4, 9, 6));
  EXPECT_TRUE(matrices_near(cbig, c_ref, 1e-12 * 263));
}

// A NaN or Inf in A or B reaches exactly the C entries whose dot product
// reads it, also against a zero in the other operand (0 * Inf, 0 * NaN)
// and inside the k % 8 tail.
TEST(GemmInner, NonFinitesReachExactlyTheirDependents) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const idx m = 7, n = 6, k = 43;  // 43 = 5 * 8 + 3: rows 40..42 are tail
  struct Plant {
    bool in_a;
    idx p, col;
    double v;
  };
  for (const Plant& pl :
       {Plant{true, 3, 2, nan}, Plant{true, 41, 6, inf},
        Plant{false, 17, 0, -inf}, Plant{false, 42, 5, nan}}) {
    Matrix a = random_matrix(k, m, 350);
    Matrix b = random_matrix(k, n, 351);
    // A zero partner in the other operand for the planted row.
    if (pl.in_a) {
      a(pl.p, pl.col) = pl.v;
      b(pl.p, 1) = 0.0;
    } else {
      b(pl.p, pl.col) = pl.v;
      a(pl.p, 4) = 0.0;
    }
    Matrix c = random_matrix(m, n, 352);
    gemm_inner(1.0, a, b, c.view());
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        const bool depends = pl.in_a ? (i == pl.col) : (j == pl.col);
        EXPECT_EQ(!std::isfinite(c(i, j)), depends)
            << "plant in " << (pl.in_a ? "A" : "B") << " row " << pl.p
            << " col " << pl.col << ": C(" << i << ", " << j << ")";
      }
    }
  }
}

// Every entry is a function of its own row of A^T and column of B: the
// tile it falls in, and how the caller splits C, must not change a bit.
// larfb relies on this when CAQR applies one reflector to column segments.
TEST(GemmInner, EntryBitsIndependentOfSplit) {
  const idx m = 23, n = 10, k = 1100;
  Matrix a = random_matrix(k, m, 360);
  Matrix b = random_matrix(k, n, 361);
  Matrix c0 = random_matrix(m, n, 362);
  Matrix whole = c0;
  gemm_inner(0.5, a, b, whole.view());
  Matrix parts = c0;
  const idx row_cuts[] = {0, 5, 6, 17, m};  // pieces of 5, 1, 11, 6 rows
  const idx col_cuts[] = {0, 3, n};         // pieces of 3, 7 columns
  for (int r = 0; r < 4; ++r) {
    for (int q = 0; q < 2; ++q) {
      const idx i0 = row_cuts[r], mi = row_cuts[r + 1] - i0;
      const idx j0 = col_cuts[q], nj = col_cuts[q + 1] - j0;
      gemm_inner(0.5, a.view().cols_range(i0, mi), b.view().cols_range(j0, nj),
                 parts.view().block(i0, j0, mi, nj));
    }
  }
  EXPECT_TRUE(same_bits(whole, parts));
}

TEST(GemmInner, SameBitsOnRepeatedCallsFromTwoThreads) {
  const idx m = 50, n = 50, k = 2501;
  Matrix a = random_matrix(k, m, 370);
  Matrix b = random_matrix(k, n, 371);
  Matrix c0 = random_matrix(m, n, 372);
  Matrix expect = c0;
  gemm_inner(1.0, a, b, expect.view());
  bool ok[2] = {true, true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 5; ++rep) {
        Matrix c = c0;
        gemm_inner(1.0, a, b, c.view());
        ok[t] = ok[t] && same_bits(c, expect);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
}

TEST(Gemm, BlockingParametersExposed) {
  const GemmBlocking blk = gemm_blocking();
  EXPECT_GT(blk.mr, 0);
  EXPECT_GT(blk.nr, 0);
  EXPECT_GE(blk.mc, blk.mr);
  EXPECT_GE(blk.nc, blk.nr);
}

}  // namespace
}  // namespace camult::blas
