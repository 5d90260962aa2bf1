// trsm/trmm correctness across all side/uplo/trans/diag combinations,
// including sizes that cross the recursive base-case threshold.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

using camult::test::matrices_near;
using camult::test::reference_gemm;
using camult::test::reference_triangle;
using camult::test::reference_trsm;

struct Combo {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
};

std::vector<Combo> all_combos() {
  std::vector<Combo> v;
  for (Side s : {Side::Left, Side::Right}) {
    for (Uplo u : {Uplo::Lower, Uplo::Upper}) {
      for (Trans t : {Trans::NoTrans, Trans::Trans}) {
        for (Diag d : {Diag::NonUnit, Diag::Unit}) v.push_back({s, u, t, d});
      }
    }
  }
  return v;
}

class TrsmAllCombos : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(TrsmAllCombos, MatchesReference) {
  auto [m, n] = GetParam();
  int seed = 0;
  for (const Combo& c : all_combos()) {
    const idx n_tri = (c.side == Side::Left) ? m : n;
    Matrix a = random_matrix(n_tri, n_tri, 300 + seed);
    for (idx i = 0; i < n_tri; ++i) a(i, i) += 3.0;  // well conditioned
    Matrix b = random_matrix(m, n, 400 + seed);

    Matrix x = b;
    trsm(c.side, c.uplo, c.trans, c.diag, 1.5, a, x.view());
    Matrix x_ref = reference_trsm(c.side, c.uplo, c.trans, c.diag, 1.5, a, b);
    // Unit-diagonal random triangles are ill conditioned, so solutions grow
    // large; compare with a tolerance relative to the solution magnitude.
    const double tol =
        1e-13 * std::max(1.0, norm_max(x_ref)) * static_cast<double>(n_tri);
    EXPECT_TRUE(matrices_near(x, x_ref, tol))
        << "side=" << (c.side == Side::Right) << " uplo="
        << (c.uplo == Uplo::Upper) << " trans=" << (c.trans == Trans::Trans)
        << " diag=" << (c.diag == Diag::Unit) << " m=" << m << " n=" << n;
    ++seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TrsmAllCombos,
                         ::testing::Values(std::tuple<idx, idx>{1, 1},
                                           std::tuple<idx, idx>{5, 7},
                                           std::tuple<idx, idx>{17, 9},
                                           std::tuple<idx, idx>{63, 65},
                                           std::tuple<idx, idx>{64, 64},
                                           std::tuple<idx, idx>{100, 130},
                                           std::tuple<idx, idx>{129, 40}));

// Tall B for the right-side base case, which sweeps B in row strips of
// kTrsmStripRows: m straddles one strip boundary or ends in a ragged strip
// after several full ones; n covers a single column, both sides of the
// base-case cutoff (32 with the 8-row kernels) and the tall_skinny panel
// width 50.
INSTANTIATE_TEST_SUITE_P(
    RightStrips, TrsmAllCombos,
    ::testing::Combine(::testing::Values(kTrsmStripRows - 1,
                                         kTrsmStripRows + 1,
                                         3 * kTrsmStripRows + 5),
                       ::testing::Values(idx{1}, idx{31}, idx{33}, idx{50},
                                         idx{65})));

class TrmmAllCombos : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(TrmmAllCombos, MatchesExplicitMultiply) {
  auto [m, n] = GetParam();
  int seed = 0;
  for (const Combo& c : all_combos()) {
    const idx n_tri = (c.side == Side::Left) ? m : n;
    Matrix a = random_matrix(n_tri, n_tri, 500 + seed);
    Matrix b = random_matrix(m, n, 600 + seed);

    Matrix x = b;
    trmm(c.side, c.uplo, c.trans, c.diag, 2.0, a, x.view());

    // Reference: explicit triangle times B.
    Matrix t = reference_triangle(a, c.uplo, c.diag);
    Matrix x_ref = Matrix::zeros(m, n);
    if (c.side == Side::Left) {
      reference_gemm(c.trans, Trans::NoTrans, 2.0, t, b, 0.0, x_ref.view());
    } else {
      reference_gemm(Trans::NoTrans, c.trans, 2.0, b, t, 0.0, x_ref.view());
    }
    EXPECT_TRUE(matrices_near(x, x_ref, 1e-11))
        << "side=" << (c.side == Side::Right) << " uplo="
        << (c.uplo == Uplo::Upper) << " trans=" << (c.trans == Trans::Trans)
        << " diag=" << (c.diag == Diag::Unit) << " m=" << m << " n=" << n;
    ++seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TrmmAllCombos,
                         ::testing::Values(std::tuple<idx, idx>{1, 1},
                                           std::tuple<idx, idx>{6, 8},
                                           std::tuple<idx, idx>{16, 11},
                                           std::tuple<idx, idx>{63, 65},
                                           std::tuple<idx, idx>{64, 64},
                                           std::tuple<idx, idx>{101, 90},
                                           std::tuple<idx, idx>{128, 33}));

TEST(Trsm, TriangularOppositeHalfNotRead) {
  // Poison the unreferenced triangle with NaN: trsm must not read it.
  const idx n = 40;
  Matrix a = random_matrix(n, n, 9);
  for (idx i = 0; i < n; ++i) a(i, i) += 3.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < j; ++i) {
      a(i, j) = std::numeric_limits<double>::quiet_NaN();  // upper half
    }
  }
  Matrix b = random_matrix(n, 5, 10);
  trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 1.0, a,
       b.view());
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < n; ++i) EXPECT_FALSE(std::isnan(b(i, j)));
  }
}

TEST(Trsm, RightTriangularOppositeHalfNotRead) {
  // Right side: poison the triangle op(A) does not reference with NaN, for
  // each uplo/trans; 300 rows span several row strips of the base case.
  const idx n = 40, m = 300;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Uplo u : {Uplo::Lower, Uplo::Upper}) {
    for (Trans t : {Trans::NoTrans, Trans::Trans}) {
      Matrix a = random_matrix(n, n, 13);
      for (idx i = 0; i < n; ++i) a(i, i) += 3.0;
      for (idx j = 0; j < n; ++j) {
        for (idx i = 0; i < n; ++i) {
          if (u == Uplo::Lower ? i < j : i > j) a(i, j) = nan;
        }
      }
      Matrix b = random_matrix(m, n, 14);
      trsm(Side::Right, u, t, Diag::NonUnit, 1.0, a, b.view());
      for (idx j = 0; j < n; ++j) {
        for (idx i = 0; i < m; ++i) {
          ASSERT_FALSE(std::isnan(b(i, j)))
              << "uplo=" << (u == Uplo::Upper)
              << " trans=" << (t == Trans::Trans) << " at (" << i << ", "
              << j << ")";
        }
      }
    }
  }
}

TEST(Trmm, UnitDiagonalNotRead) {
  const idx n = 24;
  Matrix a = random_matrix(n, n, 11);
  for (idx i = 0; i < n; ++i) {
    a(i, i) = std::numeric_limits<double>::quiet_NaN();
  }
  Matrix b = random_matrix(n, 3, 12);
  trmm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, 1.0, a, b.view());
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < n; ++i) EXPECT_FALSE(std::isnan(b(i, j)));
  }
}

TEST(Trsm, EmptyRhsIsNoop) {
  Matrix a = random_matrix(4, 4, 1);
  Matrix b(4, 0);
  trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, 1.0, a, b.view());
  SUCCEED();
}

TEST(Syrk, MatchesGemmOnTriangle) {
  const idx n = 20, k = 7;
  Matrix a = random_matrix(n, k, 31);
  Matrix c = random_matrix(n, n, 32);
  Matrix c_before = c;
  Matrix c_full = c;

  syrk(Uplo::Lower, Trans::NoTrans, 2.0, a, 0.5, c.view());
  reference_gemm(Trans::NoTrans, Trans::Trans, 2.0, a, a, 0.5, c_full.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = j; i < n; ++i) EXPECT_NEAR(c(i, j), c_full(i, j), 1e-12);
    for (idx i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(c(i, j), c_before(i, j))
        << "upper triangle must not be modified";
  }
}

// A NaN anywhere in a referenced A row must poison the referenced triangle
// even when the scaled row value t is exactly zero — the NoTrans branch
// used to skip t == 0.0 terms, hiding NaNs that the Trans branch (and gemm)
// propagate. Both branches must agree.
TEST(Syrk, NanPropagatesThroughZeroTerms) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const idx n = 9, k = 5;
  Matrix a = random_matrix(n, k, 51);
  a(2, 0) = 0.0;  // t = alpha * a(j=2, p=0) == 0 in the NoTrans branch
  a(4, 0) = nan;  // ... multiplied against this NaN
  Matrix c = random_matrix(n, n, 52);
  syrk(Uplo::Lower, Trans::NoTrans, 1.0, a, 1.0, c.view());
  EXPECT_TRUE(std::isnan(c(4, 2)));  // 0 * NaN term lands here
  EXPECT_TRUE(std::isnan(c(4, 4)));  // diagonal sees NaN^2
  EXPECT_FALSE(std::isnan(c(3, 2)));

  // Trans variant on the transposed data must flag the mirrored element.
  Matrix at(k, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < k; ++i) at(i, j) = a(j, i);
  }
  Matrix ct = random_matrix(n, n, 53);
  syrk(Uplo::Upper, Trans::Trans, 1.0, at, 1.0, ct.view());
  EXPECT_TRUE(std::isnan(ct(2, 4)));
  EXPECT_FALSE(std::isnan(ct(2, 3)));
}

TEST(Syrk, TransVariantUpper) {
  const idx n = 11, k = 9;
  Matrix a = random_matrix(k, n, 41);
  Matrix c = random_matrix(n, n, 42);
  Matrix c_before = c;
  Matrix c_full = c;

  syrk(Uplo::Upper, Trans::Trans, 1.0, a, 0.0, c.view());
  reference_gemm(Trans::Trans, Trans::NoTrans, 1.0, a, a, 0.0, c_full.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), c_full(i, j), 1e-12);
    for (idx i = j + 1; i < n; ++i) EXPECT_DOUBLE_EQ(c(i, j), c_before(i, j));
  }
}

}  // namespace
}  // namespace camult::blas
