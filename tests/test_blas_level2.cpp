// Tests for BLAS level-2 kernels against naive references.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "blas/level2.hpp"
#include "common/test_utils.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

using camult::test::matrices_near;

TEST(Gemv, NoTransMatchesReference) {
  Matrix a = random_matrix(7, 5, 1);
  std::vector<double> x(5), y(7), y_ref(7);
  for (int i = 0; i < 5; ++i) x[i] = i + 1;
  for (int i = 0; i < 7; ++i) y[i] = y_ref[i] = 0.5 * i;

  gemv(Trans::NoTrans, 2.0, a, x.data(), 1, 3.0, y.data(), 1);
  for (idx i = 0; i < 7; ++i) {
    double s = 0;
    for (idx j = 0; j < 5; ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    y_ref[static_cast<std::size_t>(i)] =
        2.0 * s + 3.0 * y_ref[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);
}

TEST(Gemv, TransMatchesReference) {
  Matrix a = random_matrix(7, 5, 2);
  std::vector<double> x(7), y(5), y_ref(5);
  for (int i = 0; i < 7; ++i) x[i] = i - 3;
  for (int i = 0; i < 5; ++i) y[i] = y_ref[i] = 1.0;

  gemv(Trans::Trans, -1.5, a, x.data(), 1, 0.0, y.data(), 1);
  for (idx j = 0; j < 5; ++j) {
    double s = 0;
    for (idx i = 0; i < 7; ++i) s += a(i, j) * x[static_cast<std::size_t>(i)];
    y_ref[static_cast<std::size_t>(j)] = -1.5 * s;
  }
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);
}

TEST(Gemv, BetaZeroOverwritesGarbage) {
  Matrix a = random_matrix(3, 3, 3);
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {std::numeric_limits<double>::quiet_NaN(), 0, 0};
  gemv(Trans::NoTrans, 1.0, a, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_FALSE(std::isnan(y[0]));
}

// The lane-accumulated Trans path: m not a multiple of 8 (the lane tail),
// column counts around the 4-column blocking, unit and strided x / y.
TEST(Gemv, TransLaneTailsMatchReference) {
  for (idx m : {idx{1}, idx{7}, idx{9}, idx{15}, idx{33}, idx{1001}}) {
    for (idx n : {idx{1}, idx{3}, idx{4}, idx{5}, idx{9}}) {
      for (idx inc : {idx{1}, idx{2}}) {
        Matrix a = random_matrix(m, n, 600 + static_cast<std::uint64_t>(m));
        Matrix xs = random_matrix(m * inc, 1, 601);
        std::vector<double> y(static_cast<std::size_t>(n * inc), 0.25);
        std::vector<double> y_ref = y;
        gemv(Trans::Trans, -0.5, a, xs.data(), inc, 2.0, y.data(), inc);
        for (idx j = 0; j < n; ++j) {
          double s = 0;
          for (idx i = 0; i < m; ++i) s += a(i, j) * xs(i * inc, 0);
          double& r = y_ref[static_cast<std::size_t>(j * inc)];
          r = -0.5 * s + 2.0 * r;
        }
        for (idx j = 0; j < n * inc; ++j) {
          EXPECT_NEAR(y[static_cast<std::size_t>(j)],
                      y_ref[static_cast<std::size_t>(j)],
                      1e-13 * static_cast<double>(m))
              << "m=" << m << " n=" << n << " inc=" << inc << " j=" << j;
        }
      }
    }
  }
}

TEST(Ger, Rank1Update) {
  Matrix a = Matrix::zeros(4, 3);
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {5, 6, 7};
  ger(2.0, x.data(), 1, y.data(), 1, a.view());
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(a(i, j), 2.0 * x[static_cast<std::size_t>(i)] *
                                    y[static_cast<std::size_t>(j)]);
    }
  }
}

struct TrsvCase {
  Uplo uplo;
  Trans trans;
  Diag diag;
};

class TrsvTest : public ::testing::TestWithParam<TrsvCase> {};

TEST_P(TrsvTest, SolveMatchesMultiply) {
  const auto& p = GetParam();
  const idx n = 9;
  Matrix a = random_matrix(n, n, 11);
  for (idx i = 0; i < n; ++i) a(i, i) += 4.0;  // well conditioned

  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) x_true[static_cast<std::size_t>(i)] = 1.0 + 0.1 * static_cast<double>(i);

  // b = op(T) * x_true via trmv on a copy.
  std::vector<double> b = x_true;
  trmv(p.uplo, p.trans, p.diag, a, b.data(), 1);
  // Solve in place.
  trsv(p.uplo, p.trans, p.diag, a, b.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsvTest,
    ::testing::Values(TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::Unit}));

class TrmvTest : public ::testing::TestWithParam<TrsvCase> {};

TEST_P(TrmvTest, MatchesExplicitTriangleMultiply) {
  const auto& p = GetParam();
  const idx n = 8;
  Matrix a = random_matrix(n, n, 13);
  Matrix t = test::reference_triangle(a, p.uplo, p.diag);

  std::vector<double> x(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = static_cast<double>(i) - 2.5;
  std::vector<double> x_ref(static_cast<std::size_t>(n), 0.0);
  for (idx i = 0; i < n; ++i) {
    double s = 0;
    for (idx j = 0; j < n; ++j) {
      const double tij = p.trans == Trans::NoTrans ? t(i, j) : t(j, i);
      s += tij * x[static_cast<std::size_t>(j)];
    }
    x_ref[static_cast<std::size_t>(i)] = s;
  }
  trmv(p.uplo, p.trans, p.diag, a, x.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_ref[static_cast<std::size_t>(i)], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrmvTest,
    ::testing::Values(TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::Unit}));

}  // namespace
}  // namespace camult::blas
