// Tests for BLAS level-1 kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "blas/level1.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

TEST(Iamax, FindsLargestMagnitude) {
  std::vector<double> x = {1.0, -5.0, 3.0, 4.0};
  EXPECT_EQ(iamax(4, x.data(), 1), 1);
}

TEST(Iamax, FirstOnTies) {
  std::vector<double> x = {2.0, -2.0, 2.0};
  EXPECT_EQ(iamax(3, x.data(), 1), 0);
}

TEST(Iamax, EmptyReturnsMinusOne) {
  EXPECT_EQ(iamax(0, nullptr, 1), -1);
}

TEST(Iamax, Strided) {
  std::vector<double> x = {1.0, 99.0, 2.0, 99.0, -7.0, 99.0};
  EXPECT_EQ(iamax(3, x.data(), 2), 2);
}

TEST(Swap, ExchangesStridedVectors) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {5, 6, 7, 8};
  swap(2, x.data(), 2, y.data(), 1);
  EXPECT_EQ(x, (std::vector<double>{5, 2, 6, 4}));
  EXPECT_EQ(y, (std::vector<double>{1, 3, 7, 8}));
}

TEST(Scal, ScalesInPlace) {
  std::vector<double> x = {1, 2, 3};
  scal(3, -2.0, x.data(), 1);
  EXPECT_EQ(x, (std::vector<double>{-2, -4, -6}));
}

TEST(Axpy, Accumulates) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  axpy(3, 2.0, x.data(), 1, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{12, 24, 36}));
}

TEST(Axpy, AlphaZeroIsNoop) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  axpy(3, 0.0, x.data(), 1, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{10, 20, 30}));
}

TEST(Dot, Computes) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(3, x.data(), 1, y.data(), 1), 32.0);
}

TEST(Nrm2, PythagoreanTriple) {
  std::vector<double> x = {3, 4};
  EXPECT_DOUBLE_EQ(nrm2(2, x.data(), 1), 5.0);
}

TEST(Nrm2, AvoidsOverflow) {
  std::vector<double> x = {1e300, 1e300};
  EXPECT_TRUE(std::isfinite(nrm2(2, x.data(), 1)));
  EXPECT_NEAR(nrm2(2, x.data(), 1) / 1e300, std::sqrt(2.0), 1e-12);
}

TEST(Nrm2, AvoidsUnderflow) {
  std::vector<double> x = {1e-300, 1e-300};
  EXPECT_GT(nrm2(2, x.data(), 1), 0.0);
  EXPECT_NEAR(nrm2(2, x.data(), 1) / 1e-300, std::sqrt(2.0), 1e-12);
}

TEST(Nrm2, ZeroVector) {
  std::vector<double> x = {0.0, 0.0, 0.0};
  EXPECT_EQ(nrm2(3, x.data(), 1), 0.0);
}

// The scaled sum of squares nrm2 falls back to: the reference for accuracy,
// and for the exact result on non-finite input.
double scaled_nrm2(idx n, const double* x, idx incx) {
  double scale = 0.0;
  double ssq = 1.0;
  for (idx i = 0; i < n; ++i) {
    const double v = std::abs(x[i * incx]);
    if (v == 0.0) continue;
    if (scale < v) {
      const double r = scale / v;
      ssq = 1.0 + ssq * r * r;
      scale = v;
    } else {
      const double r = v / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

::testing::AssertionResult within_ulps(double got, double want, double ulps) {
  const double tol = ulps * std::numeric_limits<double>::epsilon() *
                     std::abs(want);
  if (std::abs(got - want) <= tol) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << got << " vs " << want << " (tol " << tol << ")";
}

bool same_double(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0 ||
         (std::isnan(x) && std::isnan(y));
}

TEST(Nrm2Lanes, LengthsOneToSeventeen) {
  for (idx n = 1; n <= 17; ++n) {
    Matrix x = random_matrix(n, 1, 500 + static_cast<std::uint64_t>(n));
    EXPECT_TRUE(within_ulps(nrm2(n, x.data(), 1), scaled_nrm2(n, x.data(), 1),
                            4.0))
        << "n=" << n;
  }
}

TEST(Nrm2Lanes, StridedMatchesScaledLoop) {
  for (idx n = 1; n <= 17; ++n) {
    Matrix x = random_matrix(3 * n, 1, 520 + static_cast<std::uint64_t>(n));
    EXPECT_TRUE(within_ulps(nrm2(n, x.data() + 1, 3),
                            scaled_nrm2(n, x.data() + 1, 3), 4.0))
        << "n=" << n;
  }
}

// Squares that would underflow (1e-160^2 = 1e-320) or overflow
// (1e160^2 = inf) leave the fast path; the result still tracks the scaled
// loop to a few ulps, also for a long vector and a mixed-scale one.
TEST(Nrm2Lanes, ExtremeScalesAgreeWithScaledLoop) {
  for (double scale : {1e-160, 1e-300, 1e160, 1e300}) {
    for (idx n : {idx{1}, idx{9}, idx{1000}}) {
      Matrix x = random_matrix(n, 1, 540);
      for (idx i = 0; i < n; ++i) x(i, 0) *= scale;
      EXPECT_TRUE(within_ulps(nrm2(n, x.data(), 1),
                              scaled_nrm2(n, x.data(), 1), 8.0))
          << "scale=" << scale << " n=" << n;
      EXPECT_TRUE(within_ulps(nrm2((n + 1) / 2, x.data(), 2),
                              scaled_nrm2((n + 1) / 2, x.data(), 2), 8.0))
          << "strided scale=" << scale << " n=" << n;
    }
  }
  Matrix mixed = random_matrix(21, 1, 541);
  mixed(3, 0) = 1e-170;
  mixed(11, 0) = 1e-200;
  EXPECT_TRUE(within_ulps(nrm2(21, mixed.data(), 1),
                          scaled_nrm2(21, mixed.data(), 1), 4.0));
}

TEST(Nrm2Lanes, NonFiniteReturnsWhatScaledLoopReturns) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> cases = {
      {nan},          {inf},          {-inf},
      {1.0, nan, 2.0}, {1.0, inf, 2.0}, {inf, nan},
      {nan, inf},     {0.0, -inf, 0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0},
      {1e300, 1e300, inf}};
  for (const std::vector<double>& v : cases) {
    const idx n = static_cast<idx>(v.size());
    const double got = nrm2(n, v.data(), 1);
    const double want = scaled_nrm2(n, v.data(), 1);
    EXPECT_TRUE(same_double(got, want)) << got << " vs " << want;
  }
}

TEST(Copy, CopiesStrided) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y(2, 0.0);
  copy(2, x.data(), 2, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{1, 3}));
}

TEST(Asum, SumsMagnitudes) {
  std::vector<double> x = {1, -2, 3};
  EXPECT_DOUBLE_EQ(asum(3, x.data(), 1), 6.0);
}

}  // namespace
}  // namespace camult::blas
