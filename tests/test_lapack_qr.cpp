// QR factorization tests: larfg, geqr2, larft/larfb, blocked geqrf,
// recursive geqr3, orgqr/ormqr. Invariants: ||A - QR|| small, Q orthogonal,
// recursive and blocked variants agree with the unblocked one, the T factor
// satisfies Q = I - V T V^T.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::lapack {
namespace {

using camult::test::kResidualThreshold;
using camult::test::matrices_near;

TEST(Larfg, AnnihilatesVector) {
  // H [alpha; x] should equal [beta; 0] with |beta| = ||[alpha; x]||.
  std::vector<double> v = {3.0, 4.0, 0.0};
  double alpha = v[0];
  const double full_norm = 5.0;
  const double tau = larfg(3, alpha, v.data() + 1, 1);
  EXPECT_NEAR(std::abs(alpha), full_norm, 1e-14);
  // Reconstruct: H [a; x] = [a;x] - tau ([1;v] ([1;v]^T [a;x])).
  // Verify via the defining property instead: apply H to the original.
  std::vector<double> orig = {3.0, 4.0, 0.0};
  const double vdot = orig[0] + v[1] * orig[1] + v[2] * orig[2];
  std::vector<double> h = {orig[0] - tau * vdot, orig[1] - tau * v[1] * vdot,
                           orig[2] - tau * v[2] * vdot};
  EXPECT_NEAR(h[0], alpha, 1e-14);
  EXPECT_NEAR(h[1], 0.0, 1e-14);
  EXPECT_NEAR(h[2], 0.0, 1e-14);
}

TEST(Larfg, ZeroTailGivesTauZero) {
  std::vector<double> v = {0.0, 0.0};
  double alpha = 2.5;
  const double tau = larfg(3, alpha, v.data(), 1);
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(alpha, 2.5);
}

TEST(Larfg, LengthOneIsIdentity) {
  double alpha = -7.0;
  EXPECT_EQ(larfg(1, alpha, nullptr, 1), 0.0);
  EXPECT_EQ(alpha, -7.0);
}

TEST(Larfg, TinyValuesRescaled) {
  std::vector<double> v = {1e-310, 1e-310};
  double alpha = 1e-310;
  const double tau = larfg(3, alpha, v.data(), 1);
  EXPECT_TRUE(std::isfinite(tau));
  EXPECT_TRUE(std::isfinite(alpha));
  EXPECT_GT(std::abs(alpha), 0.0);
}

using QrShape = std::tuple<idx, idx>;

class Geqr2Shapes : public ::testing::TestWithParam<QrShape> {};

TEST_P(Geqr2Shapes, ResidualAndOrthogonality) {
  auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, 3);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);
  EXPECT_LT(qr_residual(a, qr, tau), kResidualThreshold);
  const idx k = std::min(m, n);
  Matrix q(m, k);
  orgqr(qr.view().cols_range(0, k), tau, q.view());
  EXPECT_LT(orthogonality_residual(q), kResidualThreshold);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Geqr2Shapes,
                         ::testing::Values(QrShape{1, 1}, QrShape{5, 5},
                                           QrShape{10, 4}, QrShape{4, 10},
                                           QrShape{50, 20}, QrShape{64, 64},
                                           QrShape{33, 19}, QrShape{128, 1}));

TEST(Larft, ReproducesProductOfReflectors) {
  // Q from orgqr (product of H_j) must equal I - V T V^T.
  const idx m = 30, n = 8;
  Matrix a = random_matrix(m, n, 5);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);

  Matrix t = Matrix::zeros(n, n);
  larft(qr.view(), tau.data(), t.view());

  // Apply I - V T V^T to the identity.
  Matrix c = Matrix::identity(m, m);
  larfb_left(blas::Trans::NoTrans, qr.view(), t.view(), c.view());

  Matrix q_full(m, m);
  // orgqr needs n <= cols <= m; build full Q by applying reflectors to I.
  set_identity(q_full.view());
  ormqr_left(blas::Trans::NoTrans, qr.view(), tau, q_full.view());
  EXPECT_TRUE(matrices_near(c, q_full, 1e-12));
}

TEST(LarfbLeft, TransIsInverseOfNoTrans) {
  const idx m = 40, n = 12, k = 10;
  Matrix a = random_matrix(m, k, 7);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);
  Matrix t = Matrix::zeros(k, k);
  larft(qr.view(), tau.data(), t.view());

  Matrix c = random_matrix(m, n, 8);
  Matrix c0 = c;
  larfb_left(blas::Trans::NoTrans, qr.view(), t.view(), c.view());
  larfb_left(blas::Trans::Trans, qr.view(), t.view(), c.view());
  EXPECT_TRUE(matrices_near(c, c0, 1e-11));
}

TEST(LarfbLeft, MatchesReflectorLoop) {
  const idx m = 25, n = 9, k = 6;
  Matrix a = random_matrix(m, k, 9);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);
  Matrix t = Matrix::zeros(k, k);
  larft(qr.view(), tau.data(), t.view());

  Matrix c1 = random_matrix(m, n, 10);
  Matrix c2 = c1;
  // Block application of Q^T...
  larfb_left(blas::Trans::Trans, qr.view(), t.view(), c1.view());
  // ...equals the reflector-by-reflector application.
  ormqr_left(blas::Trans::Trans, qr.view(), tau, c2.view());
  EXPECT_TRUE(matrices_near(c1, c2, 1e-12));
}

struct GeqrfParam {
  idx m, n, nb;
  bool recursive;
};

class GeqrfSweep : public ::testing::TestWithParam<GeqrfParam> {};

TEST_P(GeqrfSweep, ResidualAndOrthogonality) {
  const auto& p = GetParam();
  Matrix a = random_matrix(p.m, p.n, 11);
  Matrix qr = a;
  std::vector<double> tau;
  GeqrfOptions opts;
  opts.nb = p.nb;
  opts.recursive_panel = p.recursive;
  geqrf(qr.view(), tau, opts);
  EXPECT_LT(qr_residual(a, qr, tau), kResidualThreshold);
  const idx k = std::min(p.m, p.n);
  Matrix q(p.m, k);
  orgqr(qr.view().cols_range(0, k), tau, q.view());
  EXPECT_LT(orthogonality_residual(q), kResidualThreshold);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeqrfSweep,
    ::testing::Values(GeqrfParam{64, 64, 16, false},
                      GeqrfParam{64, 64, 16, true},
                      GeqrfParam{100, 100, 32, true},
                      GeqrfParam{127, 127, 32, true},
                      GeqrfParam{128, 40, 64, true},   // single-ish panel
                      GeqrfParam{128, 40, 100, true},  // nb > n
                      GeqrfParam{60, 200, 24, true},   // wide
                      GeqrfParam{97, 53, 13, false},
                      GeqrfParam{300, 150, 64, true}));

TEST(Geqrf, RMatchesUnblockedUpToSigns) {
  // R is unique up to row signs; with the same Householder convention the
  // blocked and unblocked factorizations agree exactly on distinct inputs.
  Matrix a = random_matrix(80, 40, 13);
  Matrix qr1 = a, qr2 = a, qr3 = a;
  std::vector<double> tau1, tau2, tau3;
  geqr2(qr1.view(), tau1);
  GeqrfOptions blocked;
  blocked.nb = 16;
  blocked.recursive_panel = false;
  geqrf(qr2.view(), tau2, blocked);
  GeqrfOptions recur;
  recur.nb = 16;
  recur.recursive_panel = true;
  geqrf(qr3.view(), tau3, recur);
  // Compare the R factors (upper triangles).
  Matrix r1 = extract_upper(qr1, 40);
  Matrix r2 = extract_upper(qr2, 40);
  Matrix r3 = extract_upper(qr3, 40);
  EXPECT_TRUE(matrices_near(r1, r2, 1e-10));
  EXPECT_TRUE(matrices_near(r1, r3, 1e-10));
}

class Geqr3Shapes : public ::testing::TestWithParam<QrShape> {};

TEST_P(Geqr3Shapes, ResidualAndTFactor) {
  auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, 15);
  Matrix qr = a;
  std::vector<double> tau;
  Matrix t = Matrix::zeros(n, n);
  geqr3(qr.view(), tau, t.view());
  EXPECT_LT(qr_residual(a, qr, tau), kResidualThreshold);

  // The returned T must satisfy: applying I - V T^T V^T ... i.e. the
  // block reflector from (V, T) equals the product of the reflectors.
  Matrix c1 = random_matrix(m, 7, 16);
  Matrix c2 = c1;
  larfb_left(blas::Trans::Trans, qr.view(), t.view(), c1.view());
  ormqr_left(blas::Trans::Trans, qr.view(), tau, c2.view());
  EXPECT_TRUE(matrices_near(c1, c2, 1e-11));
}

INSTANTIATE_TEST_SUITE_P(Shapes, Geqr3Shapes,
                         ::testing::Values(QrShape{1, 1}, QrShape{8, 8},
                                           QrShape{9, 9}, QrShape{16, 16},
                                           QrShape{40, 17}, QrShape{100, 64},
                                           QrShape{200, 100},
                                           QrShape{65, 33}));

TEST(Geqr3, MatchesGeqr2Factors) {
  Matrix a = random_matrix(60, 24, 19);
  Matrix qr1 = a, qr2 = a;
  std::vector<double> tau1, tau2;
  geqr2(qr1.view(), tau1);
  Matrix t = Matrix::zeros(24, 24);
  geqr3(qr2.view(), tau2, t.view());
  EXPECT_TRUE(matrices_near(qr1, qr2, 1e-10));
  for (std::size_t i = 0; i < tau1.size(); ++i) {
    EXPECT_NEAR(tau1[i], tau2[i], 1e-12);
  }
}

TEST(Orgqr, ColumnsAreOrthonormal) {
  Matrix a = random_matrix(50, 20, 21);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);
  Matrix q = make_q(qr.view(), tau);
  EXPECT_LT(orthogonality_residual(q), kResidualThreshold);
}

TEST(OrmqrLeft, QtQIsIdentityAction) {
  const idx m = 30, k = 12;
  Matrix a = random_matrix(m, k, 23);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);
  Matrix c = random_matrix(m, 5, 24);
  Matrix c0 = c;
  ormqr_left(blas::Trans::Trans, qr.view(), tau, c.view());
  ormqr_left(blas::Trans::NoTrans, qr.view(), tau, c.view());
  EXPECT_TRUE(matrices_near(c, c0, 1e-12));
}

TEST(OrmqrLeft, ReproducesRFromA) {
  // Q^T A = [R; 0].
  const idx m = 40, n = 15;
  Matrix a = random_matrix(m, n, 25);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);
  Matrix qta = a;
  ormqr_left(blas::Trans::Trans, qr.view(), tau, qta.view());
  Matrix r = extract_upper(qr, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      EXPECT_NEAR(qta(i, j), r(i, j), 1e-11) << i << "," << j;
    }
    for (idx i = n; i < m; ++i) {
      EXPECT_NEAR(qta(i, j), 0.0, 1e-11);
    }
  }
}

TEST(Geqrf, RankDeficientStillOrthogonal) {
  Matrix a = random_rank_deficient_matrix(60, 30, 10, 27);
  Matrix qr = a;
  std::vector<double> tau;
  geqrf(qr.view(), tau);
  EXPECT_LT(qr_residual(a, qr, tau), kResidualThreshold);
  Matrix q(60, 30);
  orgqr(qr.view(), tau, q.view());
  EXPECT_LT(orthogonality_residual(q), kResidualThreshold);
}

TEST(Geqrf, ZeroMatrix) {
  Matrix a = Matrix::zeros(20, 10);
  Matrix qr = a;
  std::vector<double> tau;
  geqrf(qr.view(), tau);
  for (double t : tau) EXPECT_EQ(t, 0.0);
  EXPECT_EQ(norm_max(qr), 0.0);
}


TEST(Orgqr, MoreColumnsThanReflectors) {
  // Generate a 20-column orthonormal basis from 8 reflectors: the extra
  // columns are the reflected identity columns.
  const idx m = 40, k = 8, nq = 20;
  Matrix a = random_matrix(m, k, 301);
  Matrix qr = a;
  std::vector<double> tau;
  geqr2(qr.view(), tau);
  Matrix q(m, nq);
  orgqr(qr.view(), tau, q.view());
  EXPECT_LT(orthogonality_residual(q), kResidualThreshold);
  // First k columns reproduce A's column space: A = Q(:,1:k) R.
  Matrix r = extract_upper(qr, k);
  Matrix recon = Matrix::zeros(m, k);
  blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, 1.0,
             q.view().cols_range(0, k), r, 0.0, recon.view());
  EXPECT_TRUE(test::matrices_near(recon, a, 1e-10 * 40));
}

TEST(Geqrf, ZeroColumnsIsNoop) {
  Matrix a(15, 0);
  std::vector<double> tau;
  geqrf(a.view(), tau);
  EXPECT_TRUE(tau.empty());
}

TEST(LarfbLeft, EmptyCIsNoop) {
  Matrix v = random_matrix(10, 4, 303);
  std::vector<double> tau;
  geqr2(v.view(), tau);
  Matrix t = Matrix::zeros(4, 4);
  larft(v.view(), tau.data(), t.view());
  Matrix c(10, 0);
  larfb_left(blas::Trans::Trans, v.view(), t.view(), c.view());
  SUCCEED();
}

// The Gram-product shape rule reads only the reflector shape: a narrow, tall
// V (k <= 64, m - k >= 16 k) takes gemm_inner for W = C2^T V2, so its pack
// skips the dead B-operand copy; a wide one keeps both packs. Either way the
// packed application matches the unpacked one bit for bit.
TEST(LarfbLeft, PackedMatchesUnpackedOnBothSidesOfShapeRule) {
  struct Shape {
    idx m, k;
    bool inner;
  };
  for (const Shape& sh : {Shape{1000, 50, true}, Shape{816, 48, true},
                          Shape{815, 48, false}, Shape{500, 100, false},
                          Shape{96, 16, false}}) {
    Matrix v = random_matrix(sh.m, sh.k, 310);
    std::vector<double> tau;
    Matrix t = Matrix::zeros(sh.k, sh.k);
    geqr3(v.view(), tau, t.view());
    const LarfbPackedV vp = larfb_pack_v(v.view());
    EXPECT_FALSE(vp.v2_a.empty()) << sh.m << "x" << sh.k;
    EXPECT_EQ(vp.v2_b.empty(), sh.inner) << sh.m << "x" << sh.k;
    for (blas::Trans tr : {blas::Trans::Trans, blas::Trans::NoTrans}) {
      Matrix c_packed = random_matrix(sh.m, 37, 311);
      Matrix c_plain = c_packed;
      larfb_left(tr, v.view(), t.view(), vp, c_packed.view());
      larfb_left(tr, v.view(), t.view(), c_plain.view());
      EXPECT_EQ(test::max_diff(c_packed.view(), c_plain.view()), 0.0)
          << sh.m << "x" << sh.k;
    }
  }
}

}  // namespace
}  // namespace camult::lapack
