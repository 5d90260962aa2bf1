// Adversarial numerics sweep: CALU and CAQR over hostile input ensembles
// (Wilkinson growth, near-singular, duplicate rows, rank-deficient, badly
// scaled), both reduction trees, asserting the backward-error bounds
// ||PA - LU|| / ||A|| resp. ||A - QR|| / ||A|| stay at the partial-pivoting
// / Householder level. These inputs stress the tournament-pivot and
// reflector paths that random well-conditioned matrices never do: pivot
// ties, zero pivots, 2^(n-1) growth and 2^40 dynamic range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "core/tournament.hpp"
#include "lapack/lapack.hpp"
#include "matrix/random.hpp"

namespace camult {
namespace {

using camult::test::AdversarialCase;
using camult::test::adversarial_cases;
using camult::test::kResidualThreshold;

struct AdvParam {
  idx m, n, b, tr;
  core::ReductionTree tree;
};

std::string tree_name(core::ReductionTree t) {
  return t == core::ReductionTree::Binary ? "binary" : "flat";
}

class AdversarialSweep : public ::testing::TestWithParam<AdvParam> {};

TEST_P(AdversarialSweep, CaluBackwardError) {
  const AdvParam& p = GetParam();
  for (const AdversarialCase& c : adversarial_cases(p.m, p.n, 911)) {
    const std::string what =
        c.name + " " + std::to_string(c.a.rows()) + "x" +
        std::to_string(c.a.cols()) + " tree=" + tree_name(p.tree);
    Matrix lu = c.a;
    core::CaluOptions opts;
    opts.b = p.b;
    opts.tr = p.tr;
    opts.tree = p.tree;
    opts.num_threads = 4;
    core::CaluResult res = core::calu_factor(lu.view(), opts);
    if (!c.singular) {
      EXPECT_EQ(res.info, 0) << what;
    }
    EXPECT_LT(lapack::lu_residual(c.a.view(), lu.view(), res.ipiv),
              kResidualThreshold)
        << what;
  }
}

TEST_P(AdversarialSweep, CaqrBackwardError) {
  const AdvParam& p = GetParam();
  for (const AdversarialCase& c : adversarial_cases(p.m, p.n, 913)) {
    const std::string what =
        c.name + " " + std::to_string(c.a.rows()) + "x" +
        std::to_string(c.a.cols()) + " tree=" + tree_name(p.tree);
    Matrix fact = c.a;
    core::CaqrOptions opts;
    opts.b = p.b;
    opts.tr = p.tr;
    opts.tree = p.tree;
    opts.num_threads = 4;
    core::CaqrResult res = core::caqr_factor(fact.view(), opts);
    EXPECT_LT(core::caqr_residual(c.a.view(), fact.view(), res),
              kResidualThreshold)
        << what;
    const Matrix q = core::caqr_explicit_q(fact.view(), res);
    EXPECT_LT(lapack::orthogonality_residual(q.view()), kResidualThreshold)
        << what;
  }
}

// The pack-once trailing update must be a pure replumbing: factoring with
// and without pack_trailing has to produce identical pivots and bits. The
// adversarial inputs make this a strong check — any divergence in the
// tournament or update path shows up as a pivot or bit difference.
TEST(AdversarialPackParity, CaluPackedMatchesUnpacked) {
  for (const AdversarialCase& c : adversarial_cases(180, 60, 917)) {
    Matrix packed = c.a;
    Matrix plain = c.a;
    core::CaluOptions opts;
    opts.b = 20;
    opts.tr = 4;
    opts.num_threads = 4;
    opts.pack_trailing = true;
    core::CaluResult rp = core::calu_factor(packed.view(), opts);
    opts.pack_trailing = false;
    core::CaluResult ru = core::calu_factor(plain.view(), opts);
    ASSERT_EQ(rp.ipiv.size(), ru.ipiv.size()) << c.name;
    for (std::size_t i = 0; i < rp.ipiv.size(); ++i) {
      EXPECT_EQ(rp.ipiv[i], ru.ipiv[i]) << c.name << " pivot " << i;
    }
    EXPECT_EQ(camult::test::max_diff(packed.view(), plain.view()), 0.0)
        << c.name;
  }
}

TEST(AdversarialPackParity, CaqrPackedMatchesUnpacked) {
  for (const AdversarialCase& c : adversarial_cases(180, 60, 919)) {
    Matrix packed = c.a;
    Matrix plain = c.a;
    core::CaqrOptions opts;
    opts.b = 20;
    opts.tr = 4;
    opts.num_threads = 4;
    opts.pack_trailing = true;
    core::caqr_factor(packed.view(), opts);
    opts.pack_trailing = false;
    core::caqr_factor(plain.view(), opts);
    EXPECT_EQ(camult::test::max_diff(packed.view(), plain.view()), 0.0)
        << c.name;
  }
}

// The same parity where the leaves are tall enough (1000 x 50 reflectors)
// for larfb to take the Gram-product kernel: the packed and unpacked S
// tasks must agree on the shape rule, or the bits split.
TEST(AdversarialPackParity, CaqrPackedMatchesUnpackedTallLeaves) {
  for (const AdversarialCase& c : adversarial_cases(4000, 100, 921)) {
    Matrix packed = c.a;
    Matrix plain = c.a;
    core::CaqrOptions opts;
    opts.b = 50;
    opts.tr = 4;
    opts.num_threads = 4;
    opts.pack_trailing = true;
    core::caqr_factor(packed.view(), opts);
    opts.pack_trailing = false;
    core::caqr_factor(plain.view(), opts);
    EXPECT_EQ(camult::test::max_diff(packed.view(), plain.view()), 0.0)
        << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversarialSweep,
    ::testing::Values(
        AdvParam{120, 120, 30, 4, core::ReductionTree::Binary},
        AdvParam{120, 120, 30, 4, core::ReductionTree::Flat},
        AdvParam{240, 60, 20, 4, core::ReductionTree::Binary},
        AdvParam{240, 60, 20, 4, core::ReductionTree::Flat}));

// ---- Health monitoring on poisoned / degenerate ensembles ---------------
//
// The monitor's contract: NaN/Inf inputs are FLAGGED but never trigger the
// GEPP fallback (GEPP on poison is equally lost); an exactly singular panel
// triggers the fallback and produces finite factors whose backward error
// matches plain GEPP; healthy inputs are bit-identical monitored or not.

bool all_finite(ConstMatrixView a) {
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      if (!std::isfinite(a(i, j))) return false;
    }
  }
  return true;
}

TEST(AdversarialHealth, CaluFlagsNanInputWithoutFallback) {
  Matrix a = camult::test::nan_seeded_matrix(96, 96, 1001);
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(a.view(), opts);
  EXPECT_TRUE(res.health.nan_detected);
  EXPECT_EQ(res.health.fallback_panels, 0);
  EXPECT_TRUE(res.health.degraded());
}

TEST(AdversarialHealth, CaluFlagsInfInputWithoutFallback) {
  Matrix a = camult::test::inf_seeded_matrix(96, 96, 1003);
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(a.view(), opts);
  EXPECT_TRUE(res.health.nan_detected);
  EXPECT_EQ(res.health.fallback_panels, 0);
}

TEST(AdversarialHealth, CaqrFlagsPoisonedInput) {
  for (const bool use_nan : {true, false}) {
    Matrix a = use_nan ? camult::test::nan_seeded_matrix(96, 64, 1005)
                       : camult::test::inf_seeded_matrix(96, 64, 1007);
    core::CaqrOptions opts;
    opts.b = 16;
    opts.tr = 2;
    opts.num_threads = 4;
    core::CaqrResult res = core::caqr_factor(a.view(), opts);
    EXPECT_TRUE(res.health.nan_detected) << (use_nan ? "nan" : "inf");
    EXPECT_EQ(res.health.fallback_panels, 0);
  }
}

TEST(AdversarialHealth, SingularPanelFallsBackAndStaysFinite) {
  // Column 3 is exactly zero: the tournament elects a zero pivot for panel
  // 0 and the monitor must refactor it with full-panel GEPP instead of
  // emitting a column of Inf.
  Matrix a = camult::test::zero_column_matrix(96, 96, 3, 1009);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_GE(res.health.fallback_panels, 1);
  ASSERT_FALSE(res.health.fallback_list.empty());
  EXPECT_EQ(res.health.fallback_list[0], 0);
  EXPECT_EQ(res.info, 4);  // 1-based first zero pivot
  EXPECT_TRUE(all_finite(lu.view()));

  // Backward error within 10x of a plain GEPP factorization of the same
  // matrix (the fallback IS GEPP on that panel, so this is loose).
  Matrix ref = a;
  PivotVector ref_ipiv;
  lapack::getf2(ref.view(), ref_ipiv);
  const double gepp_res = lapack::lu_residual(a.view(), ref.view(), ref_ipiv);
  const double calu_res = lapack::lu_residual(a.view(), lu.view(), res.ipiv);
  EXPECT_LT(calu_res, 10.0 * std::max(gepp_res, 1.0));
}

TEST(AdversarialHealth, SinglePanelFallbackIsBitwiseGepp) {
  // n == b: the whole factorization is one panel, and the fallback must
  // reproduce the recursive-GEPP kernel exactly — same pivots, same bits.
  Matrix a = camult::test::zero_column_matrix(64, 16, 2, 1011);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 4;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_EQ(res.health.fallback_panels, 1);

  Matrix ref = a;
  PivotVector ref_ipiv;
  const idx ref_info = lapack::rgetf2(ref.view(), ref_ipiv);
  EXPECT_EQ(res.info, ref_info);
  ASSERT_EQ(res.ipiv.size(), ref_ipiv.size());
  for (std::size_t i = 0; i < ref_ipiv.size(); ++i) {
    EXPECT_EQ(res.ipiv[i], ref_ipiv[i]) << "pivot " << i;
  }
  EXPECT_EQ(camult::test::max_diff(lu.view(), ref.view()), 0.0);
}

TEST(AdversarialHealth, WilkinsonGrowthIsTrackedWithoutFallback) {
  // The GEPP worst-case growth matrix: large per-panel growth must be
  // REPORTED but stay under the default limit (Wilkinson is GEPP-stable in
  // the backward-error sense, so no intervention is warranted).
  Matrix a = gepp_growth_matrix(40);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 20;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_EQ(res.info, 0);
  EXPECT_EQ(res.health.fallback_panels, 0);
  EXPECT_GT(res.health.max_growth, 1e4);  // ~2^19 on the second panel
  EXPECT_FALSE(res.health.nan_detected);
}

TEST(AdversarialHealth, GrowthLimitTriggersFallback) {
  Matrix a = gepp_growth_matrix(40);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 20;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.growth_limit = 100.0;  // far below the ~2^19 panel growth
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_EQ(res.info, 0);
  EXPECT_GE(res.health.fallback_panels, 1);
  EXPECT_LT(lapack::lu_residual(a.view(), lu.view(), res.ipiv),
            kResidualThreshold);
}

TEST(AdversarialHealth, MonitorOnOffIsBitIdenticalOnHealthyInput) {
  Matrix a = random_matrix(96, 96, 1013);
  Matrix monitored = a;
  Matrix plain = a;
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.monitor = true;
  core::CaluResult rm = core::calu_factor(monitored.view(), opts);
  opts.monitor = false;
  core::CaluResult rp = core::calu_factor(plain.view(), opts);
  EXPECT_EQ(rm.ipiv, rp.ipiv);
  EXPECT_EQ(camult::test::max_diff(monitored.view(), plain.view()), 0.0);
  EXPECT_GT(rm.health.max_growth, 0.0);
  EXPECT_EQ(rm.health.fallback_panels, 0);
  EXPECT_FALSE(rp.health.degraded());
}

TEST(AdversarialHealth, CaqrReportsGrowthOnHealthyInput) {
  Matrix a = random_matrix(96, 64, 1015);
  core::CaqrOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaqrResult res = core::caqr_factor(a.view(), opts);
  EXPECT_FALSE(res.health.nan_detected);
  EXPECT_EQ(res.health.fallback_panels, 0);
  EXPECT_GT(res.health.max_growth, 0.0);
}

// ---- Where the input screens run ----------------------------------------
//
// The monitor's input screen is split across the parallel panel tasks
// (CALU: one per tournament leaf; CAQR: iteration 0's leaves, each over its
// whole row band). These pin the verdicts that depend on every cell being
// covered exactly as a single whole-input scan would cover it.

TEST(AdversarialHealth, CaqrGrowthIsMaxRAgainstInputAbsmax) {
  struct Shape {
    idx m, n;
  };
  for (const Shape sh : {Shape{1000, 64}, Shape{48, 96}}) {
    Matrix a = random_matrix(sh.m, sh.n, 1017);
    a(sh.m - 1, sh.n - 1) = 40.0;  // input absmax, in a trailing tile
    Matrix f = a;
    core::CaqrOptions opts;
    opts.b = 16;
    opts.tr = 4;
    opts.num_threads = 4;
    core::CaqrResult res = core::caqr_factor(f.view(), opts);
    double rmax = 0.0;
    const idx kmax = std::min(sh.m, sh.n);
    for (idx j = 0; j < sh.n; ++j) {
      for (idx i = 0; i < std::min(j + 1, kmax); ++i) {
        rmax = std::max(rmax, std::abs(f(i, j)));
      }
    }
    const core::PanelScreen scr = core::screen_panel(a.view());
    ASSERT_EQ(scr.absmax, 40.0);
    EXPECT_EQ(res.health.max_growth, rmax / scr.absmax)
        << sh.m << "x" << sh.n;
  }
}

TEST(AdversarialHealth, CaqrFlagsLoneNanInLastColumn) {
  const idx m = 1000, n = 64;
  for (const idx row : {m - 1, idx{0}}) {
    Matrix a = random_matrix(m, n, 1019);
    a(row, n - 1) = std::numeric_limits<double>::quiet_NaN();
    core::CaqrOptions opts;
    opts.b = 16;
    opts.tr = 4;
    opts.num_threads = 4;
    core::CaqrResult res = core::caqr_factor(a.view(), opts);
    EXPECT_TRUE(res.health.nan_detected) << "NaN at row " << row;
  }
}

TEST(AdversarialHealth, CaluFlagsNanInLastRowOfFirstPanel) {
  const idx m = 96, n = 96;
  Matrix a = random_matrix(m, n, 1021);
  a(m - 1, 0) = std::numeric_limits<double>::quiet_NaN();
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 4;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(a.view(), opts);
  EXPECT_TRUE(res.health.nan_detected);
  EXPECT_EQ(res.health.fallback_panels, 0);
}

}  // namespace
}  // namespace camult
