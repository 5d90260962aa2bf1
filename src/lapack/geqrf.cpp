#include "lapack/geqrf.hpp"

#include <cassert>

#include "blas/blas.hpp"
#include "lapack/householder.hpp"
#include "matrix/matrix.hpp"

namespace camult::lapack {

void geqr2(MatrixView a, std::vector<double>& tau) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  std::vector<double> work(static_cast<std::size_t>(n));

  for (idx j = 0; j < k; ++j) {
    double& alpha = a(j, j);
    double* v_tail = (j + 1 < m) ? a.col_ptr(j) + j + 1 : nullptr;
    const idx col_len = m - j;
    tau[static_cast<std::size_t>(j)] = larfg(col_len, alpha, v_tail, 1);
    if (j + 1 < n) {
      apply_reflector_left(tau[static_cast<std::size_t>(j)], v_tail,
                           a.block(j, j + 1, m - j, n - j - 1), work.data());
    }
  }
}

void larft(ConstMatrixView v, const double* tau, MatrixView t) {
  const idx m = v.rows();
  const idx k = v.cols();
  (void)m;
  assert(t.rows() >= k && t.cols() >= k);

  for (idx i = 0; i < k; ++i) {
    const double taui = tau[i];
    if (taui == 0.0) {
      for (idx j = 0; j < i; ++j) t(j, i) = 0.0;
    } else {
      // T(0:i, i) = -tau_i * V(i:m, 0:i)^T * V(i:m, i), exploiting the unit
      // diagonal: V(i, j<i) are stored, V(i, i) = 1.
      for (idx j = 0; j < i; ++j) t(j, i) = -taui * v(i, j);
      if (i + 1 < m) {
        blas::gemv(blas::Trans::Trans, -taui, v.block(i + 1, 0, m - i - 1, i),
                   v.col_ptr(i) + i + 1, 1, 1.0, t.col_ptr(i), 1);
      }
      // T(0:i, i) = T(0:i, 0:i) * T(0:i, i)
      blas::trmv(blas::Uplo::Upper, blas::Trans::NoTrans, blas::Diag::NonUnit,
                 t.block(0, 0, i, i), t.col_ptr(i), 1);
    }
    t(i, i) = taui;
  }
}

namespace {

// The one shape rule for the Gram-shaped products of an m x k reflector
// block, C2^T V2 in larfb_left and V1^T V2 in geqr3's T: with a narrow V
// and a long inner dimension they go to blas::gemm_inner, which packs
// nothing, instead of a packed gemm (bench/micro_kernels BM_gemm_inner vs
// BM_gemm_packed_tn). It reads the reflector shape only, so larfb_pack_v
// and both larfb_left overloads agree on it: packed and unpacked
// applications stay bitwise equal, and the pack skips V2's B-operand copy
// exactly where it would be dead.
bool gram_uses_inner(idx m, idx k) { return k <= 64 && m - k >= 16 * k; }

// geqr3 stops recursing at this many columns and runs geqr2 + larft.
// Narrower bases add recursion levels whose small trmm/gemm calls cost
// more than they save on short leaves; wider ones pay for geqr2 sweeping
// every remaining column of the block twice per column on tall leaves
// (bench/micro_kernels BM_geqr3_leaf).
constexpr idx kGeqr3BaseCols = 8;

// Shared larfb_left body; vp (when non-null) supplies pre-packed copies of
// V2 for the two gemms, everything else is identical.
void larfb_left_impl(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                     const LarfbPackedV* vp, MatrixView c) {
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = v.cols();
  assert(v.rows() == m);
  assert(t.rows() >= k && t.cols() >= k);
  if (m == 0 || n == 0 || k == 0) return;

  ConstMatrixView v1 = v.block(0, 0, k, k);          // unit lower triangular
  MatrixView c1 = c.rows_range(0, k);

  // W = C^T V = C1^T V1 + C2^T V2   (n x k)
  Matrix w(n, k);
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < n; ++i) w(i, j) = c1(j, i);
  }
  blas::trmm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::NoTrans,
             blas::Diag::Unit, 1.0, v1, w.view());
  if (m > k) {
    if (gram_uses_inner(m, k)) {
      blas::gemm_inner(1.0, c.rows_range(k, m - k), v.block(k, 0, m - k, k),
                       w.view());
    } else if (vp != nullptr) {
      blas::gemm_packed(blas::Trans::Trans, 1.0, c.rows_range(k, m - k),
                        vp->v2_b, 1.0, w.view());
    } else {
      blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0,
                 c.rows_range(k, m - k), v.block(k, 0, m - k, k), 1.0,
                 w.view());
    }
  }

  // W := W * T^T (apply Q) or W * T (apply Q^T).
  blas::trmm(blas::Side::Right, blas::Uplo::Upper,
             trans == blas::Trans::NoTrans ? blas::Trans::Trans
                                           : blas::Trans::NoTrans,
             blas::Diag::NonUnit, 1.0, t.block(0, 0, k, k), w.view());

  // C2 -= V2 * W^T
  if (m > k) {
    if (vp != nullptr) {
      blas::gemm_packed(-1.0, vp->v2_a, blas::Trans::Trans, w.view(), 1.0,
                        c.rows_range(k, m - k));
    } else {
      blas::gemm(blas::Trans::NoTrans, blas::Trans::Trans, -1.0,
                 v.block(k, 0, m - k, k), w.view(), 1.0,
                 c.rows_range(k, m - k));
    }
  }
  // W := W * V1^T, then C1 -= W^T.
  blas::trmm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::Trans,
             blas::Diag::Unit, 1.0, v1, w.view());
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < n; ++i) c1(j, i) -= w(i, j);
  }
}

}  // namespace

void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c) {
  larfb_left_impl(trans, v, t, nullptr, c);
}

LarfbPackedV larfb_pack_v(ConstMatrixView v) {
  const idx m = v.rows();
  const idx k = v.cols();
  LarfbPackedV vp;
  if (m > k) {
    ConstMatrixView v2 = v.block(k, 0, m - k, k);
    vp.v2_a = blas::pack_a(v2, blas::Trans::NoTrans);
    if (!gram_uses_inner(m, k)) {
      vp.v2_b = blas::pack_b(v2, blas::Trans::NoTrans);
    }
  }
  return vp;
}

void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                const LarfbPackedV& vp, MatrixView c) {
  // A degenerate pack (m == k: no V2) falls back to the plain body.
  larfb_left_impl(trans, v, t, vp.empty() ? nullptr : &vp, c);
}

void geqrf(MatrixView a, std::vector<double>& tau, const GeqrfOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);

  std::vector<double> panel_tau;
  Matrix t(opts.nb, opts.nb);
  for (idx j = 0; j < k; j += opts.nb) {
    const idx jb = std::min(opts.nb, k - j);
    MatrixView panel = a.block(j, j, m - j, jb);
    MatrixView tb = t.block(0, 0, jb, jb);
    if (opts.recursive_panel) {
      geqr3(panel, panel_tau, tb);
    } else {
      geqr2(panel, panel_tau);
      larft(panel, panel_tau.data(), tb);
    }
    for (idx i = 0; i < jb; ++i) {
      tau[static_cast<std::size_t>(j + i)] =
          panel_tau[static_cast<std::size_t>(i)];
    }
    if (j + jb < n) {
      larfb_left(blas::Trans::Trans, panel, tb,
                 a.block(j, j + jb, m - j, n - j - jb));
    }
  }
}

void geqr3(MatrixView a, std::vector<double>& tau, MatrixView t) {
  const idx m = a.rows();
  const idx n = a.cols();
  (void)m;
  assert(m >= n);
  assert(t.rows() >= n && t.cols() >= n);
  tau.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return;

  struct Rec {
    static void run(MatrixView a_, double* tau_, MatrixView t_) {
      const idx m_ = a_.rows();
      const idx n_ = a_.cols();
      if (n_ <= kGeqr3BaseCols) {
        std::vector<double> local_tau;
        geqr2(a_, local_tau);
        for (idx i = 0; i < n_; ++i) tau_[i] = local_tau[static_cast<std::size_t>(i)];
        larft(a_, tau_, t_);
        return;
      }
      const idx n1 = n_ / 2;
      const idx n2 = n_ - n1;

      MatrixView left = a_.cols_range(0, n1);
      MatrixView t1 = t_.block(0, 0, n1, n1);
      run(left, tau_, t1);

      // Apply Q1^T to the right half.
      MatrixView right = a_.cols_range(n1, n2);
      larfb_left(blas::Trans::Trans, left, t1, right);

      // Factor the lower-right block.
      MatrixView a2 = a_.block(n1, n1, m_ - n1, n2);
      MatrixView t2 = t_.block(n1, n1, n2, n2);
      run(a2, tau_ + n1, t2);

      // T12 = -T1 * (V1^T V2) * T2.
      // V1 rows n1..m are stored in A(n1:m, 0:n1); V2 is the unit
      // lower-trapezoidal A(n1:m, n1:n).
      MatrixView t12 = t_.block(0, n1, n1, n2);
      ConstMatrixView b1 = a_.block(n1, 0, n2, n1);
      for (idx j = 0; j < n2; ++j) {
        for (idx i = 0; i < n1; ++i) t12(i, j) = b1(j, i);
      }
      blas::trmm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::NoTrans,
                 blas::Diag::Unit, 1.0, a_.block(n1, n1, n2, n2), t12);
      if (m_ > n1 + n2) {
        ConstMatrixView v1 = a_.block(n1 + n2, 0, m_ - n1 - n2, n1);
        ConstMatrixView v2 = a_.block(n1 + n2, n1, m_ - n1 - n2, n2);
        if (gram_uses_inner(m_, n_)) {
          blas::gemm_inner(1.0, v1, v2, t12);
        } else {
          blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, v1, v2,
                     1.0, t12);
        }
      }
      blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Trans::NoTrans,
                 blas::Diag::NonUnit, -1.0, t1, t12);
      blas::trmm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
                 blas::Diag::NonUnit, 1.0, t2, t12);
    }
  };
  Rec::run(a, tau.data(), t);
}

}  // namespace camult::lapack
