#include "blas/trsm.hpp"

#include <algorithm>
#include <cassert>

#include "blas/gemm.hpp"
#include "blas/kernel.hpp"
#include "blas/level1.hpp"
#include "blas/level2.hpp"

namespace camult::blas {
namespace {

// Recursion base tied to the dispatched kernel's register tile: the gemm
// halves above the base need at least a couple of MR-row tiles to amortize
// packing, so a wider kernel (AVX-512, MR=16) raises the base-case cutoff.
idx base_size() { return std::max<idx>(32, 2 * active_kernel().blocking.mr); }

// Right-side base case, X * op(A) = alpha * B, one row strip at a time.
// Column j of the strip takes the already solved columns i of op(A)'s
// off-diagonal half in its column j:
//   x_j = (alpha * b_j - sum_i x_i * op(A)(i, j)) / op(A)(j, j),
// forward over j when op(A) is upper triangular, backward when it is lower.
// Every update is a contiguous axpy down the strip (four solved columns per
// pass, so x_j is loaded and stored once per four), which vectorizes; only
// the triangle op(A) references is read.
void trsm_right_base(Uplo uplo, Trans trans, Diag diag, double alpha,
                     ConstMatrixView a, MatrixView b) {
  const idx n = a.rows();
  const bool forward = (uplo == Uplo::Upper) == (trans == Trans::NoTrans);
  auto op_a = [&](idx i, idx j) {
    return trans == Trans::NoTrans ? a(i, j) : a(j, i);
  };
  for (idx r0 = 0; r0 < b.rows(); r0 += kTrsmStripRows) {
    const idx rows = std::min(kTrsmStripRows, b.rows() - r0);
    for (idx s = 0; s < n; ++s) {
      const idx j = forward ? s : n - 1 - s;
      const idx i_end = forward ? j : n;
      double* __restrict xj = b.col_ptr(j) + r0;
      if (alpha != 1.0) {
        for (idx r = 0; r < rows; ++r) xj[r] *= alpha;
      }
      idx i = forward ? 0 : j + 1;
      for (; i + 4 <= i_end; i += 4) {
        const double t0 = op_a(i, j), t1 = op_a(i + 1, j);
        const double t2 = op_a(i + 2, j), t3 = op_a(i + 3, j);
        const double* __restrict x0 = b.col_ptr(i) + r0;
        const double* __restrict x1 = b.col_ptr(i + 1) + r0;
        const double* __restrict x2 = b.col_ptr(i + 2) + r0;
        const double* __restrict x3 = b.col_ptr(i + 3) + r0;
        for (idx r = 0; r < rows; ++r) {
          xj[r] = xj[r] - t0 * x0[r] - t1 * x1[r] - t2 * x2[r] - t3 * x3[r];
        }
      }
      for (; i < i_end; ++i) {
        const double t = op_a(i, j);
        const double* __restrict xi = b.col_ptr(i) + r0;
        for (idx r = 0; r < rows; ++r) xj[r] -= t * xi[r];
      }
      if (diag == Diag::NonUnit) {
        const double d = op_a(j, j);
        for (idx r = 0; r < rows; ++r) xj[r] /= d;
      }
    }
  }
}

// Base case: column-by-column trsv on the left, row strips on the right.
void trsm_base(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
               ConstMatrixView a, MatrixView b) {
  if (side == Side::Right) {
    trsm_right_base(uplo, trans, diag, alpha, a, b);
    return;
  }
  if (alpha != 1.0) {
    for (idx j = 0; j < b.cols(); ++j) scal(b.rows(), alpha, b.col_ptr(j), 1);
  }
  for (idx j = 0; j < b.cols(); ++j) {
    trsv(uplo, trans, diag, a, b.col_ptr(j), 1);
  }
}

void trsm_rec(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
              ConstMatrixView a, MatrixView b) {
  const idx n_tri = a.rows();
  if (n_tri <= base_size()) {
    trsm_base(side, uplo, trans, diag, alpha, a, b);
    return;
  }
  const idx h = n_tri / 2;
  const idx r = n_tri - h;
  ConstMatrixView a11 = a.block(0, 0, h, h);
  ConstMatrixView a22 = a.block(h, h, r, r);

  if (side == Side::Left) {
    MatrixView b1 = b.rows_range(0, h);
    MatrixView b2 = b.rows_range(h, r);
    if (uplo == Uplo::Lower && trans == Trans::NoTrans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a21, b1, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    } else if (uplo == Uplo::Lower && trans == Trans::Trans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::Trans, Trans::NoTrans, -1.0, a21, b2, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else if (uplo == Uplo::Upper && trans == Trans::NoTrans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a12, b2, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else {  // Upper, Trans
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::Trans, Trans::NoTrans, -1.0, a12, b1, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    }
  } else {
    MatrixView b1 = b.cols_range(0, h);
    MatrixView b2 = b.cols_range(h, r);
    if (uplo == Uplo::Upper && trans == Trans::NoTrans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, b1, a12, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    } else if (uplo == Uplo::Upper && trans == Trans::Trans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::Trans, -1.0, b2, a12, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else if (uplo == Uplo::Lower && trans == Trans::NoTrans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, b2, a21, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else {  // Lower, Trans
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::Trans, -1.0, b1, a21, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    }
  }
}

}  // namespace

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  assert(a.rows() == a.cols());
  const idx n_tri = (side == Side::Left) ? b.rows() : b.cols();
  assert(a.rows() == n_tri);
  (void)n_tri;
  if (b.rows() == 0 || b.cols() == 0) return;
  trsm_rec(side, uplo, trans, diag, alpha, a, b);
}

}  // namespace camult::blas
