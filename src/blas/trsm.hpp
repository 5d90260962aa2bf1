// trsm.hpp — triangular solve with multiple right-hand sides.
//
//   Side::Left :  op(A) * X = alpha * B
//   Side::Right:  X * op(A) = alpha * B
//
// X overwrites B. A is the triangular n_tri x n_tri matrix (n_tri = rows of
// B for Left, cols of B for Right); only the referenced triangle is read.
//
// The implementation is recursive: the triangle is split in half and the
// rectangular off-diagonal work is routed through gemm, so large solves run
// at BLAS-3 speed. Left base cases solve per column with trsv; right base
// cases sweep B in strips of kTrsmStripRows rows with contiguous column
// updates (the tall L blocks of a CALU panel are right-side solves).
#pragma once

#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::blas {

/// Rows of B per strip of the right-side base case: a strip of a base-case
/// block (32 columns: 32 KiB) stays cache resident while the whole triangle
/// is applied to it.
inline constexpr idx kTrsmStripRows = 128;

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

}  // namespace camult::blas
