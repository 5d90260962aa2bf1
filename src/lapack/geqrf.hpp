// geqrf.hpp — Householder QR factorizations.
//
//  * geqr2: unblocked BLAS-2 QR (LAPACK dgeqr2) — the paper's "MKL_dgeqr2"
//    baseline class.
//  * larft/larfb: compact-WY block reflector formation/application.
//  * geqrf: blocked right-looking QR (LAPACK dgeqrf).
//  * geqr3: recursive QR (Elmroth–Gustavson) returning the full T factor —
//    the fast sequential kernel used inside TSQR.
//
// Factored form: the upper triangle of A holds R; the Householder tails v_j
// are stored below the diagonal (unit diagonal implicit); tau[j] are the
// reflector scalars.
#pragma once

#include <vector>

#include "blas/pack.hpp"
#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::lapack {

/// Unblocked QR. tau is resized to min(m, n).
void geqr2(MatrixView a, std::vector<double>& tau);

/// Form the k x k upper triangular T of the compact-WY representation
/// H_1 ... H_k = I - V T V^T (forward, columnwise storage). v is m x k with
/// implicit unit lower-trapezoidal structure (upper part ignored).
void larft(ConstMatrixView v, const double* tau, MatrixView t);

/// Apply a compact-WY block reflector from the left:
///   C := (I - V T V^T) C        (Trans::NoTrans)
///   C := (I - V T^T V^T) C      (Trans::Trans, i.e. H^T C = Q^T C... )
///
/// Note Q = H_1...H_k = I - V T V^T, so Trans::Trans applies Q^T.
/// V is m x k unit lower-trapezoidal (upper part ignored), C is m x n.
void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c);

/// Pre-packed rectangular part of a reflector block for larfb_left. V2
/// (rows k..m of V) enters two products: as the A operand of C2 -= V2 W^T,
/// and as the B operand of W += C2^T V2. The first is always a packed gemm.
/// The second is a packed gemm only for wide or short blocks; a narrow,
/// tall V (k <= 64 and m - k >= 16 k) takes blas::gemm_inner, which reads V2
/// in place, and then v2_b stays empty. V1 (the unit lower triangle) is
/// consumed by trmm straight from v.
/// Build once per panel, then share read-only across every trailing column
/// segment the reflector is applied to.
struct LarfbPackedV {
  blas::PackedPanel v2_a;  ///< pack_a(V2, NoTrans)
  blas::PackedPanel v2_b;  ///< pack_b(V2, NoTrans), or empty (see above)
  bool empty() const { return v2_a.empty(); }
};

/// Pack V2 of an m x k reflector block for packed larfb_left application.
LarfbPackedV larfb_pack_v(ConstMatrixView v);

/// larfb_left consuming the pre-packed V2 (vp must come from larfb_pack_v
/// on the same v). Safe to call concurrently with shared v/t/vp as long as
/// the c blocks are disjoint.
void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                const LarfbPackedV& vp, MatrixView c);

struct GeqrfOptions {
  idx nb = 64;  ///< panel width
  bool recursive_panel = true;  ///< use geqr3 for the panel (else geqr2)
};

/// Blocked QR. tau is resized to min(m, n).
void geqrf(MatrixView a, std::vector<double>& tau,
           const GeqrfOptions& opts = {});

/// Recursive QR of an m x n matrix with m >= n. Fills tau (resized to n) and
/// the full n x n upper triangular T such that Q = I - V T V^T.
void geqr3(MatrixView a, std::vector<double>& tau, MatrixView t);

}  // namespace camult::lapack
