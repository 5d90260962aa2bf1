// gemm.hpp — general matrix multiply, the BLAS-3 workhorse of every
// factorization in this library.
//
// C = alpha * op(A) * op(B) + beta * C
//
// The implementation is a GotoBLAS-style blocked algorithm: A and B are
// packed into contiguous cache-resident panels and the inner product is
// computed by a register-blocked MR x NR microkernel. The kernel variant
// (scalar / AVX2 / AVX-512) is picked at RUNTIME from cpuid — see
// kernel.hpp — and the cache blocking is runtime data sourced from the
// autotune table (tuning.hpp). All four transpose combinations are
// supported; transposition is absorbed by the packing routines.
// The packing half of the pipeline (pack_a/pack_b/PackedPanel and the
// per-thread scratch pool) lives in pack.hpp; gemm_packed below consumes a
// pre-packed operand so repeated multiplies against the same panel — the
// CALU/CAQR trailing-update pattern — pay for packing once.
#pragma once

#include "blas/kernel.hpp"
#include "blas/pack.hpp"
#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::blas {

/// Shape contract: op(A) is m x k, op(B) is k x n, C is m x n.
void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// C = alpha * Ap * op(B) + beta * C, where Ap was built by pack_a().
/// Always takes the blocked-microkernel path (no small-case shortcut), so
/// results are bit-identical to the blocked path of gemm() and independent
/// of how the trailing matrix is split into column segments along n.
/// The panel is read-only: concurrent calls may share one PackedPanel.
void gemm_packed(double alpha, const PackedPanel& a_packed, Trans transb,
                 ConstMatrixView b, double beta, MatrixView c);

/// C = alpha * op(A) * Bp + beta * C, where Bp was built by pack_b().
void gemm_packed(Trans transa, double alpha, ConstMatrixView a,
                 const PackedPanel& b_packed, double beta, MatrixView c);

/// C += alpha * A^T * B with A (k x m) and B (k x n) column-major, i.e. both
/// operands contiguous along the inner dimension k: the Gram-shaped product
/// of Householder code (W = C2^T V2 in larfb, V1^T V2 in geqr3's T), where
/// m, n are a few dozen and k is tens of thousands. gemm would spend most of
/// such a call packing; this kernel packs nothing. It walks k in chunks of
/// 256, and within a chunk every C entry of a tile of up to 4 x 4 is an
/// 8-lane dot product (lane r sums the terms with p % 8 == r). The lane
/// partial sums persist across chunks in a ScratchBuffer, and each entry is
/// reduced in one fixed order at the end, so a result is a function of its
/// own row of A^T and column of B only: independent of m, n, the tiling,
/// the calling thread and the GEMM kernel selection. No zero-skip: a NaN or
/// Inf in A or B reaches exactly the C entries whose dot product reads it,
/// as in gemm. alpha == 0 leaves C untouched.
void gemm_inner(double alpha, ConstMatrixView a, ConstMatrixView b,
                MatrixView c);

/// The blocking a large square multiply would use right now (active kernel
/// + tuning table + override applied). GemmBlocking itself lives in
/// kernel.hpp; this accessor is kept for benchmarks/tests.
GemmBlocking gemm_blocking();

}  // namespace camult::blas
