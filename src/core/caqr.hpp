// caqr.hpp — multithreaded CAQR (paper Algorithm 2).
//
// Right-looking QR over block columns. Each panel is factored by
// task-parallel TSQR; unlike CALU the panel is factored only once, and the
// reduction tree also drives the trailing-matrix updates: leaf updates apply
// each leaf's block reflector to its rows, node updates apply each tree
// node's reflector to the stacked b-row slices it combined.
//
// The Q factor is implicit: leaf reflector tails stay in the matrix, tree
// node reflectors live in the returned per-iteration factors; caqr_apply_q
// replays them.
#pragma once

#include <vector>

#include "core/options.hpp"
#include "core/tsqr.hpp"

namespace camult::core {

struct CaqrOptions : FactorOptions {
  ReductionTree tree = ReductionTree::Flat;  ///< paper's preferred CAQR tree
  /// Structured tpqrt kernels for binary-tree nodes (see TsqrOptions). Such
  /// nodes have no larfb-shaped V2 and always run unpacked.
  bool structured_nodes = false;
};

/// TSQR factors of one panel iteration; row offsets inside `part`, `leaves`
/// and `nodes` are relative to the panel top (row0).
struct CaqrIterationFactors {
  idx row0 = 0;  ///< panel top row (== left column)
  idx jb = 0;    ///< panel width
  RowPartition part;
  std::vector<TsqrLeaf> leaves;
  std::vector<TsqrNode> nodes;
};

/// `health` screens the input for non-finite entries and reports max|R| /
/// max|A| as the growth factor; Householder QR is unconditionally stable,
/// so it never falls back. A windowed run never recycles `iterations`.
struct CaqrResult : FactorResult {
  idx m = 0;
  idx n = 0;
  std::vector<CaqrIterationFactors> iterations;
};

/// Factor A = Q R in place: on exit the upper triangle holds R; the rest
/// holds leaf reflector tails referenced by the returned factors.
CaqrResult caqr_factor(MatrixView a, const CaqrOptions& opts = {});

/// An in-flight CAQR factorization (see FactorAsync).
using CaqrAsync = FactorAsync<CaqrOptions, CaqrResult>;

/// Factor every matrix in `as` (each in place, independent problems),
/// submitting all DAGs up front to one WorkerPool — opts.pool if set, else
/// a pool of opts.num_threads workers created for the batch. Results are
/// positional. opts.num_threads == 0 runs the batch inline, one problem at
/// a time. See calu_factor_batch.
std::vector<CaqrResult> caqr_factor_batch(const std::vector<MatrixView>& as,
                                          const CaqrOptions& opts = {});

/// C := Q C (NoTrans) or Q^T C (Trans); C has m rows. `a` is the factored
/// matrix.
void caqr_apply_q(blas::Trans trans, ConstMatrixView a,
                  const CaqrResult& factors, MatrixView c);

/// Thin explicit Q (m x min(m, n)).
Matrix caqr_explicit_q(ConstMatrixView a, const CaqrResult& factors);

/// The min(m,n) x n upper-trapezoidal R.
Matrix caqr_extract_r(ConstMatrixView a, const CaqrResult& factors);

/// Scaled residual ||A_orig - Q R||_F / (||A||_F * max(m,n) * eps).
double caqr_residual(ConstMatrixView a_orig, ConstMatrixView a_factored,
                     const CaqrResult& factors);

}  // namespace camult::core
