// calu.hpp — multithreaded CALU (paper Algorithm 1).
//
// Right-looking LU over block columns. Each panel is factored by
// task-parallel TSLU (tournament pivoting over a reduction tree); the
// trailing matrix is updated by independent U (triangular solve) and S
// (gemm) tasks. All tasks run on the dynamic runtime with dependencies
// inferred from block accesses, and the look-ahead-of-1 priority policy
// keeps the panel factorization's critical path hot.
//
// Row interchanges to the right of the panel are applied inside the U tasks;
// interchanges to the left are deferred and applied by per-column cleanup
// tasks at the end, exactly as in the paper (Algorithm 1, line 41).
#pragma once

#include <vector>

#include "core/options.hpp"
#include "lapack/getrf.hpp"
#include "matrix/permutation.hpp"

namespace camult::core {

struct CaluOptions : FactorOptions {
  ReductionTree tree = ReductionTree::Binary;
  /// GEPP kernel inside the tournament (see TsluOptions::leaf_kernel).
  lapack::LuPanelKernel leaf_kernel = lapack::LuPanelKernel::Recursive;
  /// The paper's Section V future-work extension: perform the trailing
  /// update on column super-blocks of `update_cols_per_task` panels (B =
  /// this * b), reducing the task count and improving BLAS-3 granularity at
  /// the cost of available parallelism. 1 = the paper's base algorithm.
  idx update_cols_per_task = 1;
  /// Growth threshold for the health monitor's fallback: when the
  /// tournament elects a zero pivot or its pivot growth exceeds this, the
  /// panel is refactored with full-panel GEPP. <= 0 disables the growth
  /// trigger (zero pivots still fall back). See TsluOptions::growth_limit.
  double growth_limit = 1e12;
};

struct CaluResult : FactorResult {
  /// Global LAPACK-convention swap sequence (length min(m, n)).
  PivotVector ipiv;
  /// 0, or 1-based index of the first exactly-zero pivot.
  idx info = 0;
};

/// Factor A = P L U in place (same storage convention as getrf).
CaluResult calu_factor(MatrixView a, const CaluOptions& opts = {});

/// An in-flight CALU factorization (see FactorAsync).
using CaluAsync = FactorAsync<CaluOptions, CaluResult>;

/// Factor every matrix in `as` (each in place, independent problems). All
/// DAGs are submitted up front to ONE WorkerPool — opts.pool if set, else a
/// pool of opts.num_threads workers created for the batch — so small
/// factorizations share workers instead of serializing thread spawn/join
/// per call. Results are positional. opts.num_threads == 0 runs the batch
/// inline, one problem at a time.
std::vector<CaluResult> calu_factor_batch(const std::vector<MatrixView>& as,
                                          const CaluOptions& opts = {});

}  // namespace camult::core
