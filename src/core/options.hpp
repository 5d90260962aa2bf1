// options.hpp — the option, result and in-flight-run types CALU and CAQR
// share (both run on one right-looking driver).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "matrix/view.hpp"
#include "runtime/cancel.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::core {

/// Shape of the panel reduction tree (paper, Section II): a binary tree
/// minimizes parallel communication; a height-1 ("flat") tree does one
/// all-at-once reduction and is an efficient alternative on shared memory.
enum class ReductionTree {
  Binary,
  Flat,
  /// Flat reductions over small groups of leaves, then a binary tree over
  /// the group roots — the shape the paper's conclusion attributes to
  /// Hadri et al. (LAWN 222) for tall-skinny QR on multicore.
  Hybrid,
};

const char* reduction_tree_name(ReductionTree t);

/// Numerical health of one factorization run. Tournament pivoting is only
/// "stable in practice": it can elect a zero/degenerate pivot or admit more
/// growth than GEPP (Grigori/Demmel/Xiang), and a poisoned input (NaN/Inf)
/// silently propagates through every BLAS-3 update. The monitor screens
/// each panel BEFORE it is mutated, tracks the per-panel pivot-growth
/// factor, and — when the tournament outcome is degenerate — refactors the
/// still-pristine panel with full-panel GEPP, recording the intervention
/// here instead of emitting Inf-laden factors.
struct HealthReport {
  /// A non-finite entry was seen in a panel (or the input) before
  /// factoring. No fallback is attempted (GEPP on NaN is equally lost);
  /// the flag is the diagnosis.
  bool nan_detected = false;
  idx fallback_panels = 0;         ///< panels refactored with full GEPP
  std::vector<idx> fallback_list;  ///< indices of those panels
  /// Largest per-panel pivot growth max|U_kk| / max|panel| observed.
  double max_growth = 0.0;
  /// The run needed intervention or carries non-finite data; callers (the
  /// CLI) should surface this even when info == 0.
  bool degraded() const { return nan_detected || fallback_panels > 0; }
};

/// Options every right-looking factorization shares (CaluOptions and
/// CaqrOptions add their algorithm-specific fields on top).
struct FactorOptions {
  idx b = 100;  ///< panel width (block size)
  idx tr = 4;   ///< panel task count T_r
  /// Constant added to every task priority (saturating). The service layer
  /// (svc::Service) uses it to layer a job's whole look-ahead band structure
  /// into the QoS band of its client class; 0 keeps the plain lookahead.hpp
  /// bands. See biased_priority.
  int priority_bias = 0;
  /// Worker threads; 0 = inline serial (record mode). Defaults to the
  /// hardware concurrency clamped to [1, 32] — see rt::default_num_threads.
  int num_threads = rt::default_num_threads();
  /// Execute on this persistent WorkerPool (pool->size() workers;
  /// num_threads only distinguishes the 0 = inline case). The pool must
  /// outlive the call. nullptr = a private pool of num_threads workers for
  /// the call.
  rt::WorkerPool* pool = nullptr;
  bool lookahead = true;  ///< look-ahead-of-1 priorities (paper Section III)
  bool record_trace = true;
  /// Scheduler policy for real-thread mode (see rt::TaskGraph::Policy).
  rt::TaskGraph::Policy scheduler = rt::TaskGraph::Policy::CentralPriority;
  /// Pack each leaf's trailing-update operand (CALU's L block, CAQR's
  /// reflector V2) once per iteration in a dedicated pack task ordered
  /// before the S tasks, and share the read-only pack across every trailing
  /// column segment instead of letting each S gemm repack the same block.
  /// false = the unpacked ablation baseline.
  bool pack_trailing = true;
  /// Numerical health monitoring (see HealthReport). Healthy inputs are
  /// bit-identical with the monitor on or off (screening only reads).
  bool monitor = true;
  /// Cooperative cancellation: request_cancel() on a copy of this token
  /// makes the run skip all remaining tasks and the factorization throw
  /// rt::CancelledError (see runtime/cancel.hpp).
  rt::CancelToken cancel{};
  /// Deterministic fault-injection hook forwarded to the TaskGraph (tests;
  /// see runtime/fault_inject.hpp). nullptr = the CAMULT_FAULT_SEED global.
  rt::FaultInjector* fault = nullptr;
  /// Salt folded into every fault decision (see rt::FaultInjector::decide):
  /// 0 reproduces the unsalted stream; the svc layer passes the retry
  /// attempt index so retried jobs draw independent fault streams.
  std::uint64_t fault_salt = 0;
  /// When non-null, receives the run's scheduler counters even if a task
  /// threw (the factorization then propagates the exception and the result
  /// — and its `sched` member — is lost; this is the only way to observe
  /// how much of the DAG a fast-abort actually skipped).
  rt::SchedulerStats* sched_out = nullptr;
  /// Sliding-window submission: keep at most `window` panel iterations in
  /// flight, submitting iteration k only once iteration k - window has
  /// fully retired, and recycling the retired prefix's task-store slabs,
  /// dep keys and per-iteration scratch. Peak runtime memory becomes
  /// O(window) instead of O(n_panels) while the executed schedule — and the
  /// factorization, bitwise — is unchanged. 0 (the default) builds the
  /// whole DAG, then waits. See docs/runtime.md § Windowed submission.
  idx window = 0;
};

/// Result fields every right-looking factorization shares (CaluResult and
/// CaqrResult add the factors on top).
struct FactorResult {
  /// The run was cancelled (FactorOptions::cancel fired) before it
  /// finished. Only ever set on results returned by the *_factor_batch
  /// drivers — the single-problem calls keep throwing rt::CancelledError.
  /// A cancelled result carries valid sched counters but no usable
  /// factorization.
  bool cancelled = false;
  /// Executed task trace and DAG edges (for Gantt rendering and the
  /// simulated-multicore replayer). Empty if record_trace is false.
  std::vector<rt::TaskRecord> trace;
  std::vector<rt::TaskGraph::Edge> edges;
  /// Scheduler counters for the run (always filled).
  rt::SchedulerStats sched;
  /// Numerical health verdict. Only populated when FactorOptions::monitor
  /// is set.
  HealthReport health;
  /// Task-store / trace memory telemetry (always filled): peak task-store
  /// bytes, slabs allocated vs recycled, trace records harvested from
  /// retired slabs. Windowed runs keep peak_task_store_bytes O(window).
  rt::TaskGraph::MemoryStats mem;
};

/// An in-flight factorization (CaluAsync, CaqrAsync): the constructor
/// builds and submits the task DAG (all of it with window == 0; just the
/// first `window` iterations otherwise — collect() pumps the rest as
/// earlier iterations retire) and returns immediately in real-thread mode;
/// inline mode runs the submitted prefix in the constructor. The constructor
/// does not scan the matrix: the health monitor's input screens run inside
/// the panel tasks. collect() blocks for the result. Submit many, overlap
/// their execution on one WorkerPool, collect in any order.
///
/// The matrix storage must stay alive and untouched until collect() (or
/// destruction); destruction without collect() drains the graph and
/// discards the result. Not thread-safe; movable, not copyable. collect()
/// may throw exactly like the single-problem call (task error,
/// rt::CancelledError) and must be called at most once.
template <class Options, class Result>
class FactorAsync {
 public:
  FactorAsync(MatrixView a, const Options& opts);
  ~FactorAsync();
  FactorAsync(FactorAsync&&) noexcept;
  FactorAsync& operator=(FactorAsync&&) noexcept;

  Result collect();
  bool collected() const { return impl_ == nullptr; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace camult::core
