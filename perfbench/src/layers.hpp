// layers.hpp — per-layer measurements for the traced run. Everything here
// reads public outputs only: task traces and scheduler/memory counters of a
// factorization result, WorkerPool::stats(), per-worker blas counters
// gathered with WorkerPool::run_on_all_workers, and standalone calls of the
// core / lapack / blas entry points timed from outside.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace perfbench {

/// Sum of the traces of several traced calls (or jobs).
struct TraceAgg {
  std::int64_t calls = 0;
  std::int64_t tasks = 0;
  std::int64_t busy_ns = 0;                   ///< compute_stats busy
  std::array<std::int64_t, 5> kind_ns{};      ///< P, L, U, S, Generic
  std::int64_t parked_ns = 0;                 ///< scheduler idle_ns
  std::int64_t critical_path_ns = 0;          ///< sim::simulate, summed
  std::int64_t peak_task_store_bytes = 0;     ///< max over calls
  /// Every call's per-kind busy time summed exactly to its total busy.
  bool kinds_sum_ok = true;

  void add(const std::vector<camult::rt::TaskRecord>& trace,
           const std::vector<camult::rt::TaskGraph::Edge>& edges,
           const camult::rt::SchedulerStats& sched,
           const camult::rt::TaskGraph::MemoryStats& mem);
  /// Report runtime.* (but trace_overhead_frac), core.*_busy_s and
  /// blas.update_busy_s. `window_s` is the wall time the pool spent on the
  /// traced work (summed call time, or a service phase's length).
  void report(Result& r, double window_s) const;
};

/// Pool-wide blas counters (gemm traffic and scratch-pool hits), summed
/// over the workers with run_on_all_workers. Call while the pool is idle.
struct BlasCounters {
  std::int64_t gemm_bytes = 0;
  std::int64_t pool_acquires = 0;
  std::int64_t pool_hits = 0;
};
BlasCounters blas_counters(camult::rt::WorkerPool& pool);
/// blas.bytes_moved (computed, per call), blas.flops_per_byte (nominal
/// flops per computed byte) and blas.pool_hit_frac over [before, after].
void report_blas_counters(Result& r, const BlasCounters& before,
                          const BlasCounters& after, std::int64_t calls,
                          double nominal_flops);

/// runtime.parks / runtime.wakeups: WorkerPool::stats() deltas per call.
struct PoolDeltas {
  std::int64_t parks = 0;
  std::int64_t wakeups = 0;
  std::int64_t calls = 0;
  void add(const camult::rt::WorkerPoolStats& before,
           const camult::rt::WorkerPoolStats& after, std::int64_t n_calls);
  void report(Result& r) const;
};

/// Wall times of `body` over repetitions (at least `min_reps`, then until
/// `budget_s` is spent); `prepare` runs untimed before each.
std::vector<double> time_reps(double budget_s, int min_reps,
                              const std::function<void()>& prepare,
                              const std::function<void()>& body);
/// Median of time_reps.
double time_median(double budget_s, int min_reps,
                   const std::function<void()>& prepare,
                   const std::function<void()>& body);

/// Shape of the panel path and trailing update of one CALU/CAQR problem.
struct PanelShape {
  idx m = 0;
  idx n = 0;
  idx b = 0;
  idx tr = 0;
};

/// core.tslu_s / core.tsqr_s on the first m x b panel of `lu_in` /
/// `qr_in`, lapack.rgetf2_s / lapack.geqr3_s on one (m/tr) x b leaf of it,
/// blas.gemm_gflops on the CALU first trailing update
/// (m-b) x (n-b) x b, and blas.peak_gflops on a cache-resident gemm. All
/// on the calling thread, inside `budget_s`; `scratch` (at least the size of
/// `lu_in`) is overwritten.
void report_kernels(Result& r, const camult::Matrix& lu_in,
                    const PanelShape& lu_shape, const camult::Matrix& qr_in,
                    const PanelShape& qr_shape, camult::MatrixView scratch,
                    double budget_s);

}  // namespace perfbench
