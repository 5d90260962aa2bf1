// factor_driver.hpp — the one right-looking driver CALU and CAQR run on
// (internal; included by calu.cpp and caqr.cpp only).
//
// Both algorithms are the same scheme on the same dynamic scheduler (paper
// Algorithms 1 and 2): per panel iteration k, submit the panel tasks and the
// trailing-update tasks with block-access dependencies and look-ahead
// priorities; optionally throttle submission to a sliding window of live
// iterations; drain; harvest trace, counters and memory telemetry. Only the
// tasks differ, so the lifecycle lives here once, parameterized by an
// algorithm policy `Algo` that supplies:
//
//   using Options / Result           — CaluOptions/CaluResult, ...
//   Algo(DriverState&, const Options&) — per-run setup (result arrays);
//                                      runs before the graph exists
//   void submit_iteration(idx k)     — every task of panel iteration k
//   void submit_tail()               — tasks after the last iteration
//                                      (CALU's deferred left swaps)
//   void retire(idx k)               — windowed mode: free iteration k's
//                                      scratch once it fully retired
//   void fold()                      — collect-time fold into `result`
//   Result result                    — filled by the tasks and fold()
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/lookahead.hpp"
#include "core/options.hpp"
#include "runtime/dep_tracker.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::core::detail {

/// Problem geometry and submission-side state of one factorization run,
/// shared by the driver and its algorithm policy.
struct DriverState {
  DriverState(MatrixView a_in, const FactorOptions& opts)
      : a(a_in),
        m(a_in.rows()),
        n(a_in.cols()),
        k_total(std::min(m, n)),
        b(std::max<idx>(1, std::min(opts.b, k_total))),
        n_panels((k_total + b - 1) / b),
        n_blocks((n + b - 1) / b),
        m_blocks((m + b - 1) / b),
        // Per-iteration dep-key stride: partition_panel_rows returns at most
        // min(tr, m_blocks) leaves (leaf boundaries are multiples of b, and a
        // reduction schedule has fewer steps than leaves), so this bound
        // keeps every iteration's keys disjoint for any user-supplied tr.
        key_stride(std::max<idx>(1, std::min(opts.tr, m_blocks)) + 1),
        window(opts.window > 0 && n_panels > 0 ? opts.window : 0),
        ring{window > 0 ? window + 2 : 0},
        // Look-ahead priority bands (see lookahead.hpp): panel path on top,
        // then the next panel's column updates, then ordinary updates.
        prio{n_panels, n_blocks, opts.lookahead},
        priority_bias(opts.priority_bias) {}

  MatrixView a;
  idx m, n, k_total, b;
  idx n_panels, n_blocks, m_blocks;
  idx key_stride;
  idx window;  ///< 0 = full-DAG mode
  KeyRing ring;  ///< dep-key reuse across retired iterations
  LookaheadPriorities prio;
  int priority_bias;
  rt::DepTracker tracker;
  rt::TaskGraph* graph = nullptr;  ///< owned by the FactorDriver
  /// Task ids are assigned densely in submission order, so the id is known
  /// before submit() and can register the block accesses.
  rt::TaskId next_id = 0;

  /// Submit one task whose dependencies are inferred from `acc`.
  rt::TaskId add_task(const std::vector<rt::BlockAccess>& acc,
                      rt::TaskOptions topts, std::function<void()> fn) {
    topts.priority = biased_priority(topts.priority, priority_bias);
    const std::vector<rt::TaskId> deps = tracker.depends(next_id, acc);
    const rt::TaskId id = graph->submit(deps, std::move(topts), std::move(fn));
    assert(id == next_id);
    ++next_id;
    return id;
  }
};

/// Dependency key of matrix tile (i, j) (b x b blocks), the key space both
/// algorithms' trailing updates share.
inline rt::BlockKey tile_key(idx i, idx j) { return rt::block_key(i, j); }

/// Append tiles [i0, i1) of block column j to `acc` with `mode`.
inline void add_tile_range(std::vector<rt::BlockAccess>& acc, idx i0, idx i1,
                           idx j, rt::AccessMode mode) {
  for (idx i = i0; i < i1; ++i) acc.push_back({tile_key(i, j), mode});
}

inline rt::TaskGraph::Config graph_config(const FactorOptions& opts) {
  rt::TaskGraph::Config cfg;
  cfg.num_threads = opts.num_threads;
  cfg.record_trace = opts.record_trace;
  cfg.policy = opts.scheduler;
  cfg.pool = opts.pool;
  cfg.cancel = opts.cancel;
  cfg.fault = opts.fault;
  cfg.fault_salt = opts.fault_salt;
  return cfg;
}

/// One submitted-but-not-yet-collected factorization. The constructor
/// submits the DAG — all of it with window == 0 (inline mode runs it right
/// there), the first `window` iterations otherwise — and collect() pumps the
/// rest, drains and harvests. Task bodies hold raw pointers into the policy's
/// state, so a driver never moves: callers keep it on the stack or the heap.
/// Destruction without collect() drains the graph and discards the result.
template <class Algo>
class FactorDriver {
 public:
  using Options = typename Algo::Options;
  using Result = typename Algo::Result;

  FactorDriver(MatrixView a, const Options& opts)
      : opts_(opts), s_(a, opts_), algo_(s_, opts_) {
    graph_ = std::make_unique<rt::TaskGraph>(graph_config(opts_));
    s_.graph = graph_.get();
    if (s_.window > 0) {
      graph_->track_iterations(s_.n_panels);
      // Runs on the submission thread (inside wait_retired_iterations /
      // wait), so the policy may free state the pump is not touching.
      graph_->set_retire_hook([this](idx k) { algo_.retire(k); });
    }
    pump(s_.window > 0 ? s_.window : s_.n_panels);
  }

  FactorDriver(const FactorDriver&) = delete;
  FactorDriver& operator=(const FactorDriver&) = delete;

  /// Drain the graph and harvest the result. `sched_out`, when set, receives
  /// the scheduler counters even on the throwing path — the only window into
  /// how much of the DAG a fast-abort skipped, since the exception discards
  /// the result. Call at most once.
  Result collect() {
    try {
      pump(s_.n_panels);
      graph_->wait();
    } catch (...) {
      if (opts_.sched_out != nullptr) *opts_.sched_out = graph_->stats();
      throw;
    }
    algo_.fold();
    Result& r = algo_.result;
    if (opts_.record_trace) {
      r.trace = graph_->trace();
      r.edges = graph_->edges();
    }
    r.sched = graph_->stats();
    r.mem = graph_->memory();
    if (opts_.sched_out != nullptr) *opts_.sched_out = r.sched;
    return std::move(r);
  }

 private:
  // Advance the submission pump until iteration `stop` (exclusive) has been
  // submitted; once every panel iteration is in, submit the policy's tail.
  // Windowed mode throttles: iteration k is only submitted after iteration
  // k - window fully retired, and each iteration is sealed as soon as its
  // last task is in (the last one only after the tail, whose tasks carry its
  // tag) so completions can retire it. On cancellation the pump stops
  // submitting — skipped tasks still complete, so the retired prefix stays
  // consistent and wait() reports the CancelledError.
  void pump(idx stop) {
    rt::TaskGraph& g = *graph_;
    const idx lim = std::min(stop, s_.n_panels);
    while (next_k_ < lim) {
      if (s_.window > 0) {
        if (g.aborted()) return;
        if (next_k_ > s_.window) g.wait_retired_iterations(next_k_ - s_.window);
      }
      algo_.submit_iteration(next_k_);
      if (s_.window > 0 && next_k_ < s_.n_panels - 1) {
        g.seal_iterations(next_k_);
      }
      ++next_k_;
    }
    if (next_k_ >= s_.n_panels && !tail_done_) {
      if (!(s_.window > 0 && g.aborted())) algo_.submit_tail();
      if (s_.window > 0) g.seal_iterations(s_.n_panels - 1);
      tail_done_ = true;
    }
  }

  const Options opts_;
  DriverState s_;
  Algo algo_;
  idx next_k_ = 0;  ///< first not-yet-submitted iteration
  bool tail_done_ = false;
  // Declared last so it is destroyed first: the graph's destructor drains
  // every pending task, and those tasks still point into algo_.
  std::unique_ptr<rt::TaskGraph> graph_;
};

/// Factor every matrix in `as` (independent problems, results positional).
/// In threaded mode all DAGs are submitted before any is collected, on
/// opts.pool or else one pool of opts.num_threads workers for the batch, so
/// small problems share workers. Inline mode executes tasks at submit time,
/// so batching would only interleave serial work: it runs one problem at a
/// time. A fired cancel token yields per-job cancelled results (completed
/// prefix intact, real skip counters) instead of throwing the batch away;
/// task errors still propagate. A caller-supplied sched_out ends up holding
/// the last job's counters.
template <class Algo>
std::vector<typename Algo::Result> factor_batch(
    const std::vector<MatrixView>& as, const typename Algo::Options& opts) {
  using Result = typename Algo::Result;
  const bool overlap = opts.num_threads != 0 && as.size() > 1;
  std::unique_ptr<rt::WorkerPool> batch_pool;
  rt::WorkerPool* pool = opts.pool;
  if (overlap && pool == nullptr) {
    batch_pool = std::make_unique<rt::WorkerPool>(
        rt::WorkerPoolConfig{opts.num_threads, false});
    pool = batch_pool.get();
  }
  std::vector<rt::SchedulerStats> scheds(as.size());
  std::vector<std::unique_ptr<FactorDriver<Algo>>> jobs(as.size());
  auto submit = [&](std::size_t i) {
    typename Algo::Options jopts = opts;
    jopts.pool = pool;
    jopts.sched_out = &scheds[i];
    jobs[i] = std::make_unique<FactorDriver<Algo>>(as[i], jopts);
  };
  if (overlap) {
    for (std::size_t i = 0; i < as.size(); ++i) submit(i);
  }
  std::vector<Result> out;
  out.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    if (!overlap) submit(i);
    try {
      out.push_back(jobs[i]->collect());
    } catch (const rt::CancelledError&) {
      Result r;
      r.cancelled = true;
      r.sched = scheds[i];
      out.push_back(std::move(r));
    }
    jobs[i].reset();
    if (opts.sched_out != nullptr) *opts.sched_out = scheds[i];
  }
  return out;
}

}  // namespace camult::core::detail

namespace camult::core {

// FactorAsync members. Each algorithm's source file defines
// FactorAsync<Options, Result>::Impl as its FactorDriver and explicitly
// instantiates the class, so these definitions are compiled there only.
template <class Options, class Result>
FactorAsync<Options, Result>::FactorAsync(MatrixView a, const Options& opts)
    : impl_(std::make_unique<Impl>(a, opts)) {}

// The driver's graph drains and detaches in its destructor, so dropping an
// uncollected handle cannot wedge an attached pool.
template <class Options, class Result>
FactorAsync<Options, Result>::~FactorAsync() = default;
template <class Options, class Result>
FactorAsync<Options, Result>::FactorAsync(FactorAsync&&) noexcept = default;
template <class Options, class Result>
FactorAsync<Options, Result>& FactorAsync<Options, Result>::operator=(
    FactorAsync&&) noexcept = default;

template <class Options, class Result>
Result FactorAsync<Options, Result>::collect() {
  if (impl_ == nullptr) {
    throw std::logic_error("FactorAsync::collect called twice");
  }
  const std::unique_ptr<Impl> impl = std::move(impl_);
  return impl->collect();
}

}  // namespace camult::core
