#include "layers.hpp"

#include <algorithm>
#include <mutex>

#include "blas/gemm.hpp"
#include "core/tslu.hpp"
#include "core/tsqr.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/getrf.hpp"
#include "matrix/random.hpp"
#include "runtime/trace.hpp"
#include "sim/sim_scheduler.hpp"

namespace perfbench {

using camult::Matrix;
namespace rt = camult::rt;

void TraceAgg::add(const std::vector<rt::TaskRecord>& trace,
                   const std::vector<rt::TaskGraph::Edge>& edges,
                   const rt::SchedulerStats& sched,
                   const rt::TaskGraph::MemoryStats& mem) {
  const rt::TraceStats st = rt::compute_stats(trace, workers(), sched);
  std::int64_t by_kind = 0;
  for (const auto& [kind, ns] : st.busy_by_kind_ns) {
    kind_ns[static_cast<std::size_t>(kind)] += ns;
    by_kind += ns;
  }
  kinds_sum_ok = kinds_sum_ok && by_kind == st.busy_ns;
  ++calls;
  tasks += static_cast<std::int64_t>(trace.size());
  busy_ns += st.busy_ns;
  parked_ns += sched.totals().idle_ns;
  critical_path_ns +=
      camult::sim::simulate(trace, edges, workers()).critical_path_ns;
  peak_task_store_bytes =
      std::max(peak_task_store_bytes, mem.peak_task_store_bytes);
}

void TraceAgg::report(Result& r, double window_s) const {
  const double n = static_cast<double>(std::max<std::int64_t>(calls, 1));
  const double capacity_ns = window_s * 1e9 * workers();
  r.add("runtime.tasks", static_cast<double>(tasks) / n, "count");
  r.add("runtime.idle_frac",
        1.0 - static_cast<double>(busy_ns) / capacity_ns, "fraction");
  r.add("runtime.overhead_ns_per_task",
        (capacity_ns - static_cast<double>(busy_ns + parked_ns)) /
            static_cast<double>(std::max<std::int64_t>(tasks, 1)),
        "ns");
  r.add("runtime.critical_path_s",
        static_cast<double>(critical_path_ns) / n * 1e-9, "s");
  r.add("runtime.peak_task_store_bytes",
        static_cast<double>(peak_task_store_bytes), "bytes");
  const auto per_call_s = [&](rt::TaskKind k) {
    return static_cast<double>(kind_ns[static_cast<std::size_t>(k)]) / n *
           1e-9;
  };
  r.add("core.panel_busy_s", per_call_s(rt::TaskKind::Panel), "s");
  r.add("core.l_busy_s", per_call_s(rt::TaskKind::LFactor), "s");
  r.add("core.u_busy_s", per_call_s(rt::TaskKind::UFactor), "s");
  r.add("core.aux_busy_s", per_call_s(rt::TaskKind::Generic), "s");
  r.add("blas.update_busy_s", per_call_s(rt::TaskKind::Update), "s");
}

BlasCounters blas_counters(rt::WorkerPool& pool) {
  BlasCounters total;
  std::mutex mu;  // workers run the control fn concurrently
  pool.run_on_all_workers([&total, &mu] {
    const std::int64_t bytes = camult::blas::gemm_traffic().total();
    const camult::blas::BufferPoolStats bp = camult::blas::buffer_pool_stats();
    std::lock_guard<std::mutex> lock(mu);
    total.gemm_bytes += bytes;
    total.pool_acquires += bp.acquires;
    total.pool_hits += bp.pool_hits;
  });
  return total;
}

void report_blas_counters(Result& r, const BlasCounters& before,
                          const BlasCounters& after, std::int64_t calls,
                          double nominal_flops) {
  const double bytes =
      static_cast<double>(after.gemm_bytes - before.gemm_bytes);
  const double acquires =
      static_cast<double>(after.pool_acquires - before.pool_acquires);
  const double hits = static_cast<double>(after.pool_hits - before.pool_hits);
  r.add("blas.bytes_moved",
        bytes / static_cast<double>(std::max<std::int64_t>(calls, 1)),
        "B_computed");
  r.add("blas.flops_per_byte", bytes > 0 ? nominal_flops / bytes : 0.0,
        "flop/B_comp");
  r.add("blas.pool_hit_frac", acquires > 0 ? hits / acquires : 0.0,
        "fraction");
}

void PoolDeltas::add(const rt::WorkerPoolStats& before,
                     const rt::WorkerPoolStats& after, std::int64_t n_calls) {
  parks += after.parks - before.parks;
  wakeups += after.wakeups_issued - before.wakeups_issued;
  calls += n_calls;
}

void PoolDeltas::report(Result& r) const {
  const double n = static_cast<double>(std::max<std::int64_t>(calls, 1));
  r.add("runtime.parks", static_cast<double>(parks) / n, "count");
  r.add("runtime.wakeups", static_cast<double>(wakeups) / n, "count");
}

std::vector<double> time_reps(double budget_s, int min_reps,
                              const std::function<void()>& prepare,
                              const std::function<void()>& body) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         seconds_since(start) < budget_s) {
    prepare();
    const Clock::time_point t0 = Clock::now();
    body();
    times.push_back(seconds_since(t0));
  }
  return times;
}

double time_median(double budget_s, int min_reps,
                   const std::function<void()>& prepare,
                   const std::function<void()>& body) {
  return median(time_reps(budget_s, min_reps, prepare, body));
}

void report_kernels(Result& r, const Matrix& lu_in, const PanelShape& lu,
                    const Matrix& qr_in, const PanelShape& qr,
                    camult::MatrixView scratch, double budget_s) {
  using camult::blas::Trans;
  const double each = budget_s / 6.0;
  const idx lu_leaf = lu.m / lu.tr;
  const idx qr_leaf = qr.m / qr.tr;

  // Median time of `body` on a fresh copy of `src` in `dst`.
  const auto on_copy = [each](camult::ConstMatrixView src, Matrix& dst,
                              const std::function<void()>& body) {
    return time_median(
        each, 3, [&] { camult::copy_into(src, dst.view()); }, body);
  };

  Matrix panel(lu.m, lu.b);
  Matrix leaf(lu_leaf, lu.b);
  camult::PivotVector ipiv;
  camult::core::TsluOptions tslu_opts;
  tslu_opts.tr = lu.tr;
  r.add("core.tslu_s", on_copy(lu_in.block(0, 0, lu.m, lu.b), panel, [&] {
          (void)camult::core::tslu_factor(panel.view(), ipiv, tslu_opts);
        }),
        "s");
  r.add("lapack.rgetf2_s",
        on_copy(lu_in.block(0, 0, lu_leaf, lu.b), leaf,
                [&] { (void)camult::lapack::rgetf2(leaf.view(), ipiv); }),
        "s");

  Matrix qpanel(qr.m, qr.b);
  Matrix qleaf(qr_leaf, qr.b);
  Matrix t(qr.b, qr.b);
  std::vector<double> tau;
  camult::core::TsqrOptions tsqr_opts;
  tsqr_opts.tr = qr.tr;
  tsqr_opts.tree = camult::core::CaqrOptions{}.tree;
  r.add("core.tsqr_s", on_copy(qr_in.block(0, 0, qr.m, qr.b), qpanel, [&] {
          (void)camult::core::tsqr_factor(qpanel.view(), tsqr_opts);
        }),
        "s");
  r.add("lapack.geqr3_s",
        on_copy(qr_in.block(0, 0, qr_leaf, qr.b), qleaf,
                [&] { camult::lapack::geqr3(qleaf.view(), tau, t.view()); }),
        "s");

  // The first CALU trailing update: C(m-b, n-b) -= L(m-b, b) * U(b, n-b),
  // on blocks of the input; C is restored into `scratch` before each rep.
  const idx um = lu.m - lu.b;
  const idx un = lu.n - lu.b;
  const camult::ConstMatrixView ua = lu_in.block(lu.b, 0, um, lu.b);
  const camult::ConstMatrixView ub = lu_in.block(0, lu.b, lu.b, un);
  const camult::MatrixView uc = scratch.block(0, 0, um, un);
  const double update_s = time_median(
      each, 3, [&] { camult::copy_into(lu_in.block(lu.b, lu.b, um, un), uc); },
      [&] {
        camult::blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, ua, ub, 1.0,
                           uc);
      });
  r.add("blas.gemm_gflops",
        2.0 * static_cast<double>(um * un * lu.b) / update_s * 1e-9, "GF/s");

  // Roofline bound: the best rep of a 256^3 multiply whose operands
  // (1.5 MiB) stay in L2.
  constexpr idx kPeak = 256;
  Matrix pa = camult::random_matrix(kPeak, kPeak, 104);
  Matrix pb = camult::random_matrix(kPeak, kPeak, 105);
  Matrix pc = camult::random_matrix(kPeak, kPeak, 106);
  const std::vector<double> peak_reps = time_reps(each, 20, [] {}, [&] {
    camult::blas::gemm(Trans::NoTrans, Trans::NoTrans, 1.0, pa.view(),
                       pb.view(), 0.0, pc.view());
  });
  const double peak_s = *std::min_element(peak_reps.begin(), peak_reps.end());
  r.add("blas.peak_gflops",
        2.0 * static_cast<double>(kPeak * kPeak * kPeak) / peak_s * 1e-9,
        "GF/s");
}

}  // namespace perfbench
