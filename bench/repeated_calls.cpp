// repeated_calls.cpp — amortizing worker startup across many small
// factorizations.
//
// The paper's experiments factor one large matrix per process, so spawning
// the worker threads inside calu_factor was free. Real callers (panel
// sweeps, batched least-squares, iterative refinement) call the
// factorization thousands of times on small matrices, where the per-call
// thread spawn/join AND the loss of the workers' thread-local slab pools
// dominate. This bench measures back-to-back small-problem throughput in
// three modes:
//
//   owned  — a private pool per call: no caller pool, so each call's
//            graph spawns and joins its own workers (row name kept for
//            JSON compatibility)
//   pool   — every call attaches to one persistent rt::WorkerPool
//   batch  — calu_factor_batch submits several DAGs to the pool at once
//
// plus the same owned/pool comparison for CAQR. The JSON rows also record
// cross_call_pool_hits: the slab-pool hit delta between the persistent
// pool's first and second call, which is the reuse per-call workers can
// never achieve (their pools die with the threads).
#include <chrono>
#include <functional>

#include "bench_common.hpp"
#include "core/drivers.hpp"
#include "runtime/worker_pool.hpp"

namespace {

using namespace camult;
using Clock = std::chrono::steady_clock;

double time_reps(int reps, const std::function<void()>& call) {
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) call();
  const auto t1 = Clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const int reps = static_cast<int>(bench::env_idx("CAMULT_BENCH_REPS", 40));
  const idx m = bench::env_idx("CAMULT_BENCH_M", 256);
  const idx b = bench::env_idx("CAMULT_BENCH_B", 64);
  const idx batch_size = bench::env_idx("CAMULT_BENCH_BATCH", 4);
  const int threads = rt::default_num_threads();
  std::printf(
      "repeated small factorizations: %lld x %lld, b=%lld, %d threads, "
      "%d calls per mode (batch size %lld)\n",
      static_cast<long long>(m), static_cast<long long>(m),
      static_cast<long long>(b), threads, reps,
      static_cast<long long>(batch_size));

  const Matrix a0 = random_matrix(m, m, 7);
  core::CaluOptions lu;
  lu.b = b;
  lu.tr = 2;
  lu.num_threads = threads;
  lu.record_trace = false;
  core::CaqrOptions qr;
  qr.b = b;
  qr.tr = 2;
  qr.num_threads = threads;
  qr.record_trace = false;

  rt::WorkerPool pool(rt::WorkerPoolConfig{threads, false});
  core::CaluOptions lu_pool = lu;
  lu_pool.pool = &pool;
  core::CaqrOptions qr_pool = qr;
  qr_pool.pool = &pool;

  auto lu_call = [&](const core::CaluOptions& o) {
    Matrix w = a0;
    (void)core::calu_factor(w.view(), o);
  };
  auto qr_call = [&](const core::CaqrOptions& o) {
    Matrix w = a0;
    (void)core::caqr_factor(w.view(), o);
  };

  // Cross-call slab reuse on the (so far cold) persistent pool: the second
  // call must be served from slabs the first call parked in the workers'
  // thread-local pools. Per-call workers restart from empty pools every
  // time, so this delta is exactly what persistence buys.
  lu_call(lu_pool);
  const blas::BufferPoolStats warm = core::pool_buffer_stats(pool);
  lu_call(lu_pool);
  const blas::BufferPoolStats second = core::pool_buffer_stats(pool);
  const long long cross_call_hits =
      static_cast<long long>(second.pool_hits - warm.pool_hits);
  const long long cross_call_allocs =
      static_cast<long long>(second.allocs - warm.allocs);
  std::printf(
      "persistent pool, 2nd CALU call: %lld slab hits, %lld new allocs\n",
      cross_call_hits, cross_call_allocs);

  lu_call(lu);  // warm the owned path too (first-touch, code paging)
  qr_call(qr);
  qr_call(qr_pool);

  struct Row {
    const char* mode;
    const char* algo;
    int calls;
    double seconds;
  };
  std::vector<Row> rows;
  rows.push_back({"owned", "calu", reps, time_reps(reps, [&] { lu_call(lu); })});
  rows.push_back(
      {"pool", "calu", reps, time_reps(reps, [&] { lu_call(lu_pool); })});
  {
    // Batched: same total number of factorizations, submitted batch_size
    // DAGs at a time so the pool's workers rotate between them.
    const int n_batches =
        (reps + static_cast<int>(batch_size) - 1) / static_cast<int>(batch_size);
    const double secs = time_reps(n_batches, [&] {
      std::vector<Matrix> ws(static_cast<std::size_t>(batch_size), a0);
      std::vector<MatrixView> views;
      views.reserve(ws.size());
      for (Matrix& w : ws) views.push_back(w.view());
      (void)core::calu_factor_batch(views, lu_pool);
    });
    rows.push_back(
        {"batch", "calu", n_batches * static_cast<int>(batch_size), secs});
  }
  rows.push_back({"owned", "caqr", reps, time_reps(reps, [&] { qr_call(qr); })});
  rows.push_back(
      {"pool", "caqr", reps, time_reps(reps, [&] { qr_call(qr_pool); })});

  auto owned_ms = [&](const char* algo) {
    for (const Row& r : rows) {
      if (std::string(r.mode) == "owned" && std::string(r.algo) == algo) {
        return r.seconds * 1e3 / r.calls;
      }
    }
    return 0.0;
  };

  bench::Table t({"mode", "algo", "calls", "ms/call", "speedup vs owned"});
  bench::JsonReport rep("repeated_calls", threads, "real");
  for (const Row& r : rows) {
    const double ms = r.seconds * 1e3 / r.calls;
    const double speedup = owned_ms(r.algo) / ms;
    t.row().cell(r.mode).cell(r.algo);
    t.cell(static_cast<long long>(r.calls)).cell(ms).cell(speedup);
    bench::JsonValue& row = rep.new_row();
    row.set("competitor", bench::JsonValue::make_string(
                              std::string(r.algo) + "/" + r.mode));
    row.set("mode_kind", bench::JsonValue::make_string(r.mode));
    row.set("m", bench::JsonValue::make_number(static_cast<double>(m)));
    row.set("n", bench::JsonValue::make_number(static_cast<double>(m)));
    row.set("b", bench::JsonValue::make_number(static_cast<double>(b)));
    row.set("tr", bench::JsonValue::make_number(2));
    row.set("cores", bench::JsonValue::make_number(threads));
    row.set("calls", bench::JsonValue::make_number(r.calls));
    row.set("seconds", bench::JsonValue::make_number(r.seconds));
    row.set("ms_per_call", bench::JsonValue::make_number(ms));
    row.set("speedup_vs_owned", bench::JsonValue::make_number(speedup));
    if (std::string(r.mode) != "owned") {
      row.set("cross_call_pool_hits",
              bench::JsonValue::make_number(
                  static_cast<double>(cross_call_hits)));
      row.set("cross_call_pool_allocs",
              bench::JsonValue::make_number(
                  static_cast<double>(cross_call_allocs)));
    }
  }
  t.print("Repeated small-problem throughput",
          bench::csv_path("repeated_calls"));
  rep.write();

  const rt::WorkerPoolStats ps = pool.stats();
  std::printf(
      "\npool lifetime: %lld graphs attached, %lld parks, %lld tasks\n",
      static_cast<long long>(ps.graphs_attached),
      static_cast<long long>(ps.parks),
      static_cast<long long>(ps.lifetime.totals().tasks_executed));
  return 0;
}
