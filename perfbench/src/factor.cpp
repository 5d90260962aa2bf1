// factor.cpp — the tall_skinny and square workloads: jobs of one CALU and
// one CAQR call on one persistent WorkerPool with a worker pinned to each
// core, every output compared bitwise with a reference factorization of the
// same input.
#include <cstdio>
#include <optional>

#include "bench_support/flops.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "matrix/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using camult::Matrix;
using camult::MatrixView;
namespace core = camult::core;
namespace rt = camult::rt;

PanelShape shape_of(const std::string& workload) {
  // Fig. 5/8 regime (panel-bound) vs. a GEMM-bound square matrix.
  if (workload == "tall_skinny") return {100000, 200, 50, 4};
  return {2000, 2000, 100, 4};
}

/// One factorization call of either kind, its wall time and whether its
/// output matched the reference.
struct Call {
  double seconds = 0.0;
  bool ok = false;
  std::uint64_t print = 0;
  std::optional<core::CaluResult> lu;
  std::optional<core::CaqrResult> qr;
};

class Factorizer {
 public:
  Factorizer(const Matrix& a, const PanelShape& s)
      : a_(a), s_(s), work_(a.rows(), a.cols()) {}

  MatrixView work() { return work_.view(); }
  std::uint64_t ref(bool lu) const { return lu ? lu_ref_ : qr_ref_; }
  double flops(bool lu) const {
    return lu ? camult::bench::lu_flops(s_.m, s_.n)
              : camult::bench::qr_flops(s_.m, s_.n);
  }

  /// Copy the input (untimed), factor it on `pool` and fingerprint the
  /// output. `flip` flips the sign bit of one output element first
  /// (self-test).
  Call run(bool lu, rt::WorkerPool& pool, bool trace, bool flip = false) {
    camult::copy_into(a_.view(), work_.view());
    Call c;
    Clock::time_point t0;
    if (lu) {
      core::CaluOptions o;
      o.b = s_.b;
      o.tr = s_.tr;
      o.pool = &pool;
      o.num_threads = pool.size();
      o.record_trace = trace;
      t0 = Clock::now();
      c.lu = core::calu_factor(work_.view(), o);
      c.seconds = seconds_since(t0);
    } else {
      core::CaqrOptions o;
      o.b = s_.b;
      o.tr = s_.tr;
      o.pool = &pool;
      o.num_threads = pool.size();
      o.record_trace = trace;
      t0 = Clock::now();
      c.qr = core::caqr_factor(work_.view(), o);
      c.seconds = seconds_since(t0);
    }
    if (flip) work_(s_.m - 1, s_.n - 1) = -work_(s_.m - 1, s_.n - 1);
    c.print = lu ? lu_fingerprint(work_.view(), c.lu->ipiv)
                 : qr_fingerprint(work_.view(), *c.qr);
    const bool healthy =
        lu ? c.lu->info == 0 && !c.lu->health.degraded()
           : !c.qr->health.degraded();
    c.ok = healthy && c.print == (lu ? lu_ref_ : qr_ref_);
    return c;
  }

  /// Warm-up call of each kind; their outputs become the references.
  double warm_up(rt::WorkerPool& pool) {
    Call lu = run(true, pool, false);
    Call qr = run(false, pool, false);
    lu_ref_ = lu.print;
    qr_ref_ = qr.print;
    return lu.seconds + qr.seconds;
  }

  /// Factor once more and check the reference against the serial bounds;
  /// every timed output is bitwise this one, so this verifies them all.
  bool verify(rt::WorkerPool& pool) {
    Call lu = run(true, pool, false);
    const double lu_res = lu_check(a_.view(), work_.view(), lu.lu->ipiv);
    Call qr = run(false, pool, false);
    const double qr_res = qr_check(a_.view(), work_.view(), *qr.qr);
    std::printf("verify: lu residual %.3g, qr residual/orthogonality %.3g "
                "(bound %g)\n",
                lu_res, qr_res, kResidualBound);
    return lu.ok && qr.ok && lu_res < kResidualBound && qr_res < kResidualBound;
  }

 private:
  const Matrix& a_;
  PanelShape s_;
  Matrix work_;
  std::uint64_t lu_ref_ = 0;
  std::uint64_t qr_ref_ = 0;
};

/// Timed phase: jobs of one CALU and one CAQR call of the input, back to
/// back, for `seconds`.
void timed(const RunArgs& args, Factorizer& f, rt::WorkerPool& pool,
           Result& r) {
  std::vector<double> lu_s, qr_s, job_ms;
  double flops = 0.0;
  double busy_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i == 0 || seconds_since(start) < args.seconds; ++i) {
    double job_s = 0.0;
    bool job_ok = true;
    for (const bool lu : {true, false}) {
      Call c;
      try {
        c = f.run(lu, pool, false, args.corrupt && i == 1 && !lu);
      } catch (const std::exception& e) {
        std::printf("job %d threw: %s\n", i, e.what());
      }
      r.op(c.ok);
      job_ok = job_ok && c.ok;
      if (!c.ok) continue;
      (lu ? lu_s : qr_s).push_back(c.seconds);
      flops += f.flops(lu);
      busy_s += c.seconds;
      job_s += c.seconds;
    }
    if (job_ok) job_ms.push_back(job_s * 1e3);
  }
  std::printf(
      "timed: %zu jobs; calu s p25/p50/p75 %.4f/%.4f/%.4f; caqr s "
      "%.4f/%.4f/%.4f\n",
      job_ms.size(), percentile(lu_s, 0.25), percentile(lu_s, 0.5),
      percentile(lu_s, 0.75), percentile(qr_s, 0.25), percentile(qr_s, 0.5),
      percentile(qr_s, 0.75));
  r.add("lu_s_p50", median(lu_s), "s");
  r.add("qr_s_p50", median(qr_s), "s");
  r.add("gflops", flops / busy_s * 1e-9, "GF/s");
  r.add("job_ms_p50", median(job_ms), "ms");
  r.add("jobs_per_s", static_cast<double>(job_ms.size()) / busy_s, "1/s");
}

/// Traced phase: untraced and traced calls interleaved (for the tracing
/// overhead), per-layer aggregates over the traced ones.
void traced(const RunArgs& args, const Matrix& a, const PanelShape& s,
            Factorizer& f, rt::WorkerPool& pool, Result& r) {
  std::vector<double> plain_lu, plain_qr, traced_lu, traced_qr;
  TraceAgg agg;
  PoolDeltas deltas;
  double traced_wall_s = 0.0;
  double flops = 0.0;
  std::int64_t calls = 0;
  const BlasCounters c0 = blas_counters(pool);
  const Clock::time_point start = Clock::now();
  while (calls == 0 || seconds_since(start) < 0.4 * args.seconds) {
    for (const bool lu : {true, false}) {
      Call plain = f.run(lu, pool, false);
      r.op(plain.ok);
      (lu ? plain_lu : plain_qr).push_back(plain.seconds);
      const rt::WorkerPoolStats p0 = pool.stats();
      Call c = f.run(lu, pool, true);
      deltas.add(p0, pool.stats(), 1);
      r.op(c.ok);
      (lu ? traced_lu : traced_qr).push_back(c.seconds);
      if (lu) {
        agg.add(c.lu->trace, c.lu->edges, c.lu->sched, c.lu->mem);
      } else {
        agg.add(c.qr->trace, c.qr->edges, c.qr->sched, c.qr->mem);
      }
      traced_wall_s += c.seconds;
      flops += 2.0 * f.flops(lu);
      calls += 2;
    }
  }
  report_blas_counters(r, c0, blas_counters(pool), calls, flops);
  agg.report(r, traced_wall_s);
  deltas.report(r);
  r.add("runtime.trace_overhead_frac",
        (median(traced_lu) + median(traced_qr)) /
                (median(plain_lu) + median(plain_qr)) - 1.0,
        "fraction");
  if (!agg.kinds_sum_ok) {
    std::printf("trace: per-kind busy time does not sum to total busy\n");
    r.correct = false;
  }

  // The input as svc jobs (one CALU job, then one CAQR job due 0.5 s later:
  // the generator copies each input before its due time), and called
  // directly on a one-worker pool for work as opposed to span.
  const std::vector<JobInput> inputs = {
      {camult::svc::JobKind::CaluFactor, &a, s.b, s.tr, f.ref(true),
       f.flops(true)},
      {camult::svc::JobKind::CaqrFactor, &a, s.b, s.tr, f.ref(false),
       f.flops(false)}};
  {
    camult::svc::ServiceConfig cfg;
    cfg.pool = &pool;
    camult::svc::Service service(cfg);
    const JobsOut out = run_open(service, inputs, {{0.0, 0}, {0.5, 1}}, r);
    report_svc(r, out, service.stats());
  }
  {
    rt::WorkerPool serial({.num_threads = 1});
    const double budget_s = 0.05 * args.seconds;
    const double lu_s =
        direct_seconds(serial, inputs[0], f.work(), budget_s, r);
    const double qr_s =
        direct_seconds(serial, inputs[1], f.work(), budget_s, r);
    r.add("core.serial_s", 0.5 * (lu_s + qr_s), "s");
  }

  report_kernels(r, a, s, a, s, f.work(), 0.3 * args.seconds);
}

}  // namespace

Result run_factor(const RunArgs& args) {
  const PanelShape s = shape_of(args.workload);
  const Matrix a = camult::random_matrix(s.m, s.n, args.seed);
  Factorizer f(a, s);
  Result r;

  const Clock::time_point t0 = Clock::now();
  rt::WorkerPool pool({.num_threads = workers(), .pin_threads = true});
  const double pool_s = seconds_since(t0);
  const double setup_s = pool_s + f.warm_up(pool);
  if (args.setup_only) {
    r.add("setup_s", setup_s, "s");
    return r;
  }

  if (args.trace) {
    traced(args, a, s, f, pool, r);
  } else {
    r.add("setup_s", setup_s, "s");
    timed(args, f, pool, r);
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  if (!f.verify(pool)) {
    std::printf("verify: reference factorization FAILED the serial bounds\n");
    r.correct = false;
    r.failed = r.attempted;
  }
  return r;
}

}  // namespace perfbench
