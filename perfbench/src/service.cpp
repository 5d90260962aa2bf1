// service.cpp — the service workload: a fault-free svc::Service on one
// WorkerPool (one worker per core), fed service_load's traffic mix in an
// open-loop phase at a fixed absolute rate and a closed-loop phase with a
// fixed number of outstanding jobs. Every completed job's output is
// compared bitwise with an inline (serial) factorization of its input.
#include <algorithm>
#include <cstdio>
#include <list>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench_support/flops.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "matrix/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using camult::Matrix;
namespace core = camult::core;
namespace rt = camult::rt;
namespace svc = camult::svc;

/// Fixed offered load of the open phase, in jobs/s. Deliberately NOT a
/// fraction of a capacity measured in the same run (bench/service_load does
/// that): a calibrated rate offers a faster build more traffic, so latency
/// could not be compared across commits. 300/s is about 45% of this
/// service's capacity on a 4-core host.
constexpr double kOpenRate = 300.0;
/// Outstanding jobs of the closed phase: two running (max_inflight) and two
/// queued, well inside the admission bound.
constexpr int kClosedClients = 4;
/// Admission bound: far above the open phase's typical depth, so a brief
/// host stall delays jobs instead of shedding them.
constexpr std::size_t kMaxQueue = 256;
/// Distinct inputs per job kind.
constexpr int kInputsPerKind = 8;
/// service_load's job shapes: CALU 128^2 (b=32, Tr=2), CAQR 384x48 (b=16,
/// Tr=4).
constexpr PanelShape kLuJob{128, 128, 32, 2};
constexpr PanelShape kQrJob{384, 48, 16, 4};

/// Draw the QoS class with service_load's 20/40/40 split.
svc::QosClass draw_qos(std::mt19937_64& rng) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  if (u < 0.2) return svc::QosClass::Interactive;
  if (u < 0.6) return svc::QosClass::Normal;
  return svc::QosClass::Batch;
}

/// A submitted job and the storage it factors in place.
struct Pending {
  Matrix storage;
  svc::JobHandle handle;
  std::size_t input = 0;
  double late_ms = 0.0;  ///< submit time - due time
};

/// Check one terminal job and fold it into `out` (caller serializes).
bool account(const Pending& p, const std::vector<JobInput>& inputs,
             JobsOut& out, bool trace) {
  const svc::JobOutcome& o = p.handle.wait();
  const JobInput& in = inputs[p.input];
  if (o.status != svc::JobStatus::Completed || o.info != 0 ||
      o.health.degraded()) {
    std::printf("job failed: %s %s\n", svc::job_status_name(o.status),
                o.error.c_str());
    return false;
  }
  const bool lu = in.kind == svc::JobKind::CaluFactor;
  const std::uint64_t print = lu ? lu_fingerprint(p.storage.view(), o.lu->ipiv)
                                 : qr_fingerprint(p.storage.view(), *o.qr);
  if (print != in.ref) {
    std::printf("job output differs from its inline reference\n");
    return false;
  }
  out.job_ms.push_back(p.late_ms + o.total_ms);
  out.queue_ms.push_back(o.queue_ms);
  out.run_ms.push_back(o.run_ms);
  (lu ? out.lu_run_s : out.qr_run_s).push_back(o.run_ms * 1e-3);
  out.flops += in.flops;
  ++out.completed;
  if (trace) {
    if (lu) {
      out.trace.add(o.lu->trace, o.lu->edges, o.lu->sched, o.lu->mem);
    } else {
      out.trace.add(o.qr->trace, o.qr->edges, o.qr->sched, o.qr->mem);
    }
  }
  return true;
}

svc::JobRequest request(const JobInput& in, Matrix& storage,
                        svc::QosClass qos) {
  storage = *in.a;  // the service factors its copy in place
  svc::JobRequest req;
  req.kind = in.kind;
  req.a = storage.view();
  req.qos = qos;
  req.tenant = svc::qos_name(qos);
  req.b = in.b;
  req.tr = in.tr;
  return req;
}

/// Closed loop: kClosedClients jobs outstanding for `seconds`. One client
/// waits for them in submission order and replaces each as it completes.
JobsOut run_closed(svc::Service& service, const std::vector<JobInput>& inputs,
                   double seconds, std::uint64_t seed, bool trace,
                   Result& r) {
  JobsOut out;
  std::mt19937_64 rng(seed);
  std::vector<Pending> slots(kClosedClients);
  const auto submit = [&](Pending& p) {
    p.input = static_cast<std::size_t>(rng() % inputs.size());
    p.handle =
        service.submit(request(inputs[p.input], p.storage, draw_qos(rng)))
            .handle;
  };
  const Clock::time_point start = Clock::now();
  for (Pending& p : slots) submit(p);
  std::size_t i = 0;
  for (; seconds_since(start) < seconds; i = (i + 1) % slots.size()) {
    r.op(account(slots[i], inputs, out, trace));
    submit(slots[i]);
  }
  for (std::size_t k = 0; k < slots.size(); ++k) {
    r.op(account(slots[(i + k) % slots.size()], inputs, out, trace));
  }
  out.elapsed_s = seconds_since(start);
  return out;
}

/// kInputsPerKind seeded inputs of each job shape, with inline references
/// checked against the serial bounds.
std::vector<JobInput> make_inputs(std::uint64_t seed,
                                  std::vector<Matrix>& storage, Result& r) {
  storage.clear();
  storage.reserve(2 * kInputsPerKind);
  std::vector<JobInput> inputs;
  for (int i = 0; i < 2 * kInputsPerKind; ++i) {
    const bool lu = i % 2 == 0;
    const PanelShape& shape = lu ? kLuJob : kQrJob;
    const idx m = shape.m;
    const idx n = shape.n;
    storage.push_back(camult::random_matrix(
        m, n, seed * 1000 + static_cast<std::uint64_t>(i)));
    JobInput in;
    in.kind = lu ? svc::JobKind::CaluFactor : svc::JobKind::CaqrFactor;
    in.a = &storage.back();
    in.b = shape.b;
    in.tr = shape.tr;
    Matrix f = storage.back();
    double resid = 0.0;
    bool healthy = false;
    if (lu) {
      core::CaluOptions o;
      o.b = in.b;
      o.tr = in.tr;
      o.num_threads = 0;
      o.record_trace = false;
      const core::CaluResult res = core::calu_factor(f.view(), o);
      in.ref = lu_fingerprint(f.view(), res.ipiv);
      resid = lu_check(in.a->view(), f.view(), res.ipiv);
      healthy = res.info == 0 && !res.health.degraded();
      in.flops = camult::bench::lu_flops(m, n);
    } else {
      core::CaqrOptions o;
      o.b = in.b;
      o.tr = in.tr;
      o.num_threads = 0;
      o.record_trace = false;
      const core::CaqrResult res = core::caqr_factor(f.view(), o);
      in.ref = qr_fingerprint(f.view(), res);
      resid = qr_check(in.a->view(), f.view(), res);
      healthy = !res.health.degraded();
      in.flops = camult::bench::qr_flops(m, n);
    }
    if (!healthy || !(resid < kResidualBound)) {
      std::printf("input %d: reference fails the serial bounds (%.3g)\n", i,
                  resid);
      r.correct = false;
    }
    inputs.push_back(in);
  }
  return inputs;
}

std::vector<Arrival> poisson_arrivals(std::uint64_t seed, double seconds,
                                      std::size_t n_inputs) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(kOpenRate);
  std::vector<Arrival> arrivals;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    Arrival a;
    a.due_s = t;
    a.input = static_cast<std::size_t>(rng() % n_inputs);
    a.qos = draw_qos(rng);
    arrivals.push_back(a);
  }
  return arrivals;
}

std::unique_ptr<svc::Service> make_service(rt::WorkerPool& pool, bool trace) {
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 2;
  cfg.max_queue = kMaxQueue;
  cfg.record_trace = trace;
  return std::make_unique<svc::Service>(cfg);
}

}  // namespace

JobsOut run_open(svc::Service& service, const std::vector<JobInput>& inputs,
                 const std::vector<Arrival>& arrivals, Result& r) {
  JobsOut out;
  std::list<Pending> pending;
  const auto harvest = [&](bool all) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (!all && !svc::job_status_terminal(it->handle.status())) {
        ++it;
        continue;
      }
      r.op(account(*it, inputs, out, false));
      it = pending.erase(it);
    }
  };
  // Each job's input is copied before its due time (the first one before
  // the phase starts), so the generator's own copying never makes it late.
  const auto prepare = [&](const Arrival& a) {
    Pending& p = pending.emplace_back();
    p.input = a.input;
    return request(inputs[a.input], p.storage, a.qos);
  };
  svc::JobRequest next;
  if (!arrivals.empty()) next = prepare(arrivals.front());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrivals[i].due_s));
    Pending& p = pending.back();
    std::this_thread::sleep_until(due);
    const Clock::time_point submitted = Clock::now();
    p.late_ms =
        std::chrono::duration<double, std::milli>(submitted - due).count();
    out.gen_late_ms_max = std::max(out.gen_late_ms_max, p.late_ms);
    p.handle = service.submit(next).handle;
    harvest(false);
    if (i + 1 < arrivals.size()) next = prepare(arrivals[i + 1]);
  }
  service.drain();
  harvest(true);
  out.elapsed_s = seconds_since(start);
  return out;
}

double direct_seconds(rt::WorkerPool& pool, const JobInput& in,
                      camult::MatrixView scratch, double budget_s,
                      Result& r) {
  if (scratch.rows() < in.a->rows() || scratch.cols() < in.a->cols()) {
    throw std::invalid_argument("direct_seconds: scratch too small");
  }
  const camult::MatrixView a = scratch.block(0, 0, in.a->rows(), in.a->cols());
  const bool lu = in.kind == svc::JobKind::CaluFactor;
  core::CaluOptions lo;
  core::CaqrOptions qo;
  lo.b = qo.b = in.b;
  lo.tr = qo.tr = in.tr;
  lo.pool = qo.pool = &pool;
  lo.record_trace = qo.record_trace = false;
  core::CaluResult lres;
  core::CaqrResult qres;
  const double seconds = time_median(
      budget_s, 2, [&] { camult::copy_into(in.a->view(), a); },
      [&] {
        if (lu) {
          lres = core::calu_factor(a, lo);
        } else {
          qres = core::caqr_factor(a, qo);
        }
      });
  r.op(in.ref == (lu ? lu_fingerprint(a, lres.ipiv) : qr_fingerprint(a, qres)));
  return seconds;
}

void report_svc(Result& r, const JobsOut& open,
                const svc::ServiceStats& stats) {
  std::int64_t retries = 0;
  std::int64_t shed = 0;
  for (const svc::QosStats& c : stats.per_class) {
    retries += c.retries;
    shed += c.shed() + c.rejected;
  }
  r.add("svc.queue_ms_p50", percentile(open.queue_ms, 0.5), "ms");
  r.add("svc.queue_ms_p99", percentile(open.queue_ms, 0.99), "ms");
  r.add("svc.run_ms_p50", percentile(open.run_ms, 0.5), "ms");
  r.add("svc.run_ms_p99", percentile(open.run_ms, 0.99), "ms");
  r.add("svc.peak_queue_depth", static_cast<double>(stats.peak_queue_depth),
        "count");
  r.add("svc.retries", static_cast<double>(retries), "count");
  r.add("svc.shed", static_cast<double>(shed), "count");
  r.add("bench.gen_late_ms_max", open.gen_late_ms_max, "ms");
}

Result run_service(const RunArgs& args) {
  Result r;
  std::vector<Matrix> storage;
  const std::vector<JobInput> inputs = make_inputs(args.seed, storage, r);

  // Set-up: pool + service construction and one warm-up job of each kind.
  const Clock::time_point t0 = Clock::now();
  rt::WorkerPool pool({.num_threads = workers(), .pin_threads = true});
  std::unique_ptr<svc::Service> service = make_service(pool, false);
  {
    Result warm;
    (void)run_open(*service, inputs, {{0.0, 0}, {0.0, 1}}, warm);
    if (warm.failed > 0) r.correct = false;
  }
  const double setup_s = seconds_since(t0);
  if (args.setup_only) {
    r.add("setup_s", setup_s, "s");
    return r;
  }

  if (!args.trace) {
    // Open and closed phases alternate in short rounds, and each metric is
    // the median of its per-round values: both phases sample the whole
    // run, and a round that host noise slowed does not move the result.
    r.add("setup_s", setup_s, "s");
    const int rounds = std::max(1, static_cast<int>(args.seconds / 3.0));
    const double phase_s = args.seconds / (2.0 * rounds);
    std::vector<double> job_ms, lu_s, qr_s, gflops, jobs_per_s, all_job_ms;
    for (int k = 0; k < rounds; ++k) {
      const std::uint64_t round_seed =
          args.seed * 1000 + static_cast<std::uint64_t>(k);
      const JobsOut open = run_open(
          *service, inputs,
          poisson_arrivals(round_seed, phase_s, inputs.size()), r);
      const JobsOut closed =
          run_closed(*service, inputs, phase_s, round_seed, false, r);
      job_ms.push_back(median(open.job_ms));
      lu_s.push_back(median(closed.lu_run_s));
      qr_s.push_back(median(closed.qr_run_s));
      gflops.push_back(closed.flops / closed.elapsed_s * 1e-9);
      jobs_per_s.push_back(static_cast<double>(closed.completed) /
                           closed.elapsed_s);
      all_job_ms.insert(all_job_ms.end(), open.job_ms.begin(),
                        open.job_ms.end());
    }
    r.add("lu_s_p50", median(lu_s), "s");
    r.add("qr_s_p50", median(qr_s), "s");
    r.add("gflops", median(gflops), "GF/s");
    r.add("job_ms_p50", median(job_ms), "ms");
    r.add("jobs_per_s", median(jobs_per_s), "1/s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    // Not a metric (too few samples beyond p99 on the factor workloads);
    // printed for the record.
    std::printf("%d rounds; open: job_ms p99 %.3f over %zu jobs\n", rounds,
                percentile(all_job_ms, 0.99), all_job_ms.size());
    return r;
  }

  // Traced run: an untraced closed phase for the tracing overhead, then a
  // traced open phase (svc.*) and a traced closed phase (runtime/core/blas).
  const double phase_s = args.seconds / 4.0;
  const JobsOut plain =
      run_closed(*service, inputs, phase_s, args.seed, false, r);
  service = make_service(pool, true);
  const JobsOut open = run_open(
      *service, inputs, poisson_arrivals(args.seed, phase_s, inputs.size()),
      r);
  const BlasCounters c0 = blas_counters(pool);
  const rt::WorkerPoolStats p0 = pool.stats();
  const JobsOut closed =
      run_closed(*service, inputs, phase_s, args.seed + 1, true, r);
  PoolDeltas deltas;
  deltas.add(p0, pool.stats(), closed.completed);
  report_blas_counters(r, c0, blas_counters(pool), closed.completed,
                       closed.flops);
  closed.trace.report(r, closed.elapsed_s);
  deltas.report(r);
  std::vector<double> plain_run = plain.lu_run_s;
  plain_run.insert(plain_run.end(), plain.qr_run_s.begin(),
                   plain.qr_run_s.end());
  std::vector<double> traced_run = closed.lu_run_s;
  traced_run.insert(traced_run.end(), closed.qr_run_s.begin(),
                    closed.qr_run_s.end());
  r.add("runtime.trace_overhead_frac",
        median(traced_run) / median(plain_run) - 1.0, "fraction");
  if (!closed.trace.kinds_sum_ok) {
    std::printf("trace: per-kind busy time does not sum to total busy\n");
    r.correct = false;
  }
  report_svc(r, open, service->stats());
  service.reset();

  // Work as opposed to span: the job shapes called directly on a
  // one-worker pool.
  Matrix scratch(std::max(kLuJob.m, kQrJob.m), std::max(kLuJob.n, kQrJob.n));
  {
    rt::WorkerPool serial({.num_threads = 1});
    const double budget_s = 0.05 * args.seconds;
    const double lu_s = direct_seconds(serial, inputs[0], scratch.view(),
                                       budget_s, r);
    const double qr_s = direct_seconds(serial, inputs[1], scratch.view(),
                                       budget_s, r);
    r.add("core.serial_s", 0.5 * (lu_s + qr_s), "s");
  }

  report_kernels(r, *inputs[0].a, kLuJob, *inputs[1].a, kQrJob,
                 scratch.view(), phase_s);
  return r;
}

}  // namespace perfbench
