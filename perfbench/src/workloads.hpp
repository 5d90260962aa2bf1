// workloads.hpp — the benchmark's workloads (README.md says why each one
// exists) and the job-service driver they share.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "svc/service.hpp"

namespace perfbench {

/// tall_skinny and square: alternating calu_factor / caqr_factor calls.
Result run_factor(const RunArgs& args);
/// service: open-loop and closed-loop phases against svc::Service.
Result run_service(const RunArgs& args);

/// One input a job may draw, with the fingerprint its output must match.
struct JobInput {
  camult::svc::JobKind kind = camult::svc::JobKind::CaluFactor;
  const camult::Matrix* a = nullptr;
  idx b = 0;
  idx tr = 0;
  std::uint64_t ref = 0;
  double flops = 0.0;  ///< nominal LAPACK flops of one factorization
};

struct Arrival {
  double due_s = 0.0;  ///< seconds after the phase starts
  std::size_t input = 0;
  camult::svc::QosClass qos = camult::svc::QosClass::Normal;
};

/// What one phase of jobs measured. Latencies are in ms, run times in s.
struct JobsOut {
  std::vector<double> job_ms;    ///< due time -> terminal state
  std::vector<double> queue_ms;  ///< JobOutcome::queue_ms
  std::vector<double> run_ms;    ///< JobOutcome::run_ms
  std::vector<double> lu_run_s;  ///< run time of CALU jobs
  std::vector<double> qr_run_s;  ///< run time of CAQR jobs
  double flops = 0.0;            ///< nominal flops of completed jobs
  double elapsed_s = 0.0;
  double gen_late_ms_max = 0.0;  ///< how late the generator submitted
  std::int64_t completed = 0;
  TraceAgg trace;                ///< filled when the service traces
};

/// Open loop: submit every arrival at its due time whatever the backlog,
/// then drain. Each job counts as one operation in `r`.
JobsOut run_open(camult::svc::Service& service,
                 const std::vector<JobInput>& inputs,
                 const std::vector<Arrival>& arrivals, Result& r);

/// Median wall time of `in`'s factorization called directly on `pool`
/// (at least twice, then until `budget_s` is spent), factoring a copy in
/// `scratch`. The last output must match `in.ref`; it counts as one
/// operation in `r`.
double direct_seconds(camult::rt::WorkerPool& pool, const JobInput& in,
                      camult::MatrixView scratch, double budget_s, Result& r);

/// The service's per-layer metrics: svc.* from the open phase's outcomes
/// and the service counters, bench.gen_late_ms_max from its generator.
void report_svc(Result& r, const JobsOut& open,
                const camult::svc::ServiceStats& stats);

}  // namespace perfbench
