// service.hpp — camult::svc, a multi-tenant factorization job service on
// one persistent rt::WorkerPool.
//
// The runtime substrate (persistent pool, batch submit/collect drivers,
// cancellation, health monitoring) factors matrices; this layer makes it a
// long-running server for *many competing clients*:
//
//  * Admission control + backpressure. The queue is bounded (max_queue);
//    submit() never blocks, it returns an Admission telling the caller
//    whether the job was accepted and how deep the queue is — an open-loop
//    submitter can use the depth as its slow-down signal.
//  * QoS classes. Every job carries a QosClass; the dispatcher always
//    serves the highest class first (FIFO within a class), and each class
//    shifts the job's whole look-ahead priority-band structure by a
//    per-class bias (CaluOptions::priority_bias), so a premium job's tasks
//    also outrank co-scheduled lower-class tasks inside the scheduler.
//  * Graceful degradation. When the queue is full, an arriving job evicts
//    the oldest queued job of the *lowest* class strictly below its own
//    (shed-lowest-first); if no lower class is queued the arrival itself is
//    rejected. Overload therefore starves Batch before Normal before
//    Interactive, never the other way around.
//  * Deadlines via CancelToken. A job may carry a relative deadline; a
//    watchdog fires the job's CancelToken when it expires, so a running
//    job's remaining tasks are skipped (the run drains, the pool is never
//    wedged) and a still-queued job is shed without running at all.
//  * Per-tenant accounting. Every terminal job carries its SchedulerStats
//    and HealthReport in the JobOutcome, and the service folds them into
//    per-class and per-tenant aggregates (ServiceStats) — overload behavior
//    is measured, not anecdotal (bench/service_load.cpp).
//  * Self-healing (docs/runtime.md § Self-healing). A stall watchdog reads
//    the pool's worker heartbeats and cancels any job whose running task
//    made no progress past stall_timeout, reclaiming the runner slot a
//    wedged kernel would otherwise hold forever; transiently failed jobs
//    (injected faults, stall-cancels) are retried with deterministic
//    capped-exponential backoff (RetryPolicy); and per-tenant circuit
//    breakers (BreakerConfig) shed a persistently failing tenant's load at
//    admission so it cannot burn runner slots other tenants need
//    (bench/service_resilience.cpp).
//
// Threading model: submit() and JobHandle methods are thread-safe.
// max_inflight dispatcher ("runner") threads each pop one job and run it
// with core::calu_factor / core::caqr_factor on the shared pool, so at most
// max_inflight graphs are attached at once. The matrix referenced by a
// JobRequest must stay alive and untouched until the job's terminal state
// is observed.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "matrix/view.hpp"
#include "runtime/cancel.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::svc {

/// Client service classes, lowest to highest. Shedding starts at the
/// bottom; dispatch starts at the top.
enum class QosClass : int {
  Batch = 0,        ///< throughput traffic; first to be shed
  Normal = 1,       ///< default
  Interactive = 2,  ///< latency-sensitive; served first, never shed while
                    ///< lower classes are queued
};
inline constexpr int kQosClasses = 3;
const char* qos_name(QosClass c);

/// Width of one QoS priority band: each class shifts a job's task
/// priorities by class * kQosBandWidth (saturating). Sized so the whole
/// look-ahead band structure of service-scale problems (top_base < 2^24,
/// i.e. panels x column-blocks < ~8.4M tiles) nests inside one class band;
/// bigger jobs still run correctly, their bands just bleed across class
/// boundaries.
inline constexpr int kQosBandWidth = 1 << 24;
int qos_priority_bias(QosClass c);

enum class JobKind {
  CaluFactor,  ///< LU with tournament pivoting (core::calu_factor)
  CaqrFactor,  ///< QR over a reduction tree (core::caqr_factor)
};

enum class JobStatus {
  Queued,        ///< admitted, waiting for a dispatcher (or a retry slot)
  Running,       ///< DAG submitted to the pool
  Completed,     ///< factorization finished (info may still be nonzero)
  Failed,        ///< a task threw; JobOutcome::error has the diagnosis
  Cancelled,     ///< CancelToken fired (client cancel, mid-run deadline,
                 ///< stall-watchdog cancel with retries exhausted, or
                 ///< service shutdown before dispatch)
  ShedDeadline,  ///< deadline expired while still queued; never ran
  ShedQueueFull, ///< evicted from the full queue by a higher-class arrival
  ShedBreaker,   ///< refused: the tenant's circuit breaker is open
                 ///< (JobOutcome::retry_after_ms hints when to come back)
  Rejected,      ///< refused at admission (queue full, nothing lower to
                 ///< shed, or service shutting down)
};
const char* job_status_name(JobStatus s);
bool job_status_terminal(JobStatus s);

/// Retry discipline for transiently failed jobs (injected faults and
/// stall-watchdog cancels — never numerical failures or client cancels).
/// Attempt k's re-enqueue is delayed by a deterministic draw from
/// [d/2, d) where d = min(cap, base * 2^(k-1)); the draw mixes
/// (jitter_seed, job admission sequence, attempt) through splitmix64, so a
/// storm of retries decorrelates without any global RNG — same seed, same
/// schedule, every run.
struct RetryPolicy {
  /// Total attempts a job may consume, first run included. <= 1 disables
  /// retry entirely (the PR 7 behaviour); JobRequest-level 0 means
  /// "inherit ServiceConfig::retry".
  int max_attempts = 1;
  std::chrono::nanoseconds base{std::chrono::milliseconds(10)};
  std::chrono::nanoseconds cap{std::chrono::seconds(1)};
  std::uint64_t jitter_seed = 0;
};

/// Per-tenant circuit breaker: a sliding window of the tenant's last
/// `window` decisive terminal outcomes (Completed = success; Failed or
/// stall-cancel = failure; sheds and client cancels are neutral). When the
/// window holds >= min_samples outcomes and the failure fraction reaches
/// failure_threshold, the breaker opens: the tenant's submissions complete
/// immediately as ShedBreaker (with a retry_after_ms hint) for open_for,
/// after which one probe job is admitted (half-open); the probe's success
/// closes the breaker, its failure re-opens it.
struct BreakerConfig {
  bool enabled = false;
  int window = 16;
  int min_samples = 8;
  double failure_threshold = 0.5;
  std::chrono::nanoseconds open_for{std::chrono::milliseconds(250)};
};

enum class BreakerState { Closed, Open, HalfOpen };
const char* breaker_state_name(BreakerState s);

/// Diagnosis of a stall the watchdog detected and cancelled: which pool
/// worker sat inside which task for how long. `attempt` is the (1-based)
/// attempt that stalled; when a retried job stalls more than once the
/// report describes the last stall.
struct StallReport {
  bool detected = false;
  int worker = -1;
  rt::TaskId task = rt::kNoTask;
  double stuck_ms = 0.0;
  int attempt = 0;
};

struct JobRequest {
  JobKind kind = JobKind::CaluFactor;
  /// Factored in place on completion; the storage must outlive the job.
  MatrixView a;
  QosClass qos = QosClass::Normal;
  /// Accounting key; "" aggregates under the anonymous tenant.
  std::string tenant;
  /// Relative deadline measured from submit(); zero = none. Expiry fires
  /// the job's CancelToken: a queued job is shed (ShedDeadline), a running
  /// job aborts cooperatively (Cancelled, deadline_hit set).
  std::chrono::nanoseconds deadline{0};
  idx b = 32;   ///< panel width (service default favors small problems)
  idx tr = 2;   ///< panel task count
  /// Sliding-window DAG submission for this job (CaluOptions::window /
  /// CaqrOptions::window): bounds the job's task-store + trace footprint at
  /// O(window) iterations, which is what lets a service host paper-scale
  /// tall-skinny factorizations without one tenant's DAG consuming the
  /// machine. 0 = full-DAG submission (the default).
  idx window = 0;
  /// Stall watchdog: if a running task of this job makes no progress for
  /// this long, the watchdog fires the job's CancelToken (reclaiming the
  /// runner slot) and records a StallReport; the job retries per policy.
  /// Zero inherits ServiceConfig::stall_timeout (zero there = disabled).
  std::chrono::nanoseconds stall_timeout{0};
  /// Retry override; max_attempts == 0 inherits ServiceConfig::retry.
  RetryPolicy retry{0};
  /// Fault injector for this job only (chaos drills targeting one tenant);
  /// nullptr inherits ServiceConfig::fault.
  rt::FaultInjector* fault = nullptr;
};

/// Terminal verdict of one job. queue_ms covers submit -> dispatch (or ->
/// terminal for jobs that never ran), run_ms dispatch -> terminal.
struct JobOutcome {
  JobStatus status = JobStatus::Rejected;
  idx info = 0;  ///< CALU zero-pivot index (0 otherwise / non-LU)
  core::HealthReport health;
  rt::SchedulerStats sched;
  bool deadline_hit = false;  ///< the job's deadline fired its token
  std::string error;          ///< Failed: first task error's what()
  double queue_ms = 0.0;
  double run_ms = 0.0;
  double total_ms = 0.0;
  /// Attempts consumed (1 for a job that never retried; 0 for one that
  /// never ran). status/info/health/sched describe the final attempt.
  int attempts = 0;
  std::vector<double> attempt_run_ms;  ///< per-attempt run latency, in order
  double backoff_ms = 0.0;  ///< total time parked between attempts
  StallReport stall;        ///< last stall the watchdog cancelled (if any)
  /// ShedBreaker only: suggested client wait before resubmitting.
  double retry_after_ms = 0.0;
  /// Full factorization results (Completed jobs only; null otherwise).
  std::shared_ptr<core::CaluResult> lu;
  std::shared_ptr<core::CaqrResult> qr;
};

namespace detail {
struct JobRecord;
}

/// Copyable handle to one submitted job. All methods are thread-safe; a
/// default-constructed handle is invalid.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return rec_ != nullptr; }
  JobStatus status() const;
  QosClass qos() const;

  /// Block until the job reaches a terminal state; the reference stays
  /// valid as long as any handle to the job exists.
  const JobOutcome& wait() const;
  /// Like wait(), bounded; returns whether the job turned terminal.
  bool wait_for(std::chrono::nanoseconds timeout) const;

  /// Fire the job's CancelToken. A running job aborts cooperatively; a
  /// queued job completes as Cancelled when a dispatcher reaches it.
  void cancel() const;

 private:
  friend class Service;
  explicit JobHandle(std::shared_ptr<detail::JobRecord> rec)
      : rec_(std::move(rec)) {}
  std::shared_ptr<detail::JobRecord> rec_;
};

struct ServiceConfig {
  /// Run on this pool (must outlive the service); nullptr = the service
  /// owns a pool of num_threads workers.
  rt::WorkerPool* pool = nullptr;
  int num_threads = 0;  ///< owned-pool size; 0 = rt::default_num_threads()
  /// Dispatcher threads == graphs concurrently attached to the pool. Two
  /// keeps the pool busy while one job drains; more trades latency for
  /// overlap.
  int max_inflight = 2;
  std::size_t max_queue = 64;  ///< admission bound across all classes
  bool record_trace = false;   ///< per-job task traces (debugging only)
  bool monitor = true;         ///< numerical health monitoring per job
  /// Deterministic fault injection applied to every job's run (tests /
  /// chaos drills); a task throw turns that job Failed, never the service.
  rt::FaultInjector* fault = nullptr;
  /// Default retry policy for transient failures; max_attempts <= 1 keeps
  /// the PR 7 fail-fast behaviour.
  RetryPolicy retry;
  /// Per-tenant circuit breakers; disabled by default.
  BreakerConfig breaker;
  /// Default stall watchdog timeout (see JobRequest::stall_timeout);
  /// zero = stall detection off.
  std::chrono::nanoseconds stall_timeout{0};
};

/// Per-class / per-tenant terminal-state tallies. Latency sums are over
/// jobs that reached the corresponding terminal state.
struct QosStats {
  std::int64_t submitted = 0;  ///< admitted into the queue
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t shed_deadline = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_breaker = 0;  ///< refused by an open breaker (not in
                                  ///< submitted)
  std::int64_t rejected = 0;   ///< refused at admission (not in submitted)
  std::int64_t retries = 0;    ///< re-enqueues after transient failures
  std::int64_t stalls_detected = 0;  ///< stall-watchdog cancels
  std::int64_t tasks_executed = 0;  ///< folded from each job's sched stats
  std::int64_t tasks_skipped = 0;
  std::int64_t fallback_panels = 0;  ///< folded from each job's health
  double queue_ms_sum = 0.0;
  double run_ms_sum = 0.0;
  std::int64_t shed() const {
    return shed_deadline + shed_queue_full + shed_breaker;
  }
};

/// Snapshot of one tenant's circuit breaker (ServiceStats::breakers).
struct BreakerStat {
  BreakerState state = BreakerState::Closed;
  std::int64_t opens = 0;   ///< Closed/HalfOpen -> Open transitions
  std::int64_t probes = 0;  ///< jobs admitted while half-open
};

struct ServiceStats {
  std::array<QosStats, kQosClasses> per_class;
  std::map<std::string, QosStats> per_tenant;
  std::size_t queued = 0;           ///< jobs waiting right now
  int inflight = 0;                 ///< jobs running right now
  std::size_t peak_queue_depth = 0;
  /// Deadline-watchdog heap entries right now (live + not-yet-pruned
  /// stale). Bounded by compaction: stale entries for terminal jobs are
  /// swept once they dominate the heap, so this gauge stays O(armed live
  /// jobs) under sustained submit/complete churn instead of growing
  /// without bound.
  std::size_t watchdog_entries = 0;
  /// Jobs parked in retry backoff right now (neither queued nor inflight).
  std::size_t retry_pending = 0;
  /// Per-tenant breaker snapshots (tenants that ever had a decisive
  /// outcome while breakers were enabled).
  std::map<std::string, BreakerStat> breakers;
};

class Service {
 public:
  explicit Service(const ServiceConfig& cfg = {});
  /// Stops accepting, runs every queued job, joins all threads.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  struct Admission {
    JobHandle handle;  ///< valid even for rejected jobs (status Rejected)
    bool accepted = false;
    /// Queue depth right after this submit — the backpressure signal: a
    /// submitter seeing depth near max_queue should slow down before its
    /// class starts getting shed or rejected.
    std::size_t queue_depth = 0;
    /// ShedBreaker only: suggested wait before this tenant resubmits.
    double retry_after_ms = 0.0;
  };
  Admission submit(const JobRequest& req);

  /// Block until no job is queued or running. Jobs submitted concurrently
  /// with the drain extend it.
  void drain();

  /// Stop accepting new jobs (submit returns Rejected). run_queued decides
  /// whether already-queued jobs are executed or completed as Cancelled;
  /// running jobs always finish (or hit their deadlines). Idempotent;
  /// blocks until all service threads have exited.
  void shutdown(bool run_queued = true);

  ServiceStats stats() const;
  std::size_t queue_depth() const;
  rt::WorkerPool& pool() { return *pool_; }

 private:
  struct Watchdog;

  /// One tenant's breaker state (guarded by mu_). `window` holds the last
  /// decisive outcomes, newest at the back; `failures` counts the true
  /// entries so the trip test is O(1) per outcome.
  struct Breaker {
    BreakerState state = BreakerState::Closed;
    std::deque<bool> window;  ///< true = failure
    int failures = 0;
    std::chrono::steady_clock::time_point open_until{};
    bool probe_inflight = false;
    std::int64_t opens = 0;
    std::int64_t probes = 0;
  };

  void runner_main();
  std::shared_ptr<detail::JobRecord> pop_next_locked();
  void run_job(const std::shared_ptr<detail::JobRecord>& rec);
  void finish(const std::shared_ptr<detail::JobRecord>& rec, JobOutcome out);
  void account_locked(const detail::JobRecord& rec, const JobOutcome& out);
  /// Breaker admission check for `tenant` (under mu_). Returns true to
  /// admit; false sets *retry_after_ms and the caller sheds ShedBreaker.
  bool breaker_admit_locked(const std::string& tenant, bool* probe,
                            double* retry_after_ms);
  /// Fold a decisive terminal outcome into the tenant's breaker (under mu_).
  void breaker_note_locked(const detail::JobRecord& rec,
                           const JobOutcome& out);
  /// Watchdog callback: a retry-backoff timer expired; requeue the job (or
  /// finalize it with its stashed last-attempt outcome if the service is
  /// dropping queued work).
  void retry_due(const std::shared_ptr<detail::JobRecord>& rec);
  /// Watchdog callback: scan the pool heartbeats for a worker stuck inside
  /// one of this job's tasks past its stall_timeout; on detection record a
  /// StallReport and fire the attempt's CancelToken.
  void check_stall(const std::shared_ptr<detail::JobRecord>& rec);

  ServiceConfig cfg_;
  std::unique_ptr<rt::WorkerPool> owned_pool_;
  rt::WorkerPool* pool_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    ///< runners: work or stop
  std::condition_variable drained_cv_;  ///< drain(): queue+inflight empty
  std::array<std::deque<std::shared_ptr<detail::JobRecord>>, kQosClasses>
      queue_;                       ///< guarded by mu_
  std::size_t total_queued_ = 0;    ///< guarded by mu_
  int inflight_ = 0;                ///< guarded by mu_
  std::size_t retry_pending_ = 0;   ///< guarded by mu_
  bool stopping_ = false;           ///< guarded by mu_
  bool drop_queued_ = false;        ///< guarded by mu_: shutdown(false)
  std::uint64_t next_seq_ = 0;      ///< guarded by mu_: admission order
  ServiceStats stats_;              ///< guarded by mu_ (gauges recomputed)
  std::map<std::string, Breaker> breakers_;  ///< guarded by mu_

  std::unique_ptr<Watchdog> watchdog_;
  std::vector<std::thread> runners_;
};

}  // namespace camult::svc
