// service.cpp — camult::svc implementation. Lock discipline: the service
// mutex (mu_) and a job's record mutex are never held together; every
// terminal transition first folds the outcome into the service aggregates
// under mu_, then publishes status + outcome under the record mutex and
// wakes waiters — so by the time JobHandle::wait() returns, stats() already
// reflects the job. The watchdog's heap mutex is a leaf: firing paths copy
// what they need (a CancelToken, a record shared_ptr) and act outside it.
//
// Self-healing model (docs/runtime.md § Self-healing):
//  * Every attempt of a job runs under its own CancelToken (rec->token,
//    guarded by rec->mu and replaced per retry), so a token fired by last
//    attempt's stall cannot abort the next attempt, and the token's id()
//    doubles as the heartbeat tag matching pool workers to this attempt.
//  * Stall detection, retry timers and deadlines share the one watchdog
//    thread: deadlines and retry re-enqueues are heap timers, stall checks
//    are a periodic poll over the watched running jobs.
//  * A retry never holds a runner slot: the failed attempt's runner
//    schedules a timer and returns; the timer requeues the job through the
//    normal QoS queue, so backoff capacity is free for other tenants.

#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "matrix/matrix.hpp"
#include "runtime/fault_inject.hpp"

namespace camult::svc {

const char* qos_name(QosClass c) {
  switch (c) {
    case QosClass::Batch: return "batch";
    case QosClass::Normal: return "normal";
    case QosClass::Interactive: return "interactive";
  }
  return "?";
}

int qos_priority_bias(QosClass c) {
  return static_cast<int>(c) * kQosBandWidth;
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Completed: return "completed";
    case JobStatus::Failed: return "failed";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::ShedDeadline: return "shed_deadline";
    case JobStatus::ShedQueueFull: return "shed_queue_full";
    case JobStatus::ShedBreaker: return "shed_breaker";
    case JobStatus::Rejected: return "rejected";
  }
  return "?";
}

bool job_status_terminal(JobStatus s) {
  return s != JobStatus::Queued && s != JobStatus::Running;
}

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half_open";
  }
  return "?";
}

namespace detail {

using Clock = std::chrono::steady_clock;

struct JobRecord {
  // Immutable after submit().
  JobKind kind = JobKind::CaluFactor;
  QosClass qos = QosClass::Normal;
  std::string tenant;
  MatrixView a;
  idx b = 32;
  idx tr = 2;
  idx window = 0;
  bool has_deadline = false;
  Clock::time_point submit_tp;
  Clock::time_point deadline_tp;
  std::uint64_t seq = 0;  ///< admission order; the retry-jitter stream key
  std::chrono::nanoseconds stall_timeout{0};  ///< effective; 0 = off
  RetryPolicy retry;                          ///< effective; max_attempts >= 1
  rt::FaultInjector* fault = nullptr;         ///< effective; may be null
  bool probe = false;  ///< admitted as a half-open breaker probe

  /// The *current attempt's* cancellation token, guarded by mu: replaced
  /// with a fresh token on every retry so last attempt's cancel (stall,
  /// deadline racing terminality) cannot poison the next attempt. Fire it
  /// only through a copy taken under mu (see fire_cancel).
  rt::CancelToken token;

  /// Set by the watchdog before it fires the token, so a CancelledError can
  /// be attributed to the deadline rather than a client cancel.
  std::atomic<bool> deadline_fired{false};
  /// Client asked for cancellation (JobHandle::cancel). Checked by the
  /// retry machinery: a client cancel is never retried.
  std::atomic<bool> client_cancel{false};
  /// Set (with release order) when the job reaches any terminal state, just
  /// before the watchdog is told its entry went stale; the watchdog reads it
  /// to skip firing and to identify prunable heap entries.
  std::atomic<bool> terminal{false};
  /// Set by the dispatcher at first dispatch; read after terminal.
  Clock::time_point dispatch_tp;
  std::atomic<bool> dispatched{false};
  /// This attempt was cancelled by the stall watchdog (reset per attempt).
  std::atomic<bool> stall_fired{false};
  /// A DAG for this job is attached to the pool right now — the stall
  /// poller only examines live attempts.
  std::atomic<bool> attempt_live{false};
  std::atomic<int> attempts{0};  ///< attempts started (runner writes)
  std::atomic<int> stalls{0};    ///< stall cancels across all attempts

  // Between-attempt bookkeeping owned by "the current runner": attempt N's
  // runner writes, the queue mutex hands ownership to attempt N+1's.
  std::vector<double> attempt_run_ms;
  double backoff_ms = 0.0;

  /// Pristine copy of the input, captured before the first attempt when the
  /// job is retryable (max_attempts > 1). An aborted attempt leaves `a`
  /// partially factored in place, so every retry must first restore the
  /// original contents or it would "successfully" factor garbage. Same
  /// runner-handoff ownership as attempt_run_ms; empty when retries are off,
  /// so the zero-retry configuration pays no extra memory.
  Matrix pristine;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::Queued;  ///< guarded by mu
  JobOutcome outcome;                    ///< guarded by mu, set once
  /// Last attempt's outcome while the job is parked in retry backoff; used
  /// to finalize the job if the service shuts down before the timer fires.
  JobOutcome pending_outcome;  ///< guarded by mu
  StallReport stall_latest;    ///< guarded by mu (watchdog writes)
};

}  // namespace detail

using detail::Clock;
using detail::JobRecord;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Fill the latency fields of `out` for a job turning terminal now.
/// run_ms spans first dispatch -> terminal, so for a retried job it
/// includes backoff parking; JobOutcome::attempt_run_ms has the per-attempt
/// run times and backoff_ms the parked total.
void stamp_latency(const JobRecord& rec, JobOutcome* out) {
  const Clock::time_point now = Clock::now();
  out->total_ms = ms_between(rec.submit_tp, now);
  if (rec.dispatched.load(std::memory_order_acquire)) {
    out->queue_ms = ms_between(rec.submit_tp, rec.dispatch_tp);
    out->run_ms = ms_between(rec.dispatch_tp, now);
  } else {
    out->queue_ms = out->total_ms;
    out->run_ms = 0.0;
  }
}

/// Fire the job's *current* token without holding rec.mu across the
/// request_cancel (waiters on the token are none, but the discipline keeps
/// every rec.mu section tiny and leaf-like).
void fire_cancel(JobRecord& rec) {
  rt::CancelToken tok;
  {
    std::lock_guard<std::mutex> lk(rec.mu);
    tok = rec.token;
  }
  tok.request_cancel();
}

// Uniform in [0, 1) from the top 53 bits (exactly representable in double).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic capped-exponential backoff with half-jitter: attempt k
/// (1-based, the attempt that just failed) draws its delay from
/// [d/2, d) with d = min(cap, base * 2^(k-1)); the draw is a pure function
/// of (jitter_seed, job admission seq, k), so retry schedules are
/// bit-reproducible and a storm of simultaneous failures still spreads out.
std::chrono::nanoseconds backoff_delay(const RetryPolicy& rp,
                                       std::uint64_t seq, int attempt) {
  const double base = std::max(0.0, static_cast<double>(rp.base.count()));
  const double cap = std::max(base, static_cast<double>(rp.cap.count()));
  const int shift = std::min(std::max(attempt - 1, 0), 30);
  const double d = std::min(cap, base * static_cast<double>(1u << shift));
  const double u = to_unit(rt::splitmix64(
      rp.jitter_seed ^ (seq * 0x9E3779B97F4A7C15ull) ^
      (static_cast<std::uint64_t>(attempt) * 0xC2B2AE3D27D4EB4Full)));
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(d * 0.5 + u * d * 0.5));
}

}  // namespace

// ---------------------------------------------------------------------------
// JobHandle

JobStatus JobHandle::status() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::status on an invalid handle");
  }
  std::lock_guard<std::mutex> lk(rec_->mu);
  return rec_->status;
}

QosClass JobHandle::qos() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::qos on an invalid handle");
  }
  return rec_->qos;
}

const JobOutcome& JobHandle::wait() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::wait on an invalid handle");
  }
  std::unique_lock<std::mutex> lk(rec_->mu);
  rec_->cv.wait(lk, [&] { return job_status_terminal(rec_->status); });
  return rec_->outcome;
}

bool JobHandle::wait_for(std::chrono::nanoseconds timeout) const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::wait_for on an invalid handle");
  }
  std::unique_lock<std::mutex> lk(rec_->mu);
  return rec_->cv.wait_for(lk, timeout,
                           [&] { return job_status_terminal(rec_->status); });
}

void JobHandle::cancel() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::cancel on an invalid handle");
  }
  // Flag first: the retry machinery must see "client asked" before any
  // CancelledError surfaces, or it could schedule a retry for a job the
  // client just killed.
  rec_->client_cancel.store(true, std::memory_order_release);
  fire_cancel(*rec_);
}

// ---------------------------------------------------------------------------
// Watchdog: one thread, three duties.
//
//  1. Deadlines — a min-heap of (due, job) timers; firing sets
//     deadline_fired and cancels the job's current attempt.
//  2. Retry timers — same heap, Kind::Retry; firing hands the job to
//     Service::retry_due, which requeues it through the QoS queue.
//  3. Stall polling — a watch list of running jobs with stall_timeout
//     armed; every poll tick the pool's worker heartbeats are scanned for
//     a worker stuck inside one of the watched jobs' tasks.
//
// Entries for jobs that turn terminal before their deadline are not removed
// eagerly (a heap has no efficient random erase); instead finish()/shed
// paths bump retired_hint via on_terminal(), and once stale entries
// dominate a non-trivial heap it is compacted in one O(n) sweep. Long-lived
// services hammering short jobs with long deadlines therefore hold O(live
// armed jobs) entries, where the old lazy-deletion-only scheme accumulated
// every armed job until its deadline passed — hours of garbage for an
// hour-long deadline.

struct Service::Watchdog {
  enum class Kind : std::uint8_t { Deadline, Retry };
  struct Entry {
    Clock::time_point due;
    std::weak_ptr<JobRecord> job;
    Kind kind = Kind::Deadline;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.due > b.due;  // std::*_heap max-heap order -> min-heap on due
    }
  };
  /// Compaction threshold: below this size the O(n) sweep isn't worth it.
  static constexpr std::size_t kCompactMin = 64;

  Service* svc = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Entry> heap;        ///< std::push_heap/pop_heap with Later
  std::size_t retired_hint = 0;   ///< armed jobs gone terminal since the
                                  ///< last compaction (may overcount ones
                                  ///< already popped — benign, resets to 0)
  std::vector<std::weak_ptr<JobRecord>> stall_watch;  ///< guarded by mu
  std::chrono::nanoseconds poll_interval{0};  ///< 0 until first watch
  Clock::time_point next_poll = Clock::time_point::min();
  bool expedite = false;  ///< shutdown: new/old retry timers fire now
  bool stop = false;
  std::thread thread;

  void arm(const std::shared_ptr<JobRecord>& rec) {
    {
      std::lock_guard<std::mutex> lk(mu);
      heap.push_back(Entry{rec->deadline_tp, rec, Kind::Deadline});
      std::push_heap(heap.begin(), heap.end(), Later{});
    }
    cv.notify_one();
  }

  void arm_retry(const std::shared_ptr<JobRecord>& rec,
                 Clock::time_point due) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (expedite) due = Clock::now();
      heap.push_back(Entry{due, rec, Kind::Retry});
      std::push_heap(heap.begin(), heap.end(), Later{});
    }
    cv.notify_one();
  }

  /// Register a running attempt for stall polling. The poll cadence is a
  /// quarter of the smallest watched timeout, clamped to [1, 50] ms —
  /// fine-grained enough that detection latency is a small multiple of the
  /// timeout, coarse enough that an idle-ish service stays quiet.
  void watch_stall(const std::shared_ptr<JobRecord>& rec) {
    {
      std::lock_guard<std::mutex> lk(mu);
      stall_watch.push_back(rec);
      std::chrono::nanoseconds want = rec->stall_timeout / 4;
      want = std::clamp(want,
                        std::chrono::nanoseconds(std::chrono::milliseconds(1)),
                        std::chrono::nanoseconds(std::chrono::milliseconds(50)));
      if (poll_interval.count() == 0 || want < poll_interval) {
        poll_interval = want;
      }
      const Clock::time_point first = Clock::now() + poll_interval;
      if (next_poll == Clock::time_point::min() || first < next_poll) {
        next_poll = first;
      }
    }
    cv.notify_one();
  }

  /// Shutdown assist: make every pending (and future) retry timer due
  /// immediately, so joining runners never waits out a backoff.
  void expedite_retries() {
    {
      std::lock_guard<std::mutex> lk(mu);
      expedite = true;
      const Clock::time_point now = Clock::now();
      for (Entry& e : heap) {
        if (e.kind == Kind::Retry) e.due = now;
      }
      std::make_heap(heap.begin(), heap.end(), Later{});
    }
    cv.notify_one();
  }

  /// A deadline-armed job reached a terminal state; its heap entry is now
  /// dead weight. Called by every terminal transition (finish, queue-full
  /// shed, shutdown drop) after the record's terminal flag is set.
  void on_terminal() {
    std::lock_guard<std::mutex> lk(mu);
    ++retired_hint;
    maybe_compact_locked();
  }

  void maybe_compact_locked() {
    if (heap.size() < kCompactMin || retired_hint * 2 < heap.size()) return;
    auto dead = [](const Entry& e) {
      if (e.kind == Kind::Retry) return e.job.expired();
      const std::shared_ptr<JobRecord> rec = e.job.lock();
      return rec == nullptr || rec->terminal.load(std::memory_order_acquire);
    };
    heap.erase(std::remove_if(heap.begin(), heap.end(), dead), heap.end());
    std::make_heap(heap.begin(), heap.end(), Later{});
    retired_hint = 0;
  }

  std::size_t entries() {
    std::lock_guard<std::mutex> lk(mu);
    return heap.size();
  }

  void main() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      // stop must be re-checked on every wake, not only when the heap is
      // empty: leftover stale entries with far-future deadlines would
      // otherwise park join() behind wait_until() for hours.
      if (stop) return;
      // 1. Fire every due timer.
      while (!heap.empty() && Clock::now() >= heap.front().due) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        const Entry e = std::move(heap.back());
        heap.pop_back();
        std::shared_ptr<JobRecord> rec = e.job.lock();
        if (e.kind == Kind::Deadline) {
          if (rec == nullptr ||
              rec->terminal.load(std::memory_order_acquire)) {
            // Stale entry drained the natural way; needs no sweep.
            if (retired_hint > 0) --retired_hint;
            continue;
          }
          lk.unlock();
          rec->deadline_fired.store(true, std::memory_order_release);
          fire_cancel(*rec);
          rec.reset();
          lk.lock();
        } else {
          if (rec == nullptr) continue;
          lk.unlock();
          svc->retry_due(rec);
          rec.reset();
          lk.lock();
        }
        if (stop) return;
      }
      // 2. Stall poll: prune the watch list, then scan the survivors'
      //    heartbeats outside the heap lock (check_stall takes rec->mu).
      if (!stall_watch.empty() && Clock::now() >= next_poll) {
        std::vector<std::shared_ptr<JobRecord>> live;
        auto gone = [&](const std::weak_ptr<JobRecord>& w) {
          const std::shared_ptr<JobRecord> rec = w.lock();
          if (rec == nullptr ||
              rec->terminal.load(std::memory_order_acquire)) {
            return true;
          }
          if (!rec->attempt_live.load(std::memory_order_acquire)) {
            return true;  // between attempts; re-registered on redispatch
          }
          live.push_back(rec);
          return false;
        };
        stall_watch.erase(
            std::remove_if(stall_watch.begin(), stall_watch.end(), gone),
            stall_watch.end());
        next_poll = Clock::now() + poll_interval;
        lk.unlock();
        for (const std::shared_ptr<JobRecord>& rec : live) {
          svc->check_stall(rec);
        }
        live.clear();
        lk.lock();
        if (stop) return;
      }
      // 3. Sleep until the next timer or poll tick.
      Clock::time_point wake = Clock::time_point::max();
      if (!heap.empty()) wake = heap.front().due;
      if (!stall_watch.empty() && next_poll < wake) wake = next_poll;
      if (wake == Clock::time_point::max()) {
        cv.wait(lk);
      } else {
        cv.wait_until(lk, wake);
      }
    }
  }

  void start() {
    thread = std::thread([this] { main(); });
  }

  void join() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv.notify_one();
    if (thread.joinable()) thread.join();
  }
};

// ---------------------------------------------------------------------------
// Service

Service::Service(const ServiceConfig& cfg) : cfg_(cfg) {
  if (cfg_.max_inflight < 1) {
    throw std::invalid_argument("ServiceConfig::max_inflight must be >= 1");
  }
  if (cfg_.max_queue < 1) {
    throw std::invalid_argument("ServiceConfig::max_queue must be >= 1");
  }
  if (cfg_.breaker.enabled &&
      (cfg_.breaker.window < 1 || cfg_.breaker.min_samples < 1 ||
       cfg_.breaker.failure_threshold <= 0.0)) {
    throw std::invalid_argument("ServiceConfig::breaker misconfigured");
  }
  if (cfg_.pool != nullptr) {
    pool_ = cfg_.pool;
  } else {
    rt::WorkerPoolConfig pc;
    pc.num_threads = cfg_.num_threads;
    owned_pool_ = std::make_unique<rt::WorkerPool>(pc);
    pool_ = owned_pool_.get();
  }
  watchdog_ = std::make_unique<Watchdog>();
  watchdog_->svc = this;
  watchdog_->start();
  runners_.reserve(static_cast<std::size_t>(cfg_.max_inflight));
  for (int i = 0; i < cfg_.max_inflight; ++i) {
    runners_.emplace_back([this] { runner_main(); });
  }
}

Service::~Service() { shutdown(true); }

Service::Admission Service::submit(const JobRequest& req) {
  auto rec = std::make_shared<JobRecord>();
  rec->kind = req.kind;
  rec->qos = req.qos;
  rec->tenant = req.tenant;
  rec->a = req.a;
  rec->b = req.b;
  rec->tr = req.tr;
  rec->window = req.window;
  rec->submit_tp = Clock::now();
  if (req.deadline.count() > 0) {
    rec->has_deadline = true;
    rec->deadline_tp = rec->submit_tp + req.deadline;
  }
  // Per-job overrides fall back to the service defaults.
  rec->stall_timeout =
      req.stall_timeout.count() > 0 ? req.stall_timeout : cfg_.stall_timeout;
  rec->retry = req.retry.max_attempts > 0 ? req.retry : cfg_.retry;
  if (rec->retry.max_attempts < 1) rec->retry.max_attempts = 1;
  rec->fault = req.fault != nullptr ? req.fault : cfg_.fault;

  Admission adm;
  adm.handle = JobHandle(rec);
  std::shared_ptr<JobRecord> victim;
  JobOutcome victim_out;
  bool breaker_shed = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    rec->seq = next_seq_++;
    bool probe = false;
    if (stopping_) {
      QosStats& cs = stats_.per_class[static_cast<std::size_t>(req.qos)];
      ++cs.rejected;
      ++stats_.per_tenant[req.tenant].rejected;
      adm.queue_depth = total_queued_;
    } else if (cfg_.breaker.enabled &&
               !breaker_admit_locked(req.tenant, &probe,
                                     &adm.retry_after_ms)) {
      QosStats& cs = stats_.per_class[static_cast<std::size_t>(req.qos)];
      ++cs.shed_breaker;
      ++stats_.per_tenant[req.tenant].shed_breaker;
      adm.queue_depth = total_queued_;
      breaker_shed = true;
    } else if (total_queued_ >= cfg_.max_queue) {
      // Full. Shed the oldest job of the lowest class strictly below the
      // arrival; if every queued job is at or above the arrival's class,
      // the arrival itself is the lowest-value work and is rejected.
      for (int c = 0; c < static_cast<int>(req.qos); ++c) {
        auto& q = queue_[static_cast<std::size_t>(c)];
        if (!q.empty()) {
          victim = std::move(q.front());
          q.pop_front();
          --total_queued_;
          break;
        }
      }
      if (victim != nullptr) {
        victim_out.status = JobStatus::ShedQueueFull;
        stamp_latency(*victim, &victim_out);
        account_locked(*victim, victim_out);
        adm.accepted = true;
        rec->probe = probe;
        queue_[static_cast<std::size_t>(req.qos)].push_back(rec);
        ++total_queued_;
        QosStats& cs = stats_.per_class[static_cast<std::size_t>(req.qos)];
        ++cs.submitted;
        ++stats_.per_tenant[req.tenant].submitted;
        stats_.peak_queue_depth =
            std::max(stats_.peak_queue_depth, total_queued_);
        adm.queue_depth = total_queued_;
      } else {
        QosStats& cs = stats_.per_class[static_cast<std::size_t>(req.qos)];
        ++cs.rejected;
        ++stats_.per_tenant[req.tenant].rejected;
        adm.queue_depth = total_queued_;
        // The breaker probe slot must not leak on a rejected probe.
        if (probe) breakers_[req.tenant].probe_inflight = false;
      }
    } else {
      adm.accepted = true;
      rec->probe = probe;
      queue_[static_cast<std::size_t>(req.qos)].push_back(rec);
      ++total_queued_;
      QosStats& cs = stats_.per_class[static_cast<std::size_t>(req.qos)];
      ++cs.submitted;
      ++stats_.per_tenant[req.tenant].submitted;
      stats_.peak_queue_depth =
          std::max(stats_.peak_queue_depth, total_queued_);
      adm.queue_depth = total_queued_;
    }
  }
  if (victim != nullptr) {
    // The victim is off the queue; no dispatcher can reach it anymore, so
    // publishing its terminal state outside mu_ races with nobody.
    {
      std::lock_guard<std::mutex> vlk(victim->mu);
      victim->outcome = std::move(victim_out);
      victim->status = JobStatus::ShedQueueFull;
    }
    victim->cv.notify_all();
    victim->terminal.store(true, std::memory_order_release);
    if (victim->has_deadline) watchdog_->on_terminal();
  }
  if (!adm.accepted) {
    const JobStatus s =
        breaker_shed ? JobStatus::ShedBreaker : JobStatus::Rejected;
    std::lock_guard<std::mutex> lk(rec->mu);
    rec->status = s;
    rec->outcome.status = s;
    rec->outcome.retry_after_ms = adm.retry_after_ms;
    stamp_latency(*rec, &rec->outcome);
    // No waiters can exist yet (the handle is only returned below), but
    // keep the transition uniform.
    rec->cv.notify_all();
    rec->terminal.store(true, std::memory_order_release);
    return adm;
  }
  if (rec->has_deadline) {
    watchdog_->arm(rec);
  }
  queue_cv_.notify_one();
  return adm;
}

bool Service::breaker_admit_locked(const std::string& tenant, bool* probe,
                                   double* retry_after_ms) {
  Breaker& br = breakers_[tenant];
  const Clock::time_point now = Clock::now();
  if (br.state == BreakerState::Open) {
    if (now < br.open_until) {
      *retry_after_ms = ms_between(now, br.open_until);
      return false;
    }
    br.state = BreakerState::HalfOpen;
    br.probe_inflight = false;
  }
  if (br.state == BreakerState::HalfOpen) {
    if (br.probe_inflight) {
      // The probe's verdict is pending; suggest one open period.
      *retry_after_ms =
          std::chrono::duration<double, std::milli>(cfg_.breaker.open_for)
              .count();
      return false;
    }
    br.probe_inflight = true;
    ++br.probes;
    *probe = true;
  }
  return true;
}

void Service::breaker_note_locked(const JobRecord& rec,
                                  const JobOutcome& out) {
  if (!cfg_.breaker.enabled) return;
  // Decisive outcomes only: Completed is a success; Failed or a
  // stall-cancel is a failure. Sheds, client cancels and deadline cancels
  // say nothing about the tenant's workload health, so they leave the
  // window untouched (a breaker must not trip because the *service* was
  // overloaded or the client changed its mind).
  const bool failure =
      out.status == JobStatus::Failed ||
      (out.status == JobStatus::Cancelled && out.stall.detected &&
       !out.deadline_hit &&
       !rec.client_cancel.load(std::memory_order_acquire));
  const bool success = out.status == JobStatus::Completed;
  Breaker& br = breakers_[rec.tenant];
  if (rec.probe) {
    br.probe_inflight = false;
    if (success) {
      br.state = BreakerState::Closed;
      br.window.clear();
      br.failures = 0;
    } else if (failure) {
      br.state = BreakerState::Open;
      br.open_until = Clock::now() + cfg_.breaker.open_for;
      ++br.opens;
    }
    // A neutral probe outcome keeps the breaker half-open; the next
    // submission becomes the new probe.
    return;
  }
  if (!success && !failure) return;
  if (br.state != BreakerState::Closed) return;  // pre-open stragglers
  br.window.push_back(failure);
  if (failure) ++br.failures;
  while (static_cast<int>(br.window.size()) > cfg_.breaker.window) {
    if (br.window.front()) --br.failures;
    br.window.pop_front();
  }
  if (static_cast<int>(br.window.size()) >= cfg_.breaker.min_samples &&
      static_cast<double>(br.failures) >=
          cfg_.breaker.failure_threshold *
              static_cast<double>(br.window.size())) {
    br.state = BreakerState::Open;
    br.open_until = Clock::now() + cfg_.breaker.open_for;
    ++br.opens;
    br.window.clear();
    br.failures = 0;
  }
}

std::shared_ptr<JobRecord> Service::pop_next_locked() {
  for (int c = kQosClasses - 1; c >= 0; --c) {
    auto& q = queue_[static_cast<std::size_t>(c)];
    if (!q.empty()) {
      std::shared_ptr<JobRecord> rec = std::move(q.front());
      q.pop_front();
      --total_queued_;
      return rec;
    }
  }
  return nullptr;
}

void Service::runner_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    std::shared_ptr<JobRecord> rec = pop_next_locked();
    if (rec == nullptr) {
      // Retry timers still pending are future queue entries: a stopping
      // runner must outlive them or the requeued job would never run.
      if (stopping_ && retry_pending_ == 0) return;
      queue_cv_.wait(lk);
      continue;
    }
    ++inflight_;
    lk.unlock();
    run_job(rec);
    rec.reset();
    lk.lock();
    --inflight_;
    if (total_queued_ == 0 && inflight_ == 0 && retry_pending_ == 0) {
      drained_cv_.notify_all();
    }
  }
}

void Service::run_job(const std::shared_ptr<JobRecord>& rec) {
  // Pre-dispatch gates, re-evaluated on every (re)dispatch. A deadline that
  // expired while queued sheds a never-ran job (ShedDeadline) but finalizes
  // a retried one as Cancelled — it did run, the deadline just ran out
  // during backoff. A client cancel wins over everything.
  const int prior_attempts = rec->attempts.load(std::memory_order_relaxed);
  if (rec->has_deadline && Clock::now() >= rec->deadline_tp) {
    JobOutcome out;
    out.status = prior_attempts == 0 ? JobStatus::ShedDeadline
                                     : JobStatus::Cancelled;
    out.deadline_hit = true;
    finish(rec, std::move(out));
    return;
  }
  bool cancelled_before_run =
      rec->client_cancel.load(std::memory_order_acquire);
  if (!cancelled_before_run && prior_attempts == 0) {
    // First attempt: honor a token fired through any out-of-band copy.
    // (Retries must NOT consult the token here — it is last attempt's and
    // was fired by the very stall/fault that triggered the retry.)
    std::lock_guard<std::mutex> lk(rec->mu);
    cancelled_before_run = rec->token.cancelled();
  }
  if (cancelled_before_run) {
    JobOutcome out;
    out.status = JobStatus::Cancelled;
    out.deadline_hit = rec->deadline_fired.load(std::memory_order_acquire);
    finish(rec, std::move(out));
    return;
  }

  // Retryable jobs snapshot the input before attempt 1 and restore it before
  // every retry: the aborted attempt factored part of `a` in place, and
  // attempt N+1 must see the caller's original matrix, not attempt N's
  // wreckage. Non-retryable jobs skip both copies entirely.
  if (rec->retry.max_attempts > 1) {
    if (prior_attempts == 0) {
      rec->pristine = Matrix::from(ConstMatrixView(rec->a));
    } else {
      const idx rows = rec->a.rows();
      for (idx j = 0; j < rec->a.cols(); ++j) {
        std::copy_n(rec->pristine.data() + j * rec->pristine.ld(), rows,
                    rec->a.data() + j * rec->a.ld());
      }
    }
  }

  // Attempt setup: a fresh token per retry (so last attempt's cancel and
  // heartbeat tag cannot leak into this one), stall flag reset, and the
  // attempt registered with the stall poller.
  rt::CancelToken attempt_token;
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    if (prior_attempts > 0) rec->token = rt::CancelToken{};
    attempt_token = rec->token;
    rec->status = JobStatus::Running;
  }
  rec->stall_fired.store(false, std::memory_order_release);
  rec->attempts.store(prior_attempts + 1, std::memory_order_release);
  if (!rec->dispatched.load(std::memory_order_relaxed)) {
    rec->dispatch_tp = Clock::now();
    rec->dispatched.store(true, std::memory_order_release);
  }
  rec->attempt_live.store(true, std::memory_order_release);
  if (rec->stall_timeout.count() > 0) watchdog_->watch_stall(rec);
  const Clock::time_point attempt_tp = Clock::now();

  // sched counters survive a throwing run via the options' sched_out hook.
  rt::SchedulerStats sched;
  JobOutcome out;
  bool transient = false;
  try {
    core::FactorOptions o;
    o.b = rec->b;
    o.tr = rec->tr;
    o.window = rec->window;
    o.pool = pool_;
    o.num_threads = pool_->size();
    o.record_trace = cfg_.record_trace;
    o.monitor = cfg_.monitor;
    o.cancel = attempt_token;
    o.sched_out = &sched;
    o.fault = rec->fault;
    // Attempt 1 runs salt 0 (the unsalted stream, so a first attempt is
    // bitwise a direct driver call); each retry draws an independent fault
    // stream.
    o.fault_salt = static_cast<std::uint64_t>(prior_attempts);
    o.priority_bias = qos_priority_bias(rec->qos);
    if (rec->kind == JobKind::CaluFactor) {
      core::CaluOptions lo;
      static_cast<core::FactorOptions&>(lo) = o;
      auto res =
          std::make_shared<core::CaluResult>(core::calu_factor(rec->a, lo));
      out.info = res->info;
      out.health = res->health;
      out.sched = res->sched;
      out.lu = std::move(res);
    } else {
      core::CaqrOptions qo;
      static_cast<core::FactorOptions&>(qo) = o;
      auto res =
          std::make_shared<core::CaqrResult>(core::caqr_factor(rec->a, qo));
      out.health = res->health;
      out.sched = res->sched;
      out.qr = std::move(res);
    }
    out.status = JobStatus::Completed;
  } catch (const rt::InjectedFault& e) {
    out.status = JobStatus::Failed;
    out.error = e.what();
    out.sched = sched;
    transient = true;  // injected/transient by definition
  } catch (const rt::CancelledError&) {
    out.status = JobStatus::Cancelled;
    out.deadline_hit = rec->deadline_fired.load(std::memory_order_acquire);
    out.sched = sched;
    // A stall-watchdog cancel is transient (the retry gets a fresh fault
    // stream); a client or deadline cancel is final.
    transient = rec->stall_fired.load(std::memory_order_acquire) &&
                !out.deadline_hit &&
                !rec->client_cancel.load(std::memory_order_acquire);
  } catch (const std::exception& e) {
    out.status = JobStatus::Failed;
    out.error = e.what();
    out.sched = sched;
  }
  rec->attempt_live.store(false, std::memory_order_release);

  // Attempt bookkeeping (runner-owned fields; see JobRecord).
  rec->attempt_run_ms.push_back(ms_between(attempt_tp, Clock::now()));
  out.attempts = rec->attempts.load(std::memory_order_relaxed);
  out.attempt_run_ms = rec->attempt_run_ms;
  out.backoff_ms = rec->backoff_ms;
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    out.stall = rec->stall_latest;
  }

  // Retry decision: transient failure, attempts left, nobody cancelled it,
  // the deadline (if any) still has road, and the service is not stopping.
  if (transient && out.attempts < rec->retry.max_attempts &&
      !rec->client_cancel.load(std::memory_order_acquire) &&
      !(rec->has_deadline && Clock::now() >= rec->deadline_tp)) {
    const std::chrono::nanoseconds delay =
        backoff_delay(rec->retry, rec->seq, out.attempts);
    bool scheduled = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!stopping_) {
        ++retry_pending_;
        ++stats_.per_class[static_cast<std::size_t>(rec->qos)].retries;
        ++stats_.per_tenant[rec->tenant].retries;
        scheduled = true;
      }
    }
    if (scheduled) {
      {
        std::lock_guard<std::mutex> lk(rec->mu);
        rec->status = JobStatus::Queued;
        rec->pending_outcome = std::move(out);
      }
      rec->backoff_ms +=
          std::chrono::duration<double, std::milli>(delay).count();
      watchdog_->arm_retry(rec, Clock::now() + delay);
      return;  // the runner slot frees; the timer requeues the job
    }
  }
  finish(rec, std::move(out));
}

void Service::check_stall(const std::shared_ptr<JobRecord>& rec) {
  if (rec->terminal.load(std::memory_order_acquire) ||
      !rec->attempt_live.load(std::memory_order_acquire) ||
      rec->stall_fired.load(std::memory_order_acquire)) {
    return;
  }
  rt::CancelToken tok;
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    tok = rec->token;
  }
  const std::uint64_t tag = tok.id();
  const std::int64_t now_ns = pool_->now_ns();
  for (int w = 0; w < pool_->size(); ++w) {
    rt::HeartbeatSnapshot hb;
    if (!pool_->read_heartbeat(w, &hb) || !hb.busy || hb.tag != tag) continue;
    const std::int64_t stuck_ns = now_ns - hb.since_ns;
    if (stuck_ns < rec->stall_timeout.count()) continue;
    // Worker w has been inside one task of this attempt for the whole
    // timeout: declare a stall, record it, cancel the attempt. The hung
    // body keeps its core until it returns (cancellation is cooperative),
    // but every other task skips, the DAG drains, and the runner slot —
    // the scarce resource — comes back.
    {
      std::lock_guard<std::mutex> lk(rec->mu);
      rec->stall_latest.detected = true;
      rec->stall_latest.worker = w;
      rec->stall_latest.task = static_cast<rt::TaskId>(hb.task);
      rec->stall_latest.stuck_ms = static_cast<double>(stuck_ns) / 1e6;
      rec->stall_latest.attempt = rec->attempts.load(std::memory_order_relaxed);
    }
    rec->stalls.fetch_add(1, std::memory_order_relaxed);
    rec->stall_fired.store(true, std::memory_order_release);
    tok.request_cancel();
    return;
  }
}

void Service::retry_due(const std::shared_ptr<JobRecord>& rec) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!(stopping_ && drop_queued_)) {
      --retry_pending_;
      queue_[static_cast<std::size_t>(rec->qos)].push_back(rec);
      ++total_queued_;
      stats_.peak_queue_depth =
          std::max(stats_.peak_queue_depth, total_queued_);
      queue_cv_.notify_one();
      return;
    }
  }
  // shutdown(false): the retry is dropped; finalize with the last attempt's
  // outcome so waiters see how far the job actually got.
  JobOutcome out;
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    out = std::move(rec->pending_outcome);
  }
  finish(rec, std::move(out));
  {
    std::lock_guard<std::mutex> lk(mu_);
    --retry_pending_;
    if (total_queued_ == 0 && inflight_ == 0 && retry_pending_ == 0) {
      drained_cv_.notify_all();
    }
    queue_cv_.notify_all();  // stopping runners re-check their exit gate
  }
}

void Service::finish(const std::shared_ptr<JobRecord>& rec, JobOutcome out) {
  stamp_latency(*rec, &out);
  {
    std::lock_guard<std::mutex> lk(mu_);
    account_locked(*rec, out);
    breaker_note_locked(*rec, out);
  }
  rec->pristine = Matrix();  // drop the retry snapshot as soon as terminal
  {
    std::lock_guard<std::mutex> lk(rec->mu);
    rec->outcome = std::move(out);
    rec->status = rec->outcome.status;
  }
  rec->cv.notify_all();
  rec->terminal.store(true, std::memory_order_release);
  if (rec->has_deadline) watchdog_->on_terminal();
}

void Service::account_locked(const JobRecord& rec, const JobOutcome& out) {
  auto fold = [&](QosStats& s) {
    switch (out.status) {
      case JobStatus::Completed: ++s.completed; break;
      case JobStatus::Failed: ++s.failed; break;
      case JobStatus::Cancelled: ++s.cancelled; break;
      case JobStatus::ShedDeadline: ++s.shed_deadline; break;
      case JobStatus::ShedQueueFull: ++s.shed_queue_full; break;
      case JobStatus::ShedBreaker: ++s.shed_breaker; break;
      case JobStatus::Rejected: ++s.rejected; break;
      case JobStatus::Queued:
      case JobStatus::Running: break;  // not terminal; never reaches here
    }
    const rt::WorkerStats t = out.sched.totals();
    s.tasks_executed += t.tasks_executed;
    s.tasks_skipped += t.tasks_skipped;
    s.fallback_panels += out.health.fallback_panels;
    s.stalls_detected += rec.stalls.load(std::memory_order_relaxed);
    s.queue_ms_sum += out.queue_ms;
    s.run_ms_sum += out.run_ms;
  };
  fold(stats_.per_class[static_cast<std::size_t>(rec.qos)]);
  fold(stats_.per_tenant[rec.tenant]);
}

void Service::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drained_cv_.wait(lk, [&] {
    return total_queued_ == 0 && inflight_ == 0 && retry_pending_ == 0;
  });
}

void Service::shutdown(bool run_queued) {
  std::vector<std::pair<std::shared_ptr<JobRecord>, JobOutcome>> dropped;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_ && runners_.empty()) return;  // already shut down
    stopping_ = true;
    if (!run_queued) {
      drop_queued_ = true;
      for (auto& q : queue_) {
        for (auto& rec : q) {
          JobOutcome out;
          out.status = JobStatus::Cancelled;
          out.attempts = rec->attempts.load(std::memory_order_relaxed);
          stamp_latency(*rec, &out);
          account_locked(*rec, out);
          dropped.emplace_back(std::move(rec), std::move(out));
        }
        q.clear();
      }
      total_queued_ = 0;
    }
  }
  for (auto& [rec, out] : dropped) {
    {
      std::lock_guard<std::mutex> rlk(rec->mu);
      rec->outcome = std::move(out);
      rec->status = JobStatus::Cancelled;
    }
    rec->cv.notify_all();
    rec->terminal.store(true, std::memory_order_release);
    if (rec->has_deadline) watchdog_->on_terminal();
  }
  // Jobs parked in retry backoff would otherwise stall the runner join for
  // up to a full backoff cap; fire their timers now. With run_queued they
  // requeue immediately (skipping the remaining backoff); with
  // drop_queued_ they finalize with their last attempt's outcome.
  watchdog_->expedite_retries();
  queue_cv_.notify_all();
  for (auto& t : runners_) {
    if (t.joinable()) t.join();
  }
  runners_.clear();
  // Joined AFTER the runners: the watchdog is what fires the retry timers
  // the runners' exit gate (retry_pending_ == 0) waits on.
  if (watchdog_ != nullptr) {
    watchdog_->join();
  }
  {
    // Late drain() callers must still wake even though no runner remains.
    std::lock_guard<std::mutex> lk(mu_);
  }
  drained_cv_.notify_all();
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s = stats_;
    s.queued = total_queued_;
    s.inflight = inflight_;
    s.retry_pending = retry_pending_;
    for (const auto& [tenant, br] : breakers_) {
      BreakerStat bs;
      bs.state = br.state;
      bs.opens = br.opens;
      bs.probes = br.probes;
      s.breakers[tenant] = bs;
    }
  }
  // The watchdog lock is a leaf (the watchdog never takes mu_), but taking
  // it outside mu_ keeps the ordering trivially acyclic.
  s.watchdog_entries = watchdog_->entries();
  return s;
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_queued_;
}

}  // namespace camult::svc
