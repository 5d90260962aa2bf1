// WorkerPool tests: persistent workers executing per-run TaskGraphs.
//
// Covers the attach/detach protocol (graphs draining on destruction, many
// sequential runs on one pool), concurrent independent DAGs sharing one
// pool with no stats cross-talk, bitwise-identical CALU/CAQR results
// between private-pool (no caller pool) and caller-pool runs, private-pool
// heartbeats, the factorize-batch drivers, run_on_all_workers,
// thread-local slab-pool persistence across runs (the property the
// persistent pool exists to restore), CPU pinning, and exception
// propagation through an attached graph's wait().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "blas/pack.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "core/drivers.hpp"
#include "matrix/random.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace camult {
namespace {

rt::TaskGraph::Config attached(rt::WorkerPool& pool, bool trace = false) {
  rt::TaskGraph::Config cfg;
  cfg.num_threads = pool.size();  // any non-zero value; width comes from pool
  cfg.record_trace = trace;
  cfg.pool = &pool;
  return cfg;
}

TEST(DefaultNumThreads, SaneRange) {
  const int n = rt::default_num_threads();
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 32);
}

TEST(WorkerPool, SingleGraphRunsAllTasks) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  EXPECT_EQ(pool.size(), 2);
  rt::TaskGraph g(attached(pool));
  EXPECT_EQ(g.execution_width(), 2);
  std::atomic<int> count{0};
  std::vector<rt::TaskId> prev;
  for (int i = 0; i < 200; ++i) {
    // Mix independent tasks and short chains so dependency resolution and
    // the wake path both run on pool workers.
    std::vector<rt::TaskId> deps;
    if (i % 3 == 0 && !prev.empty()) deps.push_back(prev.back());
    prev.push_back(g.submit(deps, {}, [&count] { ++count; }));
  }
  g.wait();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(g.stats().totals().tasks_executed, 200);
}

TEST(WorkerPool, DestructorDrainsWithoutWait) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  std::atomic<int> count{0};
  {
    rt::TaskGraph g(attached(pool));
    for (int i = 0; i < 100; ++i) g.submit({}, {}, [&count] { ++count; });
    // No wait(): the destructor must drain every pending task through the
    // pool before detaching, so no submitted work is ever dropped.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, TwoGraphsConcurrentlyNoStatsCrossTalk) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{3, false});
  rt::TaskGraph g1(attached(pool));
  rt::TaskGraph g2(attached(pool));
  std::atomic<long> sum1{0}, sum2{0};
  // Interleave submissions so both DAGs are in flight together and pool
  // workers rotate between them.
  for (int i = 0; i < 150; ++i) {
    g1.submit({}, {}, [&sum1, i] { sum1 += i; });
    g2.submit({}, {}, [&sum2, i] { sum2 += 2 * i; });
    g2.submit({}, {}, [&sum2] { sum2 += 1; });
  }
  g1.wait();
  g2.wait();
  const long base = 150L * 149L / 2L;
  EXPECT_EQ(sum1.load(), base);
  EXPECT_EQ(sum2.load(), 2 * base + 150);
  // Per-graph counters must attribute each task to its own graph only.
  EXPECT_EQ(g1.stats().totals().tasks_executed, 150);
  EXPECT_EQ(g2.stats().totals().tasks_executed, 300);
}

TEST(WorkerPool, SequentialGraphsFoldIntoLifetimeStats) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  for (int run = 0; run < 5; ++run) {
    rt::TaskGraph g(attached(pool));
    std::atomic<int> c{0};
    for (int i = 0; i < 10; ++i) g.submit({}, {}, [&c] { ++c; });
    g.wait();
    EXPECT_EQ(c.load(), 10);
  }
  const rt::WorkerPoolStats st = pool.stats();
  EXPECT_EQ(st.size, 2);
  EXPECT_EQ(st.graphs_attached, 5);
  EXPECT_EQ(st.graphs_detached, 5);
  // Lifetime stats are the per-run SchedulerStats folded at detach.
  EXPECT_EQ(st.lifetime.totals().tasks_executed, 50);
  EXPECT_EQ(static_cast<int>(st.lifetime.workers.size()), 2);
}

TEST(WorkerPool, RunOnAllWorkersReachesEveryThread) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{3, false});
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.run_on_all_workers([&] {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(static_cast<int>(seen.size()), 3);
  EXPECT_EQ(seen.count(std::this_thread::get_id()), 0u);
  EXPECT_EQ(pool.stats().control_runs, 1);
  // And again while a graph is actively executing: control interleaves
  // between task batches instead of waiting for idle.
  rt::TaskGraph g(attached(pool));
  std::atomic<int> c{0};
  for (int i = 0; i < 400; ++i) {
    g.submit({}, {}, [&c] {
      volatile long acc = 0;
      for (int j = 0; j < 2000; ++j) acc = acc + j;
      ++c;
    });
  }
  std::atomic<int> control_hits{0};
  pool.run_on_all_workers([&control_hits] { ++control_hits; });
  EXPECT_EQ(control_hits.load(), 3);
  g.wait();
  EXPECT_EQ(c.load(), 400);
}

TEST(WorkerPool, RunOnAllWorkersIdlePoolRepeated) {
  // Regression: the control epoch used to be bumped (and broadcast) without
  // holding the sleep mutex, so the bump could land between a parking
  // worker's predicate check and its wait() — the worker slept through the
  // notify and run_on_all_workers hung on an otherwise-idle pool. Each
  // iteration below races a control run against workers re-parking from
  // the previous one; pre-fix this loop hangs within a few hundred rounds.
  rt::WorkerPool pool(rt::WorkerPoolConfig{4, false});
  std::atomic<int> hits{0};
  for (int i = 0; i < 500; ++i) {
    pool.run_on_all_workers([&hits] { ++hits; });
  }
  EXPECT_EQ(hits.load(), 4 * 500);
  EXPECT_EQ(pool.stats().control_runs, 500);
}

TEST(WorkerPool, RunOnAllWorkersFromWorkerThrows) {
  // A pool worker calling run_on_all_workers on its own pool can never ack
  // its own epoch; it must throw std::logic_error instead of hanging.
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  std::atomic<bool> threw{false};
  {
    rt::TaskGraph g(attached(pool));
    g.submit({}, {}, [&] {
      try {
        pool.run_on_all_workers([] {});
      } catch (const std::logic_error&) {
        threw = true;
      }
    });
    g.wait();
  }
  EXPECT_TRUE(threw.load());
  // The rejected call must not have half-published an epoch: a normal
  // control run from the owning thread still completes.
  std::atomic<int> hits{0};
  pool.run_on_all_workers([&hits] { ++hits; });
  EXPECT_EQ(hits.load(), 2);
}

TEST(WorkerPool, ControlRunsInterleaveWithSubmissionBursts) {
  // Stress the interaction between control broadcasts and the task-push
  // relay credit: a control notify_all must not strand a push's wake (the
  // consuming worker forwards it), and repeated control runs during
  // ramp-up must not stall task completion.
  rt::WorkerPool pool(rt::WorkerPoolConfig{4, false});
  rt::TaskGraph g(attached(pool));
  std::atomic<int> done{0};
  std::thread controller([&pool] {
    for (int i = 0; i < 60; ++i) pool.run_on_all_workers([] {});
  });
  for (int burst = 0; burst < 60; ++burst) {
    for (int i = 0; i < 20; ++i) g.submit({}, {}, [&done] { ++done; });
    std::this_thread::yield();
  }
  controller.join();
  g.wait();
  EXPECT_EQ(done.load(), 60 * 20);
}

TEST(WorkerPool, ExceptionPropagatesThroughAttachedWait) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  {
    rt::TaskGraph g(attached(pool));
    std::atomic<int> c{0};
    for (int i = 0; i < 20; ++i) g.submit({}, {}, [&c] { ++c; });
    g.submit({}, {}, [] { throw std::runtime_error("task boom"); });
    for (int i = 0; i < 20; ++i) g.submit({}, {}, [&c] { ++c; });
    EXPECT_THROW(g.wait(), std::runtime_error);
    // Fast-abort skips whatever had not started, but the graph still
    // drains: every task is accounted for and none is left pending.
    const rt::WorkerStats totals = g.stats().totals();
    EXPECT_EQ(totals.tasks_executed + totals.tasks_skipped, 41);
    EXPECT_EQ(totals.tasks_executed, c.load() + 1);  // + the throwing task
    EXPECT_LE(c.load(), 40);
  }
  // The aborted graph detached cleanly: the same pool immediately runs a
  // fresh graph to completion.
  rt::TaskGraph g2(attached(pool));
  std::atomic<int> c2{0};
  for (int i = 0; i < 40; ++i) g2.submit({}, {}, [&c2] { ++c2; });
  g2.wait();
  EXPECT_EQ(c2.load(), 40);
}

TEST(WorkerPool, InlineModeIgnoresPool) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  rt::TaskGraph::Config cfg;
  cfg.num_threads = 0;  // inline serial (record) mode must stay inline
  cfg.pool = &pool;
  rt::TaskGraph g(cfg);
  EXPECT_EQ(g.pool(), nullptr);
  EXPECT_EQ(g.execution_width(), 1);
  std::thread::id ran_on;
  g.submit({}, {}, [&ran_on] { ran_on = std::this_thread::get_id(); });
  g.wait();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// A threaded graph given no pool runs on a private one, so a task body
// stuck in a kernel is visible to a stall monitor through that pool's
// heartbeats exactly as on a caller's pool.
TEST(WorkerPool, PrivatePoolPublishesHeartbeats) {
  rt::TaskGraph::Config cfg;
  cfg.num_threads = 2;
  cfg.record_trace = false;
  rt::TaskGraph g(cfg);
  rt::WorkerPool* pool = g.pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 2);
  EXPECT_EQ(g.execution_width(), 2);
  std::latch release(1);
  const rt::TaskId id = g.submit({}, {}, [&release] { release.wait(); });
  bool seen = false;
  for (int poll = 0; poll < 20000 && !seen; ++poll) {
    for (int w = 0; w < pool->size(); ++w) {
      rt::HeartbeatSnapshot hb;
      if (pool->read_heartbeat(w, &hb) && hb.busy && hb.task == id &&
          hb.tag == cfg.cancel.id()) {
        seen = true;
      }
    }
    if (!seen) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  release.count_down();
  g.wait();
  EXPECT_TRUE(seen);
}

TEST(WorkerPool, PinnedSmoke) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, true});
  const rt::WorkerPoolStats st = pool.stats();
  EXPECT_EQ(st.size, 2);
#ifdef __linux__
  EXPECT_EQ(st.pinned, 2);  // pinning to cpu t % ncpu must succeed on Linux
#endif
  rt::TaskGraph g(attached(pool));
  std::atomic<int> c{0};
  for (int i = 0; i < 50; ++i) g.submit({}, {}, [&c] { ++c; });
  g.wait();
  EXPECT_EQ(c.load(), 50);
}

TEST(WorkerPool, ProcessDefaultIsSingleton) {
  rt::WorkerPool& a = rt::WorkerPool::process_default();
  rt::WorkerPool& b = rt::WorkerPool::process_default();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1);
  rt::TaskGraph g(attached(a));
  std::atomic<int> c{0};
  g.submit({}, {}, [&c] { ++c; });
  g.wait();
  EXPECT_EQ(c.load(), 1);
}

// --- Slab-pool persistence: the property the pool exists to restore ------

TEST(WorkerPool, SlabPoolPersistsAcrossRuns) {
  // One worker so every acquire lands in the same thread-local pool.
  rt::WorkerPool pool(rt::WorkerPoolConfig{1, false});
  auto touch = [] {
    blas::ScratchBuffer b(4096);
    ASSERT_NE(b.data(), nullptr);
    b.data()[0] = 1.0;  // destructor parks the slab in the worker's pool
  };
  pool.run_on_all_workers(touch);
  const blas::BufferPoolStats s1 = core::pool_buffer_stats(pool);
  EXPECT_EQ(s1.allocs, 1);  // first run allocated the slab
  pool.run_on_all_workers(touch);
  const blas::BufferPoolStats s2 = core::pool_buffer_stats(pool);
  // Second run on the SAME persistent worker reuses the cached slab: the
  // cross-run reuse per-call threads could never provide.
  EXPECT_EQ(s2.allocs, s1.allocs);
  EXPECT_GT(s2.pool_hits, s1.pool_hits);
  // Pool-wide trim drops the cached slab (the thread-local trim from this
  // thread could not reach the worker's pool).
  core::pool_buffer_trim(pool);
  const blas::BufferPoolStats s3 = core::pool_buffer_stats(pool);
  EXPECT_EQ(s3.frees, s3.allocs);
  pool.run_on_all_workers(touch);
  const blas::BufferPoolStats s4 = core::pool_buffer_stats(pool);
  EXPECT_EQ(s4.allocs, s3.allocs + 1);  // trimmed, so this re-allocates
}

TEST(WorkerPool, CaluSlabReuseAcrossCalls) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{1, false});
  core::CaluOptions o;
  o.b = 32;
  o.tr = 2;
  o.num_threads = 1;
  o.pool = &pool;
  o.record_trace = false;
  Matrix a1 = random_matrix(160, 160, 11);
  Matrix a2 = random_matrix(160, 160, 12);
  (void)core::calu_factor(a1.view(), o);
  const blas::BufferPoolStats s1 = core::pool_buffer_stats(pool);
  (void)core::calu_factor(a2.view(), o);
  const blas::BufferPoolStats s2 = core::pool_buffer_stats(pool);
  // The second call's packs are served from slabs the first call cached:
  // under the persistent pool no steady-state acquire hits operator new.
  EXPECT_GT(s2.pool_hits, s1.pool_hits);
  EXPECT_EQ(s2.allocs, s1.allocs);
}

// --- Bitwise equivalence of private-pool vs caller-pool execution -------

bool bitwise_equal(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (idx j = 0; j < x.cols(); ++j) {
    if (std::memcmp(x.col_ptr(j), y.col_ptr(j),
                    sizeof(double) * static_cast<std::size_t>(x.rows())) !=
        0) {
      return false;
    }
  }
  return true;
}

TEST(WorkerPool, CaluBitwiseMatchesOwnedThreads) {
  const Matrix a0 = random_matrix(180, 180, 42);
  core::CaluOptions base;
  base.b = 48;
  base.tr = 3;
  base.record_trace = false;
  base.num_threads = 3;

  Matrix a_owned = a0;
  const core::CaluResult r_owned = core::calu_factor(a_owned.view(), base);

  rt::WorkerPool pool(rt::WorkerPoolConfig{3, false});
  core::CaluOptions att = base;
  att.pool = &pool;
  Matrix a_pool = a0;
  const core::CaluResult r_pool = core::calu_factor(a_pool.view(), att);

  EXPECT_EQ(r_owned.info, r_pool.info);
  EXPECT_EQ(r_owned.ipiv, r_pool.ipiv);
  EXPECT_TRUE(bitwise_equal(a_owned.view(), a_pool.view()));
}

TEST(WorkerPool, CaqrBitwiseMatchesOwnedThreads) {
  const Matrix a0 = random_matrix(200, 120, 43);
  core::CaqrOptions base;
  base.b = 40;
  base.tr = 3;
  base.record_trace = false;
  base.num_threads = 3;

  Matrix a_owned = a0;
  const core::CaqrResult r_owned = core::caqr_factor(a_owned.view(), base);

  rt::WorkerPool pool(rt::WorkerPoolConfig{3, false});
  core::CaqrOptions att = base;
  att.pool = &pool;
  Matrix a_pool = a0;
  const core::CaqrResult r_pool = core::caqr_factor(a_pool.view(), att);

  EXPECT_TRUE(bitwise_equal(a_owned.view(), a_pool.view()));
  const Matrix r1 = core::caqr_extract_r(a_owned.view(), r_owned);
  const Matrix r2 = core::caqr_extract_r(a_pool.view(), r_pool);
  EXPECT_TRUE(bitwise_equal(r1.view(), r2.view()));
}

// --- Batch drivers -------------------------------------------------------

TEST(WorkerPool, CaluFactorBatchMatchesSingleCalls) {
  core::CaluOptions o;
  o.b = 32;
  o.tr = 2;
  o.num_threads = 2;
  o.record_trace = false;
  std::vector<Matrix> singles, batched;
  for (int i = 0; i < 4; ++i) {
    singles.push_back(random_matrix(96, 96, 500 + i));
    batched.push_back(singles.back());
  }
  std::vector<core::CaluResult> want;
  for (Matrix& m : singles) want.push_back(core::calu_factor(m.view(), o));
  std::vector<MatrixView> views;
  for (Matrix& m : batched) views.push_back(m.view());
  const std::vector<core::CaluResult> got = core::calu_factor_batch(views, o);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].info, want[i].info) << "matrix " << i;
    EXPECT_EQ(got[i].ipiv, want[i].ipiv) << "matrix " << i;
    EXPECT_TRUE(bitwise_equal(batched[i].view(), singles[i].view()))
        << "matrix " << i;
  }
}

TEST(WorkerPool, CaluFactorBatchOnCallerPool) {
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  core::CaluOptions o;
  o.b = 32;
  o.tr = 2;
  o.num_threads = 2;
  o.pool = &pool;
  o.record_trace = false;
  std::vector<Matrix> ms;
  for (int i = 0; i < 3; ++i) ms.push_back(random_matrix(96, 96, 700 + i));
  std::vector<Matrix> ref = ms;
  std::vector<MatrixView> views;
  for (Matrix& m : ms) views.push_back(m.view());
  const auto got = core::calu_factor_batch(views, o);
  ASSERT_EQ(got.size(), 3u);
  core::CaluOptions serial = o;
  serial.pool = nullptr;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto want = core::calu_factor(ref[i].view(), serial);
    EXPECT_EQ(got[i].ipiv, want.ipiv);
    EXPECT_TRUE(bitwise_equal(ms[i].view(), ref[i].view()));
  }
  EXPECT_EQ(pool.stats().graphs_detached, 3);
}

TEST(WorkerPool, CaqrFactorBatchMatchesSingleCalls) {
  core::CaqrOptions o;
  o.b = 32;
  o.tr = 2;
  o.num_threads = 2;
  o.record_trace = false;
  std::vector<Matrix> singles, batched;
  for (int i = 0; i < 3; ++i) {
    singles.push_back(random_matrix(120, 80, 900 + i));
    batched.push_back(singles.back());
  }
  std::vector<core::CaqrResult> want;
  for (Matrix& m : singles) want.push_back(core::caqr_factor(m.view(), o));
  std::vector<MatrixView> views;
  for (Matrix& m : batched) views.push_back(m.view());
  const auto got = core::caqr_factor_batch(views, o);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(batched[i].view(), singles[i].view()))
        << "matrix " << i;
  }
}

}  // namespace
}  // namespace camult
