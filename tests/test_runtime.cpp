// Tests for the dynamic task runtime: dependency ordering, priorities,
// inline mode, dependency inference, tracing, and a multithreaded stress
// test.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/dep_tracker.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"

namespace camult::rt {
namespace {

TEST(TaskGraph, RunsSingleTask) {
  TaskGraph g({2, true});
  std::atomic<int> x{0};
  g.submit({}, {}, [&] { x = 42; });
  g.wait();
  EXPECT_EQ(x, 42);
}

TEST(TaskGraph, RespectsDependencyChain) {
  TaskGraph g({4, true});
  std::vector<int> order;
  std::mutex mu;
  auto log = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(v);
  };
  TaskId a = g.submit({}, {}, [&] { log(1); });
  TaskId b = g.submit({a}, {}, [&] { log(2); });
  g.submit({b}, {}, [&] { log(3); });
  g.wait();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TaskGraph, DiamondDependency) {
  TaskGraph g({4, true});
  std::atomic<int> stage{0};
  TaskId top = g.submit({}, {}, [&] { stage = 1; });
  std::atomic<bool> left_saw_top{false}, right_saw_top{false};
  TaskId l = g.submit({top}, {}, [&] { left_saw_top = (stage == 1); });
  TaskId r = g.submit({top}, {}, [&] { right_saw_top = (stage == 1); });
  std::atomic<bool> bottom_ok{false};
  g.submit({l, r}, {}, [&] { bottom_ok = left_saw_top && right_saw_top; });
  g.wait();
  EXPECT_TRUE(bottom_ok);
}

TEST(TaskGraph, FinishedDependencyIsSkipped) {
  TaskGraph g({1, true});
  TaskId a = g.submit({}, {}, [] {});
  g.wait();
  std::atomic<bool> ran{false};
  g.submit({a}, {}, [&] { ran = true; });
  g.wait();
  EXPECT_TRUE(ran);
}

TEST(TaskGraph, KNoTaskDependencyIgnored) {
  TaskGraph g({1, true});
  std::atomic<bool> ran{false};
  g.submit({kNoTask}, {}, [&] { ran = true; });
  g.wait();
  EXPECT_TRUE(ran);
}

TEST(TaskGraph, InlineModeExecutesEagerly) {
  TaskGraph g({0, true});
  int x = 0;
  g.submit({}, {}, [&] { x = 1; });
  EXPECT_EQ(x, 1);  // already ran, no wait needed
  TaskId a = g.submit({}, {}, [&] { x = 2; });
  g.submit({a}, {}, [&] { x = 3; });
  g.wait();
  EXPECT_EQ(x, 3);
}

TEST(TaskGraph, InlineModeNonTopologicalSubmitThrowsBeforeMutating) {
  // Inline mode requires topological submission order. The only way to
  // violate it is submitting from inside a running task (the task itself
  // is not finished yet). The rejection must happen BEFORE any state is
  // mutated: no phantom task, no stray edges, and the graph stays usable.
  TaskGraph g({0, true});
  bool threw = false;
  TaskId self = kNoTask;
  g.submit({}, {}, [&] {
    // `self` is assigned after submit() returns, so depend on the id this
    // task is about to get: store_.size() at submission time, i.e. 0.
    try {
      g.submit({static_cast<TaskId>(0)}, {}, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  (void)self;
  EXPECT_TRUE(threw);
  // The rejected submission left nothing behind...
  EXPECT_EQ(g.trace().size(), 1u);
  EXPECT_TRUE(g.edges().empty());
  // ...and the graph still works: wait() succeeds and new submissions run.
  EXPECT_NO_THROW(g.wait());
  int after = 0;
  g.submit({}, {}, [&] { after = 1; });
  g.wait();
  EXPECT_EQ(after, 1);
  EXPECT_EQ(g.trace().size(), 2u);
}

TEST(TaskGraph, InlineModeLongChainNoStackOverflow) {
  TaskGraph g({0, false});
  int counter = 0;
  TaskId prev = kNoTask;
  for (int i = 0; i < 100000; ++i) {
    prev = g.submit(prev == kNoTask ? std::vector<TaskId>{}
                                    : std::vector<TaskId>{prev},
                    {}, [&] { ++counter; });
  }
  g.wait();
  EXPECT_EQ(counter, 100000);
}

TEST(TaskGraph, PriorityOrderWithSingleThread) {
  // With one worker and all tasks ready, execution must follow priority.
  TaskGraph g({0, true});  // inline mode is strictly submission-ordered,
                           // so use a gate pattern with 1 thread instead.
  (void)g;

  TaskGraph g1({1, true});
  std::vector<int> order;
  std::mutex mu;
  // Block the worker with a gate task so the queue fills up. Submit the
  // rest only once the gate is running: a worker still waking up could
  // otherwise take the gate in one refill batch with some of them.
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  g1.submit({}, {}, [&] {
    started = true;
    while (!gate) std::this_thread::yield();
  });
  while (!started) std::this_thread::yield();
  auto log = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(v);
  };
  TaskOptions low;
  low.priority = 1;
  TaskOptions high;
  high.priority = 10;
  TaskOptions mid;
  mid.priority = 5;
  g1.submit({}, low, [&] { log(1); });
  g1.submit({}, high, [&] { log(10); });
  g1.submit({}, mid, [&] { log(5); });
  gate = true;
  g1.wait();
  EXPECT_EQ(order, (std::vector<int>{10, 5, 1}));
}

TEST(TaskGraph, TraceRecordsAllTasks) {
  TaskGraph g({2, true});
  TaskOptions o;
  o.kind = TaskKind::Update;
  o.iteration = 3;
  o.label = "s";
  TaskId a = g.submit({}, o, [] {});
  g.submit({a}, {}, [] {});
  g.wait();
  auto tr = g.trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr[0].kind, TaskKind::Update);
  EXPECT_EQ(tr[0].iteration, 3);
  EXPECT_EQ(tr[0].label, "s");
  EXPECT_GE(tr[0].worker, 0);
  EXPECT_GE(tr[0].end_ns, tr[0].start_ns);
  // The dependent task cannot start before its predecessor ends.
  EXPECT_GE(tr[1].start_ns, tr[0].end_ns);
  auto edges = g.edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, a);
}

TEST(TaskGraph, StressManyTasksManyThreads) {
  // Layered DAG: each layer depends on the previous; sum must be exact.
  TaskGraph g({4, false});
  const int layers = 50, width = 20;
  std::atomic<long> sum{0};
  std::vector<TaskId> prev, cur;
  for (int l = 0; l < layers; ++l) {
    cur.clear();
    for (int w = 0; w < width; ++w) {
      cur.push_back(g.submit(prev, {}, [&] { sum += 1; }));
    }
    prev = cur;
  }
  g.wait();
  EXPECT_EQ(sum, layers * width);
}

TEST(TaskGraph, ConcurrentWritersAreSerializedByDeps) {
  // Many read-modify-write tasks on a shared (non-atomic!) counter chained
  // by dependencies: any race would lose increments.
  TaskGraph g({4, false});
  long counter = 0;
  TaskId prev = kNoTask;
  for (int i = 0; i < 2000; ++i) {
    prev = g.submit(prev == kNoTask ? std::vector<TaskId>{}
                                    : std::vector<TaskId>{prev},
                    {}, [&] { ++counter; });
  }
  g.wait();
  EXPECT_EQ(counter, 2000);
}

TEST(DepTracker, ReadAfterWrite) {
  DepTracker t;
  auto d0 = t.depends(0, {{block_key(0, 0), AccessMode::Write}});
  EXPECT_TRUE(d0.empty());
  auto d1 = t.depends(1, {{block_key(0, 0), AccessMode::Read}});
  EXPECT_EQ(d1, (std::vector<TaskId>{0}));
}

TEST(DepTracker, WriteAfterReadCollectsAllReaders) {
  DepTracker t;
  t.depends(0, {{block_key(1, 1), AccessMode::Write}});
  t.depends(1, {{block_key(1, 1), AccessMode::Read}});
  t.depends(2, {{block_key(1, 1), AccessMode::Read}});
  auto d = t.depends(3, {{block_key(1, 1), AccessMode::Write}});
  // WAW on 0 plus WAR on 1 and 2.
  EXPECT_EQ(d, (std::vector<TaskId>{0, 1, 2}));
}

TEST(DepTracker, IndependentBlocksNoDeps) {
  DepTracker t;
  t.depends(0, {{block_key(0, 0), AccessMode::Write}});
  auto d = t.depends(1, {{block_key(0, 1), AccessMode::Write}});
  EXPECT_TRUE(d.empty());
}

TEST(DepTracker, ReadWriteActsAsBoth) {
  DepTracker t;
  t.depends(0, {{block_key(2, 2), AccessMode::Write}});
  auto d1 = t.depends(1, {{block_key(2, 2), AccessMode::ReadWrite}});
  EXPECT_EQ(d1, (std::vector<TaskId>{0}));
  auto d2 = t.depends(2, {{block_key(2, 2), AccessMode::Read}});
  EXPECT_EQ(d2, (std::vector<TaskId>{1}));
}

TEST(DepTracker, DeduplicatesDeps) {
  DepTracker t;
  t.depends(0, {{block_key(0, 0), AccessMode::Write},
                {block_key(0, 1), AccessMode::Write}});
  auto d = t.depends(1, {{block_key(0, 0), AccessMode::Read},
                         {block_key(0, 1), AccessMode::Read}});
  EXPECT_EQ(d, (std::vector<TaskId>{0}));
}

TEST(Trace, StatsComputeIdleFraction) {
  std::vector<TaskRecord> recs(2);
  recs[0].worker = 0;
  recs[0].start_ns = 0;
  recs[0].end_ns = 100;
  recs[1].worker = 1;
  recs[1].start_ns = 0;
  recs[1].end_ns = 50;
  auto st = compute_stats(recs, 2);
  EXPECT_EQ(st.makespan_ns, 100);
  EXPECT_EQ(st.busy_ns, 150);
  EXPECT_NEAR(st.idle_fraction, 0.25, 1e-12);
}

TEST(Trace, GanttRendersKindLetters) {
  std::vector<TaskRecord> recs(2);
  recs[0].worker = 0;
  recs[0].kind = TaskKind::Panel;
  recs[0].start_ns = 0;
  recs[0].end_ns = 50;
  recs[1].worker = 1;
  recs[1].kind = TaskKind::Update;
  recs[1].start_ns = 50;
  recs[1].end_ns = 100;
  std::string g = render_gantt(recs, 2, 10);
  EXPECT_NE(g.find("P"), std::string::npos);
  EXPECT_NE(g.find("S"), std::string::npos);
  EXPECT_NE(g.find("core 0"), std::string::npos);
  EXPECT_NE(g.find("core 1"), std::string::npos);
}

TEST(Trace, CsvHasHeaderAndRows) {
  std::vector<TaskRecord> recs(1);
  recs[0].id = 0;
  recs[0].kind = TaskKind::LFactor;
  std::ostringstream os;
  write_trace_csv(os, recs);
  const std::string s = os.str();
  EXPECT_NE(s.find("id,kind"), std::string::npos);
  EXPECT_NE(s.find("L"), std::string::npos);
}

TEST(Trace, DotContainsNodesAndEdges) {
  std::vector<TaskRecord> recs(2);
  recs[0].id = 0;
  recs[1].id = 1;
  std::vector<TaskGraph::Edge> edges = {{0, 1}};
  std::ostringstream os;
  write_dot(os, recs, edges);
  const std::string s = os.str();
  EXPECT_NE(s.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(s.find("digraph"), std::string::npos);
}


TEST(WorkStealing, RespectsDependencies) {
  TaskGraph g({4, true, TaskGraph::Policy::WorkStealing});
  std::vector<int> order;
  std::mutex mu;
  auto log = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(v);
  };
  TaskId a = g.submit({}, {}, [&] { log(1); });
  TaskId b = g.submit({a}, {}, [&] { log(2); });
  g.submit({b}, {}, [&] { log(3); });
  g.wait();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(WorkStealing, StressLayeredDag) {
  TaskGraph g({4, false, TaskGraph::Policy::WorkStealing});
  const int layers = 40, width = 25;
  std::atomic<long> sum{0};
  std::vector<TaskId> prev, cur;
  for (int l = 0; l < layers; ++l) {
    cur.clear();
    for (int w = 0; w < width; ++w) {
      cur.push_back(g.submit(prev, {}, [&] { sum += 1; }));
    }
    prev = cur;
  }
  g.wait();
  EXPECT_EQ(sum, layers * width);
}

TEST(WorkStealing, AllTasksExecuteOnWideGraph) {
  // Many independent tasks scattered round-robin; every deque must drain.
  TaskGraph g({3, true, TaskGraph::Policy::WorkStealing});
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    g.submit({}, {}, [&] { ++count; });
  }
  g.wait();
  EXPECT_EQ(count, 500);
  // Trace shows work spread across workers (not guaranteed perfectly even,
  // but all tasks ran somewhere valid).
  for (const auto& r : g.trace()) {
    EXPECT_GE(r.worker, 0);
    EXPECT_LT(r.worker, 3);
  }
}

TEST(WorkStealing, CaluProducesIdenticalFactors) {
  // Scheduling policy must not change the numerical result.
  // (Exercised through the core API; see test_core_calu for the rest.)
  SUCCEED();
}



TEST(TaskGraph, TaskExceptionRethrownAtWait) {
  TaskGraph g({2, true});
  std::atomic<bool> dependent_ran{false};
  TaskId bad = g.submit({}, {}, [] {
    throw std::runtime_error("kernel blew up");
  });
  g.submit({bad}, {}, [&] { dependent_ran = true; });
  EXPECT_THROW(g.wait(), std::runtime_error);
  // Fast-abort: the graph drained, but the failed task's dependent was
  // skipped, not executed — its input never materialized.
  EXPECT_FALSE(dependent_ran);
  EXPECT_EQ(g.stats().totals().tasks_skipped, 1);
}

TEST(TaskGraph, DependentsRunAfterErrorWithoutAbortOnError) {
  TaskGraph::Config cfg;
  cfg.num_threads = 2;
  cfg.abort_on_error = false;
  TaskGraph g(cfg);
  std::atomic<bool> dependent_ran{false};
  TaskId bad = g.submit({}, {}, [] {
    throw std::runtime_error("kernel blew up");
  });
  g.submit({bad}, {}, [&] { dependent_ran = true; });
  EXPECT_THROW(g.wait(), std::runtime_error);
  // Legacy drain-everything contract, kept behind abort_on_error = false.
  EXPECT_TRUE(dependent_ran);
}

TEST(TaskGraph, InlineModeExceptionRethrownAtWait) {
  TaskGraph g({0, true});
  bool ran_after = false;
  TaskId bad = g.submit({}, {}, [] { throw std::logic_error("boom"); });
  g.submit({bad}, {}, [&] { ran_after = true; });
  // Inline mode fast-aborts too: the body after the failure is skipped at
  // submit time.
  EXPECT_FALSE(ran_after);
  EXPECT_THROW(g.wait(), std::logic_error);
}

TEST(TaskGraph, FirstExceptionByIdWins) {
  TaskGraph g({1, true});
  std::atomic<bool> gate{false};
  g.submit({}, {}, [&] {
    while (!gate) std::this_thread::yield();
  });
  g.submit({}, {}, [] { throw std::runtime_error("first"); });
  g.submit({}, {}, [] { throw std::out_of_range("second"); });
  gate = true;
  try {
    g.wait();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  } catch (...) {
    FAIL() << "wrong exception type won";
  }
}

TEST(TraceIo, RoundTrip) {
  std::vector<TaskRecord> tasks(3);
  tasks[0].id = 0;
  tasks[0].kind = TaskKind::Panel;
  tasks[0].iteration = 2;
  tasks[0].priority = 7;
  tasks[0].worker = 1;
  tasks[0].start_ns = 100;
  tasks[0].end_ns = 250;
  tasks[0].label = "leaf 0 with spaces";
  tasks[1].id = 1;
  tasks[1].kind = TaskKind::Update;
  tasks[1].label = "";
  tasks[2].id = 2;
  tasks[2].kind = TaskKind::LFactor;
  tasks[2].label = "L3";
  std::vector<TaskGraph::Edge> edges = {{0, 1}, {1, 2}};

  std::stringstream ss;
  save_dag(ss, tasks, edges);
  RecordedDag dag = load_dag(ss);
  ASSERT_EQ(dag.tasks.size(), 3u);
  ASSERT_EQ(dag.edges.size(), 2u);
  EXPECT_EQ(dag.tasks[0].kind, TaskKind::Panel);
  EXPECT_EQ(dag.tasks[0].iteration, 2);
  EXPECT_EQ(dag.tasks[0].priority, 7);
  EXPECT_EQ(dag.tasks[0].start_ns, 100);
  EXPECT_EQ(dag.tasks[0].end_ns, 250);
  EXPECT_EQ(dag.tasks[0].label, "leaf 0 with spaces");
  EXPECT_EQ(dag.tasks[1].label, "");
  EXPECT_EQ(dag.tasks[2].kind, TaskKind::LFactor);
  EXPECT_EQ(dag.edges[1].to, 2);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream ss("not a dag file");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

// A corrupt header must fail with a descriptive error rather than driving a
// multi-GB resize (huge count) or wrapping through size_t (negative count).
TEST(TraceIo, RejectsNegativeTaskCount) {
  std::stringstream ss("camult-dag v1\ntasks -5\nedges 0\n");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

TEST(TraceIo, RejectsImplausiblyHugeTaskCount) {
  std::stringstream ss("camult-dag v1\ntasks 999999999999\nedges 0\n");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

TEST(TraceIo, RejectsNegativeEdgeCount) {
  std::stringstream ss("camult-dag v1\ntasks 0\nedges -1\n");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

TEST(TraceIo, RejectsInvalidWorker) {
  std::stringstream ss(
      "camult-dag v1\ntasks 1\n0 P 0 0 -7 0 10 label\nedges 0\n");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

TEST(TraceIo, RejectsEndBeforeStart) {
  std::stringstream ss(
      "camult-dag v1\ntasks 1\n0 P 0 0 0 100 50 label\nedges 0\n");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfRangeEdge) {
  std::stringstream ss(
      "camult-dag v1\ntasks 2\n0 P 0 0 0 0 10 a\n1 S 0 0 0 10 20 b\n"
      "edges 1\n0 5\n");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedTaskRecord) {
  std::stringstream ss("camult-dag v1\ntasks 2\n0 P 0 0 0 0 10 only-one\n");
  EXPECT_THROW(load_dag(ss), std::runtime_error);
}

TEST(TraceIo, AcceptsSimulatedWorkerMinusOne) {
  std::stringstream ss(
      "camult-dag v1\ntasks 1\n0 P 0 0 -1 0 10 recorded\nedges 0\n");
  RecordedDag dag = load_dag(ss);
  ASSERT_EQ(dag.tasks.size(), 1u);
  EXPECT_EQ(dag.tasks[0].worker, -1);
}

// --- label escaping in the exporters ---------------------------------------

TEST(Trace, CsvEscapeQuotesSpecialFields) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Trace, CsvWriterEscapesLabels) {
  std::vector<TaskRecord> recs(1);
  recs[0].id = 0;
  recs[0].label = "leaf 0, \"quoted\"";
  std::ostringstream os;
  write_trace_csv(os, recs);
  EXPECT_NE(os.str().find("\"leaf 0, \"\"quoted\"\"\""), std::string::npos);
}

TEST(Trace, DotEscapeHandlesQuotesBackslashesNewlines) {
  EXPECT_EQ(dot_escape("plain"), "plain");
  EXPECT_EQ(dot_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(dot_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(dot_escape("a\nb"), "a\\nb");
  EXPECT_EQ(dot_escape("a\rb"), "ab");
}

TEST(Trace, DotWriterEscapesLabels) {
  std::vector<TaskRecord> recs(1);
  recs[0].id = 0;
  recs[0].label = "bad \"label\"";
  std::ostringstream os;
  write_dot(os, recs, {});
  const std::string s = os.str();
  EXPECT_NE(s.find("bad \\\"label\\\""), std::string::npos);
  // The raw unescaped quote sequence must not appear inside any DOT string.
  EXPECT_EQ(s.find(" \"label\""), std::string::npos);
}

// --- stats/gantt edge cases ------------------------------------------------

TEST(Trace, StatsEmptyTraceIsAllZero) {
  const TraceStats st = compute_stats({}, 4);
  EXPECT_EQ(st.makespan_ns, 0);
  EXPECT_EQ(st.busy_ns, 0);
  EXPECT_EQ(st.idle_fraction, 0.0);
}

TEST(Trace, StatsZeroDurationTasksGiveZeroMakespan) {
  std::vector<TaskRecord> recs(2);
  recs[0].worker = 0;
  recs[0].start_ns = 50;
  recs[0].end_ns = 50;
  recs[1].worker = -1;  // unknown worker still counts toward busy time
  recs[1].start_ns = 50;
  recs[1].end_ns = 50;
  const TraceStats st = compute_stats(recs, 2);
  EXPECT_EQ(st.makespan_ns, 0);
  EXPECT_EQ(st.busy_ns, 0);
  EXPECT_EQ(st.idle_fraction, 0.0);  // makespan 0 must not divide by zero
}

TEST(Trace, GanttEmptyTraceRendersNothing) {
  EXPECT_EQ(render_gantt({}, 4, 80), "");
  EXPECT_EQ(render_gantt({}, 0, 80), "");
}

TEST(Trace, GanttZeroDurationAndUnknownWorkerAreSafe) {
  std::vector<TaskRecord> recs(2);
  recs[0].worker = 0;
  recs[0].kind = TaskKind::Panel;
  recs[0].start_ns = 10;
  recs[0].end_ns = 10;  // zero duration
  recs[1].worker = -1;  // simulated record without a worker: skipped
  recs[1].start_ns = 0;
  recs[1].end_ns = 10;
  const std::string g = render_gantt(recs, 1, 20);
  EXPECT_NE(g.find("core 0"), std::string::npos);
}

}  // namespace
}  // namespace camult::rt
