// runner.hpp — the benchmark measurement protocol (see DESIGN.md §2 and §6).
//
// Default (simulated) mode: the competitor runs once in serial record mode
// (TaskGraph with num_threads = 0) so that every task's kernel time is
// measured on the real machine without interference; the recorded DAG is
// then list-scheduled onto P virtual cores. This substitutes for the paper's
// 8/16-core machines on a single-core host.
//
// Real mode (CAMULT_BENCH_REAL=1): the competitor runs with P actual worker
// threads and wall-clock time is reported instead.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/task_graph.hpp"
#include "sim/sim_scheduler.hpp"

namespace camult::bench {

/// What a competitor run must hand back for measurement.
struct RunArtifacts {
  std::vector<rt::TaskRecord> trace;
  std::vector<rt::TaskGraph::Edge> edges;
  rt::SchedulerStats sched;  ///< counters from the run's TaskGraph
  /// Task-store / trace memory telemetry of the run (zeroed for
  /// competitors that predate the windowed drivers).
  rt::TaskGraph::MemoryStats mem{};
};

struct Measurement {
  double seconds = 0.0;        ///< simulated makespan or real wall time
  double gflops = 0.0;
  double critical_path_s = 0.0;  ///< sim mode only
  double total_work_s = 0.0;     ///< sim mode only
  /// 1 - busy/(makespan*cores). Sim mode: from the simulated schedule; real
  /// mode: from the recorded trace (0 when tracing was off).
  double idle_fraction = 0.0;
  std::vector<rt::TaskRecord> schedule;  ///< sim mode: the simulated Gantt
  /// Scheduler counters of the measured run. Real mode: the real worker
  /// pool's counters (steals, wakeups, ...). Sim mode: the serial record
  /// run's counters (execution telemetry like steals is not meaningful).
  rt::SchedulerStats sched;
  /// Task-store / trace memory telemetry of the measured run (peak task
  /// store bytes, slab recycling counters, harvested trace records).
  rt::TaskGraph::MemoryStats mem;
};

/// True when CAMULT_BENCH_REAL=1 is set.
bool real_mode();

/// Measure one competitor at `cores`. `run(threads)` must execute the
/// algorithm with the given worker count (0 = serial record mode) and
/// return its trace/edges.
Measurement measure(const std::function<RunArtifacts(int)>& run, double flops,
                    int cores);

/// Simulated-mode measurement of an already recorded serial run (`run(0)`)
/// at `cores`: a core-count sweep records once and list-schedules that one
/// recording for every P. measure() in simulated mode is exactly
/// simulate_recorded(run(0), flops, cores).
Measurement simulate_recorded(const RunArtifacts& recorded, double flops,
                              int cores);

/// Environment overrides: integer (CAMULT_BENCH_M=...), comma-separated
/// list (CAMULT_BENCH_NS=10,25,50), with defaults.
idx env_idx(const char* name, idx fallback);
std::vector<idx> env_idx_list(const char* name,
                              const std::vector<idx>& fallback);

/// If CAMULT_BENCH_CSV=<dir> is set, open <dir>/<name>.csv and return the
/// path; otherwise empty.
std::string csv_path(const std::string& name);

}  // namespace camult::bench
