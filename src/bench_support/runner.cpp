#include "bench_support/runner.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench_support/flops.hpp"
#include "runtime/trace.hpp"

namespace camult::bench {

namespace {

/// Strict integer parse (same contract as the CLI's parse_num): the whole
/// token must be a decimal integer within idx range. Returns whether the
/// parse succeeded; *out is untouched on failure.
bool parse_idx_strict(const char* s, idx* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<idx>(v);
  return true;
}

}  // namespace

bool real_mode() {
  const char* v = std::getenv("CAMULT_BENCH_REAL");
  return v != nullptr && v[0] == '1';
}

Measurement measure(const std::function<RunArtifacts(int)>& run, double flops,
                    int cores) {
  Measurement m;
  if (real_mode()) {
    const auto t0 = std::chrono::steady_clock::now();
    RunArtifacts art = run(cores);
    const auto t1 = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    m.gflops = gflops(flops, m.seconds);
    m.sched = std::move(art.sched);
    m.mem = art.mem;
    if (!art.trace.empty()) {
      m.idle_fraction =
          std::clamp(rt::compute_stats(art.trace, cores).idle_fraction, 0.0,
                     1.0);
    }
    return m;
  }
  return simulate_recorded(run(0), flops, cores);  // serial record mode
}

Measurement simulate_recorded(const RunArtifacts& art, double flops,
                              int cores) {
  Measurement m;
  sim::SimResult sr = sim::simulate(art.trace, art.edges, cores);
  m.seconds = static_cast<double>(sr.makespan_ns) * 1e-9;
  m.critical_path_s = static_cast<double>(sr.critical_path_ns) * 1e-9;
  m.total_work_s = static_cast<double>(sr.total_work_ns) * 1e-9;
  m.gflops = gflops(flops, m.seconds);
  if (sr.makespan_ns > 0 && cores > 0) {
    // Clamp: simulated timestamps are rounded to whole ns, so total_work can
    // exceed makespan * cores by rounding (idle < 0) and a trace whose work
    // rounds to 0 would report idle > 1. A zero makespan (empty or all-zero
    // trace) leaves the fraction at its 0 default rather than dividing by 0.
    m.idle_fraction = std::clamp(
        1.0 - static_cast<double>(sr.total_work_ns) /
                  (static_cast<double>(sr.makespan_ns) * cores),
        0.0, 1.0);
  }
  m.schedule = std::move(sr.schedule);
  m.sched = art.sched;
  m.mem = art.mem;
  return m;
}

idx env_idx(const char* name, idx fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  idx parsed = 0;
  if (!parse_idx_strict(v, &parsed)) {
    // A silently half-parsed knob ("8x" -> 8, "abc" -> 0) benchmarks the
    // wrong problem; warn and keep the documented default instead.
    std::fprintf(stderr, "camult-bench: ignoring %s='%s' (not an integer)\n",
                 name, v);
    return fallback;
  }
  return parsed;
}

std::vector<idx> env_idx_list(const char* name,
                              const std::vector<idx>& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<idx> out;
  std::stringstream ss(v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    idx parsed = 0;
    if (!parse_idx_strict(tok.c_str(), &parsed)) {
      // One bad token invalidates the whole list: a sweep over a partially
      // parsed size set would mislabel every downstream row.
      std::fprintf(stderr,
                   "camult-bench: ignoring %s='%s' (bad token '%s')\n", name,
                   v, tok.c_str());
      return fallback;
    }
    out.push_back(parsed);
  }
  return out.empty() ? fallback : out;
}

std::string csv_path(const std::string& name) {
  const char* dir = std::getenv("CAMULT_BENCH_CSV");
  if (dir == nullptr || *dir == '\0') return {};
  return std::string(dir) + "/" + name + ".csv";
}

}  // namespace camult::bench
