// perfbench — the repository benchmark driver (see ../README.md).
//
//   perfbench --workload <tall_skinny|square|service> --seed <n>
//             --seconds <s> --trace <0|1> [--corrupt 1] [--setup-only 1]
//             [--git-rev <rev>]
//
// Prints a host record, progress lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any output was wrong or any operation failed, 2 on bad arguments.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Result;
using perfbench::RunArgs;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tall_skinny|square|service> --seed <n> --seconds <s> "
               "--trace <0|1> [--corrupt 0|1] [--setup-only 0|1] "
               "[--git-rev <rev>]\n",
               why);
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
    usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return v;
}

bool parse_flag(const char* flag, const char* text) {
  if (std::strcmp(text, "0") == 0) return false;
  if (std::strcmp(text, "1") == 0) return true;
  usage((std::string(flag) + " takes 0 or 1").c_str());
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("every flag takes a value");
    const char* flag = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      char* end = nullptr;
      errno = 0;
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || *v == '-' || errno == ERANGE) {
        usage("--seed takes a non-negative integer");
      }
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = parse_number(flag, v);
      if (a.seconds <= 0 || a.seconds > 600) usage("--seconds out of range");
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = parse_flag(flag, v);
    } else if (std::strcmp(flag, "--corrupt") == 0) {
      a.corrupt = parse_flag(flag, v);
    } else if (std::strcmp(flag, "--setup-only") == 0) {
      a.setup_only = parse_flag(flag, v);
    } else if (std::strcmp(flag, "--git-rev") == 0) {
      a.git_rev = v;
    } else {
      usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (a.workload != "tall_skinny" && a.workload != "square" &&
      a.workload != "service") {
    usage("--workload must be tall_skinny, square or service");
  }
  return a;
}

void print_result(Result& r) {
  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      r.correct = false;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  if (r.failed > 0) r.correct = false;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const RunArgs args = parse(argc, argv);
  perfbench::print_host(args);
  Result r;
  try {
    r = args.workload == "service" ? perfbench::run_service(args)
                                   : perfbench::run_factor(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0 && !args.setup_only) r.correct = false;
  print_result(r);
  return r.correct ? 0 : 1;
}
