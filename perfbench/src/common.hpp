// common.hpp — shared plumbing of the perfbench driver: the run's
// parameters, the result it prints, and the helpers every workload uses
// (clock, percentiles, bitwise output fingerprints, peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/caqr.hpp"
#include "matrix/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using camult::idx;

/// Worker count of every pool: one per core of the host.
int workers();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: flip one bit of one timed output before it is checked,
  /// so the run must report a failure (see README.md, "Self-test").
  bool corrupt = false;
  /// Only measure set-up (pool/service construction + warm-up) and exit.
  bool setup_only = false;
  std::string git_rev = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one operation; a false `ok` counts it as failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

double seconds_since(Clock::time_point t0);
/// Linear-interpolated percentile of v, p in [0, 1].
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// 64-bit fingerprints of factorization outputs: bitwise-equal outputs,
/// equal prints. Every output of a CALU call: the factored matrix and the
/// pivots.
std::uint64_t lu_fingerprint(camult::ConstMatrixView lu,
                             const std::vector<idx>& ipiv);
/// Every output of a CAQR call: the factored matrix (R and the leaf
/// reflector tails) and the per-iteration T / tau / tree-node factors.
std::uint64_t qr_fingerprint(camult::ConstMatrixView qr,
                             const camult::core::CaqrResult& f);

/// Serial bounds a reference factorization must meet (scaled residuals,
/// the threshold the library's own tests use).
inline constexpr double kResidualBound = 50.0;
/// Scaled LU residual of `lu`/`ipiv` against `a`.
double lu_check(camult::ConstMatrixView a, camult::ConstMatrixView lu,
                const std::vector<idx>& ipiv);
/// max(caqr_residual, ||I - Q^T Q||) of `qr`/`f` against `a`.
double qr_check(camult::ConstMatrixView a, camult::ConstMatrixView qr,
                const camult::core::CaqrResult& f);

/// Print the host record (nproc, GEMM kernel and blocking, compiler flags,
/// git revision) as one `host: {...}` line.
void print_host(const RunArgs& args);

}  // namespace perfbench
