#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "blas/gemm.hpp"
#include "lapack/verify.hpp"

namespace perfbench {

namespace {

std::uint64_t fingerprint(const void* data, std::size_t bytes,
                          std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

std::uint64_t fingerprint(camult::ConstMatrixView a, std::uint64_t h) {
  for (idx j = 0; j < a.cols(); ++j) {
    h = fingerprint(a.col_ptr(j), static_cast<std::size_t>(a.rows()) *
                                      sizeof(double), h);
  }
  return h;
}

}  // namespace

int workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t lu_fingerprint(camult::ConstMatrixView lu,
                             const std::vector<idx>& ipiv) {
  const std::uint64_t h = fingerprint(lu, 1);
  return fingerprint(ipiv.data(), ipiv.size() * sizeof(idx), h);
}

std::uint64_t qr_fingerprint(camult::ConstMatrixView qr,
                             const camult::core::CaqrResult& f) {
  std::uint64_t h = fingerprint(qr, 2);
  for (const auto& it : f.iterations) {
    for (const auto& leaf : it.leaves) {
      h = fingerprint(leaf.t.view(), h);
      h = fingerprint(leaf.tau.data(), leaf.tau.size() * sizeof(double), h);
    }
    for (const auto& node : it.nodes) {
      h = fingerprint(node.vt.view(), h);
      h = fingerprint(node.t.view(), h);
      h = fingerprint(node.tri.v2.view(), h);
      h = fingerprint(node.tri.t.view(), h);
    }
  }
  return h;
}

double lu_check(camult::ConstMatrixView a, camult::ConstMatrixView lu,
                const std::vector<idx>& ipiv) {
  return camult::lapack::lu_residual(a, lu, ipiv);
}

double qr_check(camult::ConstMatrixView a, camult::ConstMatrixView qr,
                const camult::core::CaqrResult& f) {
  const double resid = camult::core::caqr_residual(a, qr, f);
  const camult::Matrix q = camult::core::caqr_explicit_q(qr, f);
  const double orth = camult::lapack::orthogonality_residual(q.view());
  return std::max(resid, orth);
}

void print_host(const RunArgs& args) {
  const camult::blas::GemmBlocking blk = camult::blas::gemm_blocking();
  std::printf(
      "host: {\"nproc\": %d, \"gemm_kernel\": \"%s\", \"mc\": %lld, "
      "\"kc\": %lld, \"nc\": %lld, \"mr\": %lld, \"nr\": %lld, "
      "\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"git_rev\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu}\n",
      workers(), camult::blas::active_kernel().name,
      static_cast<long long>(blk.mc), static_cast<long long>(blk.kc),
      static_cast<long long>(blk.nc), static_cast<long long>(blk.mr),
      static_cast<long long>(blk.nr), PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
      args.git_rev.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed));
}

}  // namespace perfbench
