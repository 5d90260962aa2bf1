// Kernel microbenchmarks (google-benchmark): the sequential building blocks
// whose relative speeds drive every result in the paper — BLAS-3 gemm/trsm,
// the compact-WY update larfb, and the four panel kernels (BLAS2 getf2/geqr2
// vs recursive rgetf2/geqr3). The "CA algorithms use the best sequential
// kernel" claim (Section II) is visible here as rgetf2/geqr3 beating their
// BLAS2 counterparts on tall panels.
#include <benchmark/benchmark.h>

#include "bench_support/flops.hpp"
#include "blas/blas.hpp"
#include "core/tslu.hpp"
#include "lapack/lapack.hpp"
#include "matrix/random.hpp"

namespace {

using namespace camult;

void BM_gemm(benchmark::State& state) {
  const idx n = state.range(0);
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  Matrix c = Matrix::zeros(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, 1.0, a, b, 0.0,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_gemm_panel_shape(benchmark::State& state) {
  // The CALU update shape: (m x b) * (b x b).
  const idx m = state.range(0), b = 100;
  Matrix l = random_matrix(m, b, 3);
  Matrix u = random_matrix(b, b, 4);
  Matrix c = random_matrix(m, b, 5);
  for (auto _ : state) {
    blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0, l, u, 1.0,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_panel_shape)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_trsm(benchmark::State& state) {
  // CALU L-task shape: X * U_KK = B for an n x b block of a leaf.
  const idx n = state.range(0), b = state.range(1);
  Matrix a = random_matrix(b, b, 6);
  for (idx i = 0; i < b; ++i) a(i, i) += 4.0;
  Matrix rhs = random_matrix(n, b, 7);
  Matrix w(n, b);
  for (auto _ : state) {
    state.PauseTiming();
    copy_into(rhs.view(), w.view());
    state.ResumeTiming();
    blas::trsm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
               blas::Diag::NonUnit, 1.0, a, w.view());
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(n) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
// {rows, b}: square-ish trailing shapes, then the tall_skinny workload's
// L task (a 25000-row leaf of a b = 50 panel).
BENCHMARK(BM_trsm)->Args({1000, 100})->Args({4000, 100})->Args({25000, 50});

template <int Kernel>  // 0 = gemm_inner, 1 = gemm_packed with B pre-packed
void BM_gram(benchmark::State& state) {
  // The Gram-shaped product of larfb/geqr3: C (m x n) += A^T B, with A
  // (k x m) and B (k x n) column-major and k long.
  const idx m = state.range(0), n = state.range(1), k = state.range(2);
  Matrix a = random_matrix(k, m, 13);
  Matrix b = random_matrix(k, n, 14);
  Matrix c = Matrix::zeros(m, n);
  blas::PackedPanel bp;
  if constexpr (Kernel == 1) bp = blas::pack_b(b, blas::Trans::NoTrans);
  for (auto _ : state) {
    if constexpr (Kernel == 0) {
      blas::gemm_inner(1.0, a, b, c.view());
    } else {
      blas::gemm_packed(blas::Trans::Trans, 1.0, a, bp, 1.0, c.view());
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * n * k * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
// {m, n, k}: a 25000 x 50 TSQR leaf's top-level W and T12 shapes, then a
// square workload's b = 100 reflector, where gemm_packed stays ahead.
BENCHMARK_TEMPLATE(BM_gram, 0)->Name("BM_gemm_inner")
    ->Args({50, 50, 25000})->Args({25, 25, 25000})->Args({100, 100, 1900});
BENCHMARK_TEMPLATE(BM_gram, 1)->Name("BM_gemm_packed_tn")
    ->Args({50, 50, 25000})->Args({25, 25, 25000})->Args({100, 100, 1900});

void BM_larfb(benchmark::State& state) {
  // CAQR leaf update shape: block reflector (m x b) applied to (m x b).
  const idx m = state.range(0), b = state.range(1);
  Matrix v = random_matrix(m, b, 8);
  std::vector<double> tau;
  Matrix t = Matrix::zeros(b, b);
  lapack::geqr3(v.view(), tau, t.view());
  Matrix c = random_matrix(m, b, 9);
  for (auto _ : state) {
    lapack::larfb_left(blas::Trans::Trans, v, t.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      4.0 * static_cast<double>(m) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
// {m, b}: square-workload reflectors, then the tall_skinny leaf (b = 50).
BENCHMARK(BM_larfb)->Args({1000, 100})->Args({4000, 100})->Args({25000, 50});

void BM_geqr3_leaf(benchmark::State& state) {
  // One TSQR leaf: tall_skinny's 25000 x 50 and square's 500 x 100.
  const idx m = state.range(0), b = state.range(1);
  Matrix a = random_matrix(m, b, 15);
  Matrix w(m, b);
  Matrix t = Matrix::zeros(b, b);
  std::vector<double> tau;
  for (auto _ : state) {
    state.PauseTiming();
    copy_into(a.view(), w.view());
    state.ResumeTiming();
    lapack::geqr3(w.view(), tau, t.view());
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::qr_flops(m, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_geqr3_leaf)->Args({25000, 50})->Args({500, 100});

template <int Kernel>  // 0 = getf2, 1 = rgetf2
void BM_lu_panel(benchmark::State& state) {
  const idx m = state.range(0), b = 100;
  Matrix a = random_matrix(m, b, 10);
  for (auto _ : state) {
    Matrix w = a;
    PivotVector ipiv;
    if constexpr (Kernel == 0) {
      lapack::getf2(w.view(), ipiv);
    } else {
      lapack::rgetf2(w.view(), ipiv);
    }
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::lu_flops(m, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_TEMPLATE(BM_lu_panel, 0)->Name("BM_getf2_panel")->Arg(2000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_lu_panel, 1)->Name("BM_rgetf2_panel")->Arg(2000)->Arg(10000);

template <int Kernel>  // 0 = geqr2, 1 = geqr3
void BM_qr_panel(benchmark::State& state) {
  const idx m = state.range(0), b = 100;
  Matrix a = random_matrix(m, b, 11);
  for (auto _ : state) {
    Matrix w = a;
    std::vector<double> tau;
    if constexpr (Kernel == 0) {
      lapack::geqr2(w.view(), tau);
    } else {
      Matrix t = Matrix::zeros(b, b);
      lapack::geqr3(w.view(), tau, t.view());
    }
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::qr_flops(m, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_TEMPLATE(BM_qr_panel, 0)->Name("BM_geqr2_panel")->Arg(2000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_qr_panel, 1)->Name("BM_geqr3_panel")->Arg(2000)->Arg(10000);

void BM_tslu_panel(benchmark::State& state) {
  const idx m = state.range(0), b = 100;
  Matrix a = random_matrix(m, b, 12);
  for (auto _ : state) {
    Matrix w = a;
    PivotVector ipiv;
    core::TsluOptions o;
    o.tr = 8;
    camult::core::tslu_factor(w.view(), ipiv, o);
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::lu_flops(m, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_tslu_panel)->Arg(2000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
