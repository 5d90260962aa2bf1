// Strong scaling: speedup versus core count P for a fixed tall-skinny
// problem — the quantitative summary behind the paper's Figures 3-4
// (CALU Tr=1's panel bottleneck caps its scaling; Tr=P keeps scaling) and
// the Tr sweeps of Figures 5-7.
#include "bench_common.hpp"

int main() {
  using namespace camult;
  using bench::Table;

  const idx m = bench::env_idx("CAMULT_BENCH_M", 20000);
  const idx n = bench::env_idx("CAMULT_BENCH_N", 500);
  const idx b = std::min<idx>(n, 100);
  std::printf("Strong scaling, LU of %lld x %lld (b = %lld); entries are\n"
              "speedups over each algorithm's own 1-core makespan.\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(b));

  struct Algo {
    const char* name;
    bench::Competitor comp;
  };
  std::vector<Algo> algos;
  algos.push_back({"blk_dgetrf", bench::lu_blocked(b, 16)});
  algos.push_back({"tiledLU", bench::lu_tiled(b)});
  algos.push_back({"CALU Tr=1", bench::lu_calu(b, 1)});
  algos.push_back({"CALU Tr=4", bench::lu_calu(b, 4)});
  algos.push_back({"CALU Tr=16", bench::lu_calu(b, 16)});

  const std::vector<idx> cores = {1, 2, 4, 8, 16, 32};
  std::vector<std::string> headers = {"algorithm"};
  for (idx p : cores) headers.push_back("P=" + std::to_string(p));
  Table t(headers);

  Matrix a = random_matrix(m, n, 4040);
  const double flops = bench::lu_flops(m, n);
  const bool real = bench::real_mode();
  for (const Algo& algo : algos) {
    auto run = [&](int threads) { return algo.comp.run(a, threads); };
    // Simulated mode: one serial record pass, list-scheduled onto every P.
    // Real mode runs the algorithm once per P.
    bench::RunArtifacts recorded;
    if (!real) recorded = run(0);
    std::vector<double> secs;
    for (idx p : cores) {
      const int np = static_cast<int>(p);
      secs.push_back((real ? bench::measure(run, flops, np)
                           : bench::simulate_recorded(recorded, flops, np))
                         .seconds);
    }
    t.row().cell(algo.name);
    for (std::size_t i = 0; i < cores.size(); ++i) {
      t.cell(secs[0] / secs[i]);
    }
  }
  t.print("Strong scaling (speedup vs own 1-core run)",
          bench::csv_path("scaling_cores"));
  bench::JsonReport rep("scaling_cores", static_cast<int>(cores.back()));
  rep.add_table(t);
  rep.write();
  std::printf(
      "\nExpected shape: CALU Tr=1 saturates early (serial panel on the\n"
      "critical path); CALU Tr=P keeps scaling; the tiled pipeline scales\n"
      "until the chain length binds.\n");
  return 0;
}
