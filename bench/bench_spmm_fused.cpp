// §4.4 SpMM comparison: ParHDE's fused L·S kernel (degree array, no
// materialized Laplacian) vs the explicit-Laplacian generic SpMM that
// stands in for MKL's mkl_sparse_d_mm. The paper reports the fused kernel
// 2.50x faster on average, with MKL's matrix allocation untimed on top.
#include <cstdio>

#include "bench_common.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ordering.hpp"
#include "linalg/laplacian_ops.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  parhde::bench::InitBench(&argc, argv);
  using namespace parhde;
  using namespace parhde::bench;

  std::printf("== Sec 4.4: fused LS vs explicit-Laplacian SpMM (s=10) ==\n");
  TextTable table({"Graph", "Fused (s)", "Explicit (s)", "Alloc (s)",
                   "Fused speedup"});

  const auto suite = LargeSuite();
  double total_ratio = 0.0;
  int count = 0;
  for (const auto& ng : suite) {
    const auto n = static_cast<std::size_t>(ng.graph.NumVertices());
    DenseMatrix S(n, 10);
    for (std::size_t c = 0; c < S.Cols(); ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        S.At(r, c) = static_cast<double>((r * (c + 1)) % 17) / 17.0;
      }
    }
    DenseMatrix P(n, S.Cols());

    const double fused = TimeSeconds(
        [&] { LaplacianTimesMatrixFused(ng.graph, S, P); });

    ExplicitLaplacian L;
    const double alloc =
        TimeSeconds([&] { L = BuildExplicitLaplacian(ng.graph); });
    const double explicit_time =
        TimeSeconds([&] { LaplacianTimesMatrixExplicit(L, S, P); });

    total_ratio += explicit_time / fused;
    ++count;
    table.AddRow({ng.name, TextTable::Num(fused, 4),
                  TextTable::Num(explicit_time, 4), TextTable::Num(alloc, 4),
                  TextTable::Num(explicit_time / fused, 2) + "x"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("average fused speedup: %.2fx (paper: 2.50x vs MKL, allocation "
              "untimed)\n", total_ratio / count);

  // Column-blocked kernel: CB columns share one CSR traversal, with the
  // block packed into a vertex-contiguous tile so each edge gather reads
  // CB consecutive doubles. Swept at s=64 (the Fig. 5 "s >> 10" regime) on
  // graphs one scale up from the timing suite: the per-column kernel's
  // advantage is a single L2-resident column, so the columns must outgrow
  // L2 (n > 256Ki vertices) before blocking's traffic savings surface —
  // the paper's billion-edge regime in miniature. The grid appears twice:
  // row-major vertex ids (gathers are near-sequential, both kernels
  // stream) and shuffled ids (the locality-hostile ordering road networks
  // actually ship with before any RCM pass).
  std::printf("\n-- column-blocked vs per-column fused kernel (s=64) --\n");
  std::vector<NamedGraph> blocked_suite;
  blocked_suite.push_back(
      {"kron19", "kron27",
       BuildCsrGraph(vid_t{1} << 19, GenKronecker(19, 8, 42))});
  blocked_suite.push_back(
      {"grid1000", "road_usa", BuildCsrGraph(1000000, GenGrid2d(1000, 1000))});
  blocked_suite.push_back(
      {"grid1000-shuf", "road_usa (shuffled)",
       ApplyPermutation(blocked_suite.back().graph,
                        RandomPermutation(1000000, 7))});
  const std::size_t s64 = 64;
  for (const NamedGraph& ng : blocked_suite) {
    const auto nv = static_cast<std::size_t>(ng.graph.NumVertices());
    DenseMatrix S(nv, s64), P(nv, s64);
    for (std::size_t c = 0; c < s64; ++c) {
      for (std::size_t r = 0; r < nv; ++r) {
        S.At(r, c) = static_cast<double>((r + 5 * c) % 29) / 29.0;
      }
    }
    const double per_column = MinTimeSeconds(
        3, [&] { LaplacianTimesMatrixFused(ng.graph, S, P); });

    TextTable blocked_table(
        {"Block", "Time (s)", "Edge loads/col", "Speedup vs per-col"});
    blocked_table.AddRow({"per-col", TextTable::Num(per_column, 4), "1.00",
                          "1.00x"});
    PhaseTimings timings;
    timings.Add("SpMM:PerColumn", per_column);
    for (const int cb : {4, 8, 16}) {
      const double t = MinTimeSeconds(
          3, [&] { LaplacianTimesMatrixBlocked(ng.graph, S, P, cb); });
      blocked_table.AddRow(
          {"CB=" + std::to_string(cb), TextTable::Num(t, 4),
           TextTable::Num(1.0 / cb, 2), TextTable::Num(per_column / t, 2) +
           "x"});
      timings.Add("SpMM:CB" + std::to_string(cb), t);
    }
    std::printf("%s (s=64)\n%s\n", ng.name.c_str(),
                blocked_table.Render().c_str());
    WriteBenchReport("dense_kernels_spmm", ng.name, timings, timings.Total(),
                     ng.graph.NumVertices(), ng.graph.NumEdges());
  }
  std::printf("each CSR edge is loaded once per 64/CB column blocks; the\n"
              "blocked kernel converts the per-column kernel's s edge\n"
              "sweeps into ceil(s/CB) sweeps with CB-wide register tiles.\n");
  return 0;
}
