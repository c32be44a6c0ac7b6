#include "graph/gap_stats.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace parhde {
namespace {

// Vertices per block: an adjacency scan per vertex, a few arcs each.
constexpr std::int64_t kVertexGrain = 1024;

}  // namespace

FibonacciBinner ComputeGapHistogram(const CsrGraph& graph) {
  const vid_t n = graph.NumVertices();
  FibonacciBinner binner(std::max<vid_t>(n, 1));
  // Per-block histograms folded in block order keep Add() contention-free.
  const auto nbins = static_cast<std::size_t>(binner.NumBins());
  const std::vector<std::int64_t> counts = ParallelReduce(
      n, kVertexGrain, std::vector<std::int64_t>(nbins, 0),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::int64_t> local(nbins, 0);
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          const auto nbrs = graph.Neighbors(v);
          for (std::size_t i = 1; i < nbrs.size(); ++i) {
            const std::int64_t gap = nbrs[i] - nbrs[i - 1];
            ++local[static_cast<std::size_t>(binner.BinIndex(gap))];
          }
        }
        return local;
      },
      [](std::vector<std::int64_t> acc, std::vector<std::int64_t> block) {
        for (std::size_t b = 0; b < acc.size(); ++b) acc[b] += block[b];
        return acc;
      });
  for (std::size_t b = 0; b < nbins; ++b) {
    if (counts[b] != 0) {
      binner.Add(binner.UpperBound(static_cast<int>(b)) - 1, counts[b]);
    }
  }
  return binner;
}

GapSummary ComputeGapSummary(const CsrGraph& graph) {
  struct Totals {
    std::int64_t total = 0;
    std::int64_t count = 0;
    std::int64_t max_gap = 0;
    std::int64_t cached = 0;
  };
  const Totals t = ParallelReduce(
      graph.NumVertices(), kVertexGrain, Totals{},
      [&](std::int64_t lo, std::int64_t hi) {
        Totals local;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          const auto nbrs = graph.Neighbors(v);
          for (std::size_t i = 1; i < nbrs.size(); ++i) {
            const std::int64_t gap = nbrs[i] - nbrs[i - 1];
            local.total += gap;
            ++local.count;
            local.max_gap = std::max(local.max_gap, gap);
            if (gap <= 16) ++local.cached;
          }
        }
        return local;
      },
      [](Totals a, Totals b) {
        return Totals{a.total + b.total, a.count + b.count,
                      std::max(a.max_gap, b.max_gap), a.cached + b.cached};
      });
  GapSummary summary;
  summary.total_gaps = t.count;
  summary.mean_gap = t.count > 0 ? static_cast<double>(t.total) /
                                       static_cast<double>(t.count)
                                 : 0.0;
  summary.max_gap = t.max_gap;
  summary.cache_line_fraction =
      t.count > 0 ? static_cast<double>(t.cached) / static_cast<double>(t.count)
                  : 0.0;
  return summary;
}

}  // namespace parhde
