#include "hde/partition_refine.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <vector>

#include "util/parallel.hpp"

namespace parhde {
namespace {

// Vertices per block: an adjacency scan per vertex, a few arcs each.
constexpr std::int64_t kVertexGrain = 1024;

}  // namespace

vid_t BoundarySize(const CsrGraph& graph, const std::vector<int>& labels) {
  return ParallelReduce(
      graph.NumVertices(), kVertexGrain, vid_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        vid_t boundary = 0;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          for (const vid_t u : graph.Neighbors(v)) {
            if (labels[static_cast<std::size_t>(u)] !=
                labels[static_cast<std::size_t>(v)]) {
              ++boundary;
              break;
            }
          }
        }
        return boundary;
      },
      std::plus<>());
}

RefinePartitionResult RefinePartition(const CsrGraph& graph,
                                      std::vector<int>& labels, int parts,
                                      const RefinePartitionOptions& options) {
  const vid_t n = graph.NumVertices();
  assert(labels.size() == static_cast<std::size_t>(n));
  assert(parts >= 1);

  RefinePartitionResult result;
  result.initial_cut = EdgeCut(graph, labels);
  result.initial_boundary = BoundarySize(graph, labels);

  std::vector<vid_t> sizes = PartSizes(labels, parts);
  const auto max_size = static_cast<vid_t>(
      (1.0 + options.balance_tolerance) * static_cast<double>(n) /
          static_cast<double>(parts) +
      1.0);

  std::vector<int> count(static_cast<std::size_t>(parts));
  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++result.passes;
    vid_t moved_this_pass = 0;

    for (vid_t v = 0; v < n; ++v) {
      const int own = labels[static_cast<std::size_t>(v)];
      // Tally neighbor parts; skip interior vertices early.
      std::fill(count.begin(), count.end(), 0);
      bool boundary = false;
      for (const vid_t u : graph.Neighbors(v)) {
        const int lu = labels[static_cast<std::size_t>(u)];
        ++count[static_cast<std::size_t>(lu)];
        if (lu != own) boundary = true;
      }
      if (!boundary) continue;

      // Best admissible target by gain = external links − internal links.
      int best_part = own;
      int best_gain = 0;
      for (int p = 0; p < parts; ++p) {
        if (p == own) continue;
        if (sizes[static_cast<std::size_t>(p)] + 1 > max_size) continue;
        const int gain = count[static_cast<std::size_t>(p)] -
                         count[static_cast<std::size_t>(own)];
        if (gain > best_gain ||
            (gain == best_gain && gain > 0 && p < best_part)) {
          best_gain = gain;
          best_part = p;
        }
      }
      if (best_part != own && best_gain > 0) {
        labels[static_cast<std::size_t>(v)] = best_part;
        --sizes[static_cast<std::size_t>(own)];
        ++sizes[static_cast<std::size_t>(best_part)];
        ++moved_this_pass;
      }
    }

    result.moves += moved_this_pass;
    if (moved_this_pass == 0) break;
  }

  result.final_cut = EdgeCut(graph, labels);
  return result;
}

}  // namespace parhde
