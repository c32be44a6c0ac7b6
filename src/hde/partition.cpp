#include "hde/partition.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>

#include "linalg/lobpcg.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

// Vertices per block: an adjacency scan per vertex, a few arcs each.
constexpr std::int64_t kVertexGrain = 1024;

/// Splits `ids` (indices into the layout) in half along the wider of the
/// two coordinate axes, recursing until `levels` halvings have been done.
void Bisect(const Layout& layout, std::vector<vid_t>& ids, std::size_t lo,
            std::size_t hi, int levels, int label_base,
            std::vector<int>& labels) {
  if (levels == 0) {
    for (std::size_t i = lo; i < hi; ++i) {
      labels[static_cast<std::size_t>(ids[i])] = label_base;
    }
    return;
  }

  // Pick the axis with the larger spread over this block.
  double min_x = 0, max_x = 0, min_y = 0, max_y = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const auto v = static_cast<std::size_t>(ids[i]);
    if (i == lo) {
      min_x = max_x = layout.x[v];
      min_y = max_y = layout.y[v];
    } else {
      min_x = std::min(min_x, layout.x[v]);
      max_x = std::max(max_x, layout.x[v]);
      min_y = std::min(min_y, layout.y[v]);
      max_y = std::max(max_y, layout.y[v]);
    }
  }
  const bool use_x = (max_x - min_x) >= (max_y - min_y);
  const auto& coord = use_x ? layout.x : layout.y;

  const std::size_t mid = lo + (hi - lo) / 2;
  std::nth_element(ids.begin() + static_cast<std::ptrdiff_t>(lo),
                   ids.begin() + static_cast<std::ptrdiff_t>(mid),
                   ids.begin() + static_cast<std::ptrdiff_t>(hi),
                   [&](vid_t a, vid_t b) {
                     const double ca = coord[static_cast<std::size_t>(a)];
                     const double cb = coord[static_cast<std::size_t>(b)];
                     return ca != cb ? ca < cb : a < b;
                   });

  const int half = 1 << (levels - 1);
  Bisect(layout, ids, lo, mid, levels - 1, label_base, labels);
  Bisect(layout, ids, mid, hi, levels - 1, label_base + half, labels);
}

}  // namespace

std::vector<int> CoordinateBisection(const Layout& layout, int parts) {
  assert(parts >= 1 && (parts & (parts - 1)) == 0);
  const auto n = static_cast<vid_t>(layout.x.size());
  assert(layout.y.size() == layout.x.size());

  int levels = 0;
  while ((1 << levels) < parts) ++levels;

  std::vector<int> labels(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  Bisect(layout, ids, 0, ids.size(), levels, 0, labels);
  return labels;
}

eid_t EdgeCut(const CsrGraph& graph, const std::vector<int>& labels) {
  assert(labels.size() == static_cast<std::size_t>(graph.NumVertices()));
  return ParallelReduce(
      graph.NumVertices(), kVertexGrain, eid_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        eid_t cut = 0;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          for (const vid_t u : graph.Neighbors(v)) {
            if (u > v && labels[static_cast<std::size_t>(u)] !=
                             labels[static_cast<std::size_t>(v)]) {
              ++cut;
            }
          }
        }
        return cut;
      },
      std::plus<>());
}

std::vector<int> SpectralBisection(const CsrGraph& graph) {
  const vid_t n = graph.NumVertices();
  LobpcgOptions options;
  options.block_size = 2;
  options.tolerance = 1e-6;
  options.max_iterations = 2000;
  const LobpcgResult eig = Lobpcg(graph, options);

  // Median split on the Fiedler-like vector gives a balanced bisection.
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const auto fiedler = eig.eigenvectors.Col(0);
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(n / 2),
                   order.end(), [&](vid_t a, vid_t b) {
                     const double fa = fiedler[static_cast<std::size_t>(a)];
                     const double fb = fiedler[static_cast<std::size_t>(b)];
                     return fa != fb ? fa < fb : a < b;
                   });
  std::vector<int> labels(static_cast<std::size_t>(n), 0);
  for (vid_t i = n / 2; i < n; ++i) {
    labels[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
  }
  return labels;
}

std::vector<vid_t> PartSizes(const std::vector<int>& labels, int parts) {
  std::vector<vid_t> sizes(static_cast<std::size_t>(parts), 0);
  for (const int l : labels) {
    assert(l >= 0 && l < parts);
    ++sizes[static_cast<std::size_t>(l)];
  }
  return sizes;
}

}  // namespace parhde
