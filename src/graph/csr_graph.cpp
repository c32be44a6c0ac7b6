#include "graph/csr_graph.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace parhde {

CsrGraph::CsrGraph(std::vector<eid_t> offsets, std::vector<vid_t> adj,
                   std::vector<weight_t> weights)
    : offsets_(std::move(offsets)),
      adj_(std::move(adj)),
      weights_(std::move(weights)) {
  const vid_t n = NumVertices();
  weighted_degree_.assign(static_cast<std::size_t>(n), 0.0);
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
      weight_t d = 0.0;
      if (weights_.empty()) {
        d = static_cast<weight_t>(Degree(v));
      } else {
        for (const weight_t w : NeighborWeights(v)) d += w;
      }
      weighted_degree_[static_cast<std::size_t>(v)] = d;
    }
  });
}

bool CsrGraph::HasEdge(vid_t u, vid_t v) const {
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

vid_t CsrGraph::MaxDegree() const {
  return ParallelReduce(
      NumVertices(), kStreamGrain, vid_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        vid_t best = 0;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          best = std::max(best, Degree(v));
        }
        return best;
      },
      [](vid_t a, vid_t b) { return std::max(a, b); });
}

bool CsrGraph::Validate() const {
  const vid_t n = NumVertices();
  if (offsets_.empty() || offsets_.front() != 0) return false;
  if (offsets_.back() != static_cast<eid_t>(adj_.size())) return false;
  if (!weights_.empty() && weights_.size() != adj_.size()) return false;
  if ((adj_.size() % 2) != 0) return false;

  for (vid_t v = 0; v < n; ++v) {
    if (offsets_[static_cast<std::size_t>(v)] >
        offsets_[static_cast<std::size_t>(v) + 1]) {
      return false;
    }
    const auto nbrs = Neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t u = nbrs[i];
      if (u < 0 || u >= n) return false;
      if (u == v) return false;                        // self loop
      if (i > 0 && nbrs[i] <= nbrs[i - 1]) return false;  // unsorted/parallel
      if (!HasEdge(u, v)) return false;                // asymmetric
    }
  }
  if (!weights_.empty()) {
    // Weight symmetry: weight of (u,v) equals weight of (v,u).
    for (vid_t v = 0; v < n; ++v) {
      const auto nbrs = Neighbors(v);
      const auto wts = NeighborWeights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const vid_t u = nbrs[i];
        const auto back = Neighbors(u);
        const auto it = std::lower_bound(back.begin(), back.end(), v);
        const auto j = static_cast<std::size_t>(it - back.begin());
        if (NeighborWeights(u)[j] != wts[i]) return false;
        if (wts[i] < 0) return false;  // weights are similarities, >= 0
      }
    }
  }
  return true;
}

EdgeList CsrGraph::ToEdgeList() const {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(NumEdges()));
  const vid_t n = NumVertices();
  for (vid_t v = 0; v < n; ++v) {
    const auto nbrs = Neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (v < nbrs[i]) {
        edges.push_back(
            {v, nbrs[i], weights_.empty() ? 1.0 : NeighborWeights(v)[i]});
      }
    }
  }
  return edges;
}

}  // namespace parhde
