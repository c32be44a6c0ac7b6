#include "graph/components.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Disjoint-set union with path halving and union by smaller-root, so the
/// final root of each set is the smallest vertex id it contains.
class Dsu {
 public:
  explicit Dsu(vid_t n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  vid_t Find(vid_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void Union(vid_t a, vid_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (a < b) {
      parent_[static_cast<std::size_t>(b)] = a;
    } else {
      parent_[static_cast<std::size_t>(a)] = b;
    }
  }

 private:
  std::vector<vid_t> parent_;
};

}  // namespace

std::vector<vid_t> ConnectedComponents(const CsrGraph& graph) {
  const vid_t n = graph.NumVertices();
  Dsu dsu(n);
  for (vid_t v = 0; v < n; ++v) {
    for (const vid_t u : graph.Neighbors(v)) {
      if (u > v) dsu.Union(v, u);
    }
  }
  std::vector<vid_t> labels(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) labels[static_cast<std::size_t>(v)] = dsu.Find(v);
  return labels;
}

vid_t CountComponents(const std::vector<vid_t>& labels) {
  vid_t count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == static_cast<vid_t>(v)) ++count;
  }
  return count;
}

ComponentExtraction ExtractComponent(const CsrGraph& graph,
                                     const std::vector<vid_t>& labels,
                                     vid_t label) {
  const vid_t n = graph.NumVertices();

  ComponentExtraction result;
  result.old_to_new.assign(static_cast<std::size_t>(n), kInvalidVid);
  vid_t next = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (labels[static_cast<std::size_t>(v)] == label) {
      result.old_to_new[static_cast<std::size_t>(v)] = next++;
      result.new_to_old.push_back(v);
    }
  }

  // The input CSR is sorted, deduplicated and loop-free, and the renumbering
  // is monotone, so filtering each kept vertex's list in place yields the
  // CSR of the induced subgraph directly: count the kept neighbors, then
  // prefix-sum and fill. Cross-label neighbors are dropped (the caller's
  // labels need not be component-closed).
  const auto& old_to_new = result.old_to_new;
  const auto& new_to_old = result.new_to_old;
  std::vector<eid_t> counts(static_cast<std::size_t>(next));
  ParallelFor(next, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t nv = lo; nv < hi; ++nv) {
      eid_t kept = 0;
      for (const vid_t u :
           graph.Neighbors(new_to_old[static_cast<std::size_t>(nv)])) {
        kept += old_to_new[static_cast<std::size_t>(u)] != kInvalidVid;
      }
      counts[static_cast<std::size_t>(nv)] = kept;
    }
  });
  std::vector<eid_t> offsets;
  ExclusivePrefixSum(counts, offsets);

  const bool weighted = graph.HasWeights();
  const auto arcs = static_cast<std::size_t>(offsets.back());
  std::vector<vid_t> adj(arcs);
  std::vector<weight_t> wts(weighted ? arcs : 0);
  ParallelFor(next, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t nv = lo; nv < hi; ++nv) {
      const vid_t v = new_to_old[static_cast<std::size_t>(nv)];
      const auto nbrs = graph.Neighbors(v);
      auto out = static_cast<std::size_t>(offsets[static_cast<std::size_t>(nv)]);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const vid_t nu = old_to_new[static_cast<std::size_t>(nbrs[i])];
        if (nu == kInvalidVid) continue;
        adj[out] = nu;
        if (weighted) wts[out] = graph.NeighborWeights(v)[i];
        ++out;
      }
    }
  });
  result.graph = CsrGraph(std::move(offsets), std::move(adj), std::move(wts));
  return result;
}

ComponentExtraction LargestComponent(const CsrGraph& graph) {
  const std::vector<vid_t> labels = ConnectedComponents(graph);

  // Pick the label with the most members; ties go to the smaller label
  // (which, by canonical labeling, is also the older component).
  std::unordered_map<vid_t, vid_t> sizes;
  for (const vid_t l : labels) ++sizes[l];
  vid_t best_label = kInvalidVid;
  vid_t best_size = 0;
  for (const auto& [label, size] : sizes) {
    if (size > best_size || (size == best_size && label < best_label)) {
      best_label = label;
      best_size = size;
    }
  }

  return ExtractComponent(graph, labels, best_label);
}

bool IsConnected(const CsrGraph& graph) {
  if (graph.NumVertices() == 0) return true;
  const std::vector<vid_t> labels = ConnectedComponents(graph);
  return CountComponents(labels) == 1;
}

}  // namespace parhde
