#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Edges per block of the counting and scatter passes.
constexpr std::int64_t kEdgeGrain = std::int64_t{1} << 14;
/// Arcs per vertex range of the sort and compaction passes.
constexpr eid_t kArcGrain = eid_t{1} << 14;

/// Merges the weights of a run of duplicate arcs.
weight_t MergeWeights(BuildOptions::MergePolicy policy, weight_t acc,
                      weight_t next) {
  switch (policy) {
    case BuildOptions::MergePolicy::Sum:
      return acc + next;
    case BuildOptions::MergePolicy::Min:
      return std::min(acc, next);
    case BuildOptions::MergePolicy::Max:
      return std::max(acc, next);
  }
  return acc;
}

/// Cuts [0, n) into vertex ranges holding about kArcGrain arcs each (a
/// vertex is never split), so skewed degrees do not skew the ranges and a
/// graph with few arcs stays on one thread. Returns the range starts plus n.
std::vector<vid_t> ArcBalancedRanges(const std::vector<eid_t>& offsets) {
  const auto n = static_cast<vid_t>(offsets.size() - 1);
  std::vector<vid_t> bounds{0};
  for (eid_t target = kArcGrain; target < offsets.back(); target += kArcGrain) {
    const auto v = static_cast<vid_t>(
        std::lower_bound(offsets.begin(), offsets.end(), target) -
        offsets.begin());
    if (v > bounds.back() && v < n) bounds.push_back(v);
  }
  bounds.push_back(n);
  return bounds;
}

/// body(v) for every vertex, over the ranges from ArcBalancedRanges. The
/// ranges are handed out dynamically: how long a list takes to sort depends
/// on the order the scatter left it in, which no static split can predict.
template <class Body>
void ForEachVertexByArcs(const std::vector<vid_t>& ranges, Body&& body) {
  ParallelForDynamic(static_cast<std::int64_t>(ranges.size() - 1), 1,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (vid_t v = ranges[static_cast<std::size_t>(lo)];
                            v < ranges[static_cast<std::size_t>(hi)]; ++v) {
                         body(v);
                       }
                     });
}

}  // namespace

CsrGraph BuildCsrGraph(vid_t n, const EdgeList& edges,
                       const BuildOptions& opts) {
  assert(n >= 0);
  const auto nedges = static_cast<std::int64_t>(edges.size());

  // Pass 1: count arcs per vertex (both directions, self loops skipped).
  std::vector<eid_t> counts(static_cast<std::size_t>(n), 0);
  ParallelFor(nedges, kEdgeGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const Edge& e = edges[static_cast<std::size_t>(i)];
      assert(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n);
      if (e.u == e.v) continue;
      std::atomic_ref(counts[static_cast<std::size_t>(e.u)])
          .fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref(counts[static_cast<std::size_t>(e.v)])
          .fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<eid_t> offsets;
  ExclusivePrefixSum(counts, offsets);
  const auto narcs = static_cast<std::size_t>(offsets.back());

  // Pass 2: scatter arcs using per-vertex atomic cursors. Arcs land in
  // arrival order; pass 3's sort makes the result independent of it.
  std::vector<vid_t> adj(narcs);
  std::vector<weight_t> wts(opts.keep_weights ? narcs : 0);
  {
    std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
    ParallelFor(nedges, kEdgeGrain, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const Edge& e = edges[static_cast<std::size_t>(i)];
        if (e.u == e.v) continue;
        const auto pu = static_cast<std::size_t>(
            std::atomic_ref(cursor[static_cast<std::size_t>(e.u)])
                .fetch_add(1, std::memory_order_relaxed));
        const auto pv = static_cast<std::size_t>(
            std::atomic_ref(cursor[static_cast<std::size_t>(e.v)])
                .fetch_add(1, std::memory_order_relaxed));
        adj[pu] = e.v;
        adj[pv] = e.u;
        if (opts.keep_weights) {
          wts[pu] = e.w;
          wts[pv] = e.w;
        }
      }
    });
  }

  // Pass 3: sort each adjacency list and merge duplicates, compacting the
  // arrays in place. New per-vertex lengths are gathered, then a second
  // prefix sum produces the final offsets. Weighted lists sort (neighbor,
  // weight) pairs lexicographically, so duplicates merge in weight order
  // whatever order the scatter left them in.
  const std::vector<vid_t> ranges = ArcBalancedRanges(offsets);
  std::vector<eid_t> new_counts(static_cast<std::size_t>(n), 0);
  ForEachVertexByArcs(ranges, [&](vid_t v) {
    const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto hi =
        static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    if (lo == hi) return;
    if (opts.keep_weights) {
      std::vector<std::pair<vid_t, weight_t>> entries;
      entries.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) entries.emplace_back(adj[i], wts[i]);
      std::sort(entries.begin(), entries.end());
      std::size_t out = lo;
      for (std::size_t i = 0; i < entries.size();) {
        vid_t nb = entries[i].first;
        weight_t w = entries[i].second;
        std::size_t j = i + 1;
        while (j < entries.size() && entries[j].first == nb) {
          w = MergeWeights(opts.merge, w, entries[j].second);
          ++j;
        }
        adj[out] = nb;
        wts[out] = w;
        ++out;
        i = j;
      }
      new_counts[static_cast<std::size_t>(v)] = static_cast<eid_t>(out - lo);
    } else {
      std::sort(adj.begin() + static_cast<std::ptrdiff_t>(lo),
                adj.begin() + static_cast<std::ptrdiff_t>(hi));
      const auto end = std::unique(adj.begin() + static_cast<std::ptrdiff_t>(lo),
                                   adj.begin() + static_cast<std::ptrdiff_t>(hi));
      new_counts[static_cast<std::size_t>(v)] = static_cast<eid_t>(
          end - (adj.begin() + static_cast<std::ptrdiff_t>(lo)));
    }
  });

  std::vector<eid_t> final_offsets;
  ExclusivePrefixSum(new_counts, final_offsets);
  const auto final_arcs = static_cast<std::size_t>(final_offsets.back());

  std::vector<vid_t> final_adj(final_arcs);
  std::vector<weight_t> final_wts(opts.keep_weights ? final_arcs : 0);
  ForEachVertexByArcs(ranges, [&](vid_t v) {
    const auto src = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto dst =
        static_cast<std::size_t>(final_offsets[static_cast<std::size_t>(v)]);
    const auto len =
        static_cast<std::size_t>(new_counts[static_cast<std::size_t>(v)]);
    std::copy_n(adj.begin() + static_cast<std::ptrdiff_t>(src), len,
                final_adj.begin() + static_cast<std::ptrdiff_t>(dst));
    if (opts.keep_weights) {
      std::copy_n(wts.begin() + static_cast<std::ptrdiff_t>(src), len,
                  final_wts.begin() + static_cast<std::ptrdiff_t>(dst));
    }
  });

  return CsrGraph(std::move(final_offsets), std::move(final_adj),
                  std::move(final_wts));
}

}  // namespace parhde
