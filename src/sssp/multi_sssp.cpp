#include "sssp/multi_sssp.hpp"

#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/parallel.hpp"

namespace parhde {

namespace {

/// Hard cap on the serial bucket array. At the default Δ (average edge
/// weight) a search only approaches the cap when its distance range spans
/// ~64k average weights; beyond it, entries pool in the last bucket, which
/// is settled by the reinsertion loop (correct for any distance range,
/// just no longer bucket-ordered within that tail).
constexpr std::size_t kSerialBucketCap = std::size_t{1} << 16;

std::size_t SerialBucketOf(weight_t d, weight_t inv_delta) {
  const weight_t b = d * inv_delta;
  return b >= static_cast<weight_t>(kSerialBucketCap - 1)
             ? kSerialBucketCap - 1
             : static_cast<std::size_t>(b);
}

struct SerialSsspStats {
  std::int64_t searches = 0;
  std::int64_t settled = 0;
  std::int64_t edges_scanned = 0;
};

/// One fully sequential Δ-stepping search: the per-thread kernel of the
/// concurrent engine. No atomics, no barriers, no shared state — a thread
/// owns the whole search, so buckets can grow on demand and the classic
/// settle-with-reinsertion loop applies unchanged. Beats a binary-heap
/// Dijkstra on the mesh/road graphs the weighted phase targets (bucket
/// pushes are O(1) and cache-friendly; heap pops are log n and not).
/// `buckets` and `dist` are scratch reused across a thread's searches.
/// Returns false when `cancel` was observed set (deadline expired in some
/// thread) — the search is abandoned mid-flight and its column is garbage;
/// the driver throws after the region joins.
bool SerialDeltaStepping(const CsrGraph& graph, vid_t source, weight_t delta,
                         std::vector<std::vector<vid_t>>& buckets,
                         std::vector<weight_t>& dist, SerialSsspStats& stats,
                         std::atomic<bool>& cancel) {
  const vid_t n = graph.NumVertices();
  const weight_t inv_delta = 1.0 / delta;
  const bool weighted = graph.HasWeights();
  dist.assign(static_cast<std::size_t>(n), kInfWeight);
  dist[static_cast<std::size_t>(source)] = 0.0;
  if (buckets.empty()) buckets.resize(1);
  buckets[0].push_back(source);

  std::vector<vid_t> frontier;
  for (std::size_t curr = 0; curr < buckets.size(); ++curr) {
    // Settle bucket `curr`: light-edge relaxations may re-insert into the
    // current bucket, so drain until it stays empty.
    while (!buckets[curr].empty()) {
      // Drain-round granularity: cheap next to emptying a bucket, frequent
      // enough to stop a runaway search within one round. Threads poll the
      // deadline independently but rendezvous on the shared flag, and the
      // throw happens outside the parallel region.
      PARHDE_FAULT_STALL("multisssp:stall");
      if (cancel.load(std::memory_order_relaxed) || resilience::DeadlinePoll()) {
        cancel.store(true, std::memory_order_relaxed);
        for (auto& bucket : buckets) bucket.clear();  // scratch is reused
        return false;
      }
      frontier.clear();
      std::swap(frontier, buckets[curr]);
      for (const vid_t v : frontier) {
        const weight_t dv = dist[static_cast<std::size_t>(v)];
        if (SerialBucketOf(dv, inv_delta) != curr) continue;  // stale
        const auto nbrs = graph.Neighbors(v);
        ++stats.settled;
        stats.edges_scanned += static_cast<std::int64_t>(nbrs.size());
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const vid_t u = nbrs[i];
          const weight_t w = weighted ? graph.NeighborWeights(v)[i] : 1.0;
          const weight_t nd = dv + w;
          if (nd < dist[static_cast<std::size_t>(u)]) {
            dist[static_cast<std::size_t>(u)] = nd;
            const std::size_t b = SerialBucketOf(nd, inv_delta);
            if (b >= buckets.size()) buckets.resize(b + 1);
            buckets[b].push_back(u);
          }
        }
      }
    }
  }
  for (auto& bucket : buckets) bucket.clear();
  return true;
}

}  // namespace

void ConcurrentSsspToColumns(const CsrGraph& graph,
                             const std::vector<vid_t>& sources, DenseMatrix& B,
                             std::size_t first_col, weight_t delta,
                             weight_t max_weight, MultiSsspStats* stats) {
  PARHDE_TRACE_SPAN("sssp.concurrent_serial");
  const vid_t n = graph.NumVertices();
  const auto count = static_cast<int>(sources.size());
  if (delta <= 0.0) delta = DefaultDelta(graph);
  std::atomic<bool> cancel{false};

  // One search per block; the stats fold in source order.
  const SerialSsspStats total = ParallelReduce(
      count, 1, SerialSsspStats{},
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::vector<vid_t>> buckets;
        std::vector<weight_t> dist;
        SerialSsspStats ss;
        for (std::int64_t i = lo; i < hi; ++i) {
          if (!SerialDeltaStepping(graph, sources[static_cast<std::size_t>(i)],
                                   delta, buckets, dist, ss, cancel)) {
            continue;  // cancelled: skip the column write, throw after
          }
          ++ss.searches;

          auto column = B.Col(first_col + static_cast<std::size_t>(i));
          weight_t max_finite = 0.0;
          for (vid_t v = 0; v < n; ++v) {
            const weight_t d = dist[static_cast<std::size_t>(v)];
            if (std::isfinite(d)) max_finite = std::max(max_finite, d);
          }
          const weight_t sentinel =
              WeightedUnreachableSentinel(max_finite, max_weight, n);
          for (vid_t v = 0; v < n; ++v) {
            const weight_t d = dist[static_cast<std::size_t>(v)];
            column[static_cast<std::size_t>(v)] =
                std::isfinite(d) ? d : sentinel;
          }
        }
        return ss;
      },
      [](SerialSsspStats a, SerialSsspStats b) {
        return SerialSsspStats{a.searches + b.searches, a.settled + b.settled,
                               a.edges_scanned + b.edges_scanned};
      });

  // Flush aggregate work counters once per driver call — never per edge.
  obs::CounterAdd(obs::Counter::kSsspSequentialSearches, total.searches);
  obs::CounterAdd(obs::Counter::kSsspRelaxations, total.edges_scanned);
  if (cancel.load(std::memory_order_relaxed)) {
    resilience::ThrowDeadlineExceeded("SSSP");
  }
  if (stats) {
    stats->searches += total.searches;
    stats->settled += total.settled;
    stats->edges_scanned += total.edges_scanned;
  }
}

}  // namespace parhde
