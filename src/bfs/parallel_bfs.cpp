#include "bfs/parallel_bfs.hpp"

#include <atomic>
#include <cassert>
#include <functional>

#include "bfs/frontier.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Frontier vertices per block of a top-down step: a frontier of a few
/// hundred vertices with long adjacency lists is already worth a team.
constexpr std::int64_t kTopDownGrain = 64;

/// Vertices per block of a bottom-up step.
constexpr std::int64_t kBottomUpGrain = 1024;

/// Top-down step: expand the frontier queue, claiming vertices via CAS on
/// the parent array. The claiming thread alone writes dist[u], so distances
/// need no atomics (the paper's modification of GAP).
/// Returns the number of arcs examined.
std::int64_t TopDownStep(const CsrGraph& graph, FrontierQueue& frontier,
                         std::vector<std::atomic<vid_t>>& parent,
                         std::vector<dist_t>& dist, dist_t next_level) {
  const auto& current = frontier.Vertices();
  const std::int64_t examined = ParallelReduce(
      frontier.Size(), kTopDownGrain, std::int64_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        FrontierStage staged(frontier);
        std::int64_t arcs = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          const vid_t v = current[static_cast<std::size_t>(i)];
          for (const vid_t u : graph.Neighbors(v)) {
            ++arcs;
            auto& pu = parent[static_cast<std::size_t>(u)];
            vid_t expected = kInvalidVid;
            if (pu.load(std::memory_order_relaxed) == kInvalidVid &&
                pu.compare_exchange_strong(expected, v,
                                           std::memory_order_relaxed)) {
              dist[static_cast<std::size_t>(u)] = next_level;
              staged.Push(u);
            }
          }
        }
        return arcs;
      },
      std::plus<>());
  frontier.Advance();
  return examined;
}

/// Arcs examined and vertices reached by one bottom-up step.
struct BottomUpCounts {
  std::int64_t examined = 0;
  std::int64_t awake = 0;
};

/// Bottom-up step: every unvisited vertex scans its adjacency for a parent
/// in the current frontier bitmap. Each u has exactly one writer, so parent
/// and dist writes are unsynchronized. Returns arcs examined; sets
/// `next` bits for newly reached vertices.
std::int64_t BottomUpStep(const CsrGraph& graph, const Bitmap& front,
                          Bitmap& next,
                          std::vector<std::atomic<vid_t>>& parent,
                          std::vector<dist_t>& dist, dist_t next_level,
                          std::int64_t& awake_count) {
  const BottomUpCounts counts = ParallelReduce(
      graph.NumVertices(), kBottomUpGrain, BottomUpCounts{},
      [&](std::int64_t lo, std::int64_t hi) {
        BottomUpCounts local;
        for (auto u = static_cast<vid_t>(lo); u < hi; ++u) {
          auto& pu = parent[static_cast<std::size_t>(u)];
          if (pu.load(std::memory_order_relaxed) != kInvalidVid) continue;
          if (dist[static_cast<std::size_t>(u)] != kInfDist) continue;  // source
          for (const vid_t v : graph.Neighbors(u)) {
            ++local.examined;
            if (front.Get(v)) {
              pu.store(v, std::memory_order_relaxed);
              dist[static_cast<std::size_t>(u)] = next_level;
              next.SetUnsynced(u);
              ++local.awake;
              break;  // early exit: one parent suffices
            }
          }
        }
        return local;
      },
      [](BottomUpCounts a, BottomUpCounts b) {
        return BottomUpCounts{a.examined + b.examined, a.awake + b.awake};
      });
  awake_count = counts.awake;
  return counts.examined;
}

/// Sum of out-degrees of the queue frontier, the m_f term of the
/// direction-optimizing heuristic.
std::int64_t FrontierOutEdges(const CsrGraph& graph,
                              const FrontierQueue& frontier) {
  const auto& current = frontier.Vertices();
  return ParallelReduce(
      frontier.Size(), kStreamGrain, std::int64_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t edges = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          edges += graph.Degree(current[static_cast<std::size_t>(i)]);
        }
        return edges;
      },
      std::plus<>());
}

}  // namespace

BfsResult ParallelBfs(const CsrGraph& graph, vid_t source,
                      const BfsOptions& options) {
  PARHDE_TRACE_SPAN("bfs.search");
  const vid_t n = graph.NumVertices();
  assert(source >= 0 && source < n);

  BfsResult result;
  result.dist.assign(static_cast<std::size_t>(n), kInfDist);
  std::vector<std::atomic<vid_t>> parent(static_cast<std::size_t>(n));
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t v = lo; v < hi; ++v) {
      parent[static_cast<std::size_t>(v)].store(kInvalidVid,
                                                std::memory_order_relaxed);
    }
  });

  FrontierQueue frontier(n);
  frontier.InitWith(source);
  result.dist[static_cast<std::size_t>(source)] = 0;
  // Claim the source up front (parent = itself, GAP-style) so neighbors
  // cannot re-acquire it and overwrite dist[source].
  parent[static_cast<std::size_t>(source)].store(source,
                                                 std::memory_order_relaxed);

  Bitmap front_bm(n);
  Bitmap next_bm(n);

  // Track unexplored arcs for the alpha heuristic.
  std::int64_t edges_remaining = graph.NumArcs();
  bool bottom_up = options.mode == BfsOptions::Mode::BottomUpOnly;
  if (bottom_up) frontier.StoreToBitmap(front_bm);
  std::int64_t frontier_size = 1;
  std::int64_t frontier_total = 0;
  std::int64_t direction_switches = 0;
  dist_t level = 0;

  while (frontier_size > 0) {
    // Sequential context (the parallel regions live inside the steps), so
    // an expired deadline may throw directly. One check per level bounds
    // detection latency by the slowest level.
    resilience::CheckDeadline("BFS");
    PARHDE_FAULT_STALL("bfs:stall");
    frontier_total += frontier_size;
    obs::SeriesAppend(obs::Series::kBfsFrontierSizes, frontier_size);
    const dist_t next_level = level + 1;
    // Frontier out-edges (the m_f term) are needed by both the Auto-mode
    // direction heuristic and the edges_remaining bookkeeping of a
    // top-down step; scan the frontier once per level and share the value.
    std::int64_t frontier_edges = -1;
    if (!bottom_up && options.mode == BfsOptions::Mode::Auto) {
      frontier_edges = FrontierOutEdges(graph, frontier);
      if (static_cast<double>(frontier_edges) >
          static_cast<double>(edges_remaining) / options.alpha) {
        frontier.StoreToBitmap(front_bm);
        bottom_up = true;
        ++direction_switches;
      }
    }

    if (bottom_up) {
      PARHDE_TRACE_SPAN("bfs.bottom_up");
      next_bm.Reset();
      std::int64_t awake = 0;
      result.stats.edges_examined += BottomUpStep(
          graph, front_bm, next_bm, parent, result.dist, next_level, awake);
      ++result.stats.bottom_up_steps;
      frontier_size = awake;
      front_bm.Swap(next_bm);
      if (options.mode == BfsOptions::Mode::Auto &&
          static_cast<double>(frontier_size) <
              static_cast<double>(n) / options.beta) {
        frontier.LoadFromBitmap(front_bm);
        bottom_up = false;
        ++direction_switches;
      }
    } else {
      PARHDE_TRACE_SPAN("bfs.top_down");
      if (frontier_edges < 0) {  // TopDownOnly mode skips the heuristic
        frontier_edges = FrontierOutEdges(graph, frontier);
      }
      edges_remaining -= frontier_edges;
      result.stats.edges_examined +=
          TopDownStep(graph, frontier, parent, result.dist, next_level);
      ++result.stats.top_down_steps;
      frontier_size = frontier.Size();
    }

    if (frontier_size > 0) ++result.stats.levels;
    level = next_level;
  }

  result.parent.resize(static_cast<std::size_t>(n));
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t v = lo; v < hi; ++v) {
      result.parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
    }
  });
  result.parent[static_cast<std::size_t>(source)] = kInvalidVid;

  // Flush aggregate work counters once per search — never per edge.
  obs::CounterAdd(obs::Counter::kBfsSearches, 1);
  obs::CounterAdd(obs::Counter::kBfsLevels, result.stats.levels);
  obs::CounterAdd(obs::Counter::kBfsTopDownSteps, result.stats.top_down_steps);
  obs::CounterAdd(obs::Counter::kBfsBottomUpSteps,
                  result.stats.bottom_up_steps);
  obs::CounterAdd(obs::Counter::kBfsDirectionSwitches, direction_switches);
  obs::CounterAdd(obs::Counter::kBfsEdgesExamined,
                  result.stats.edges_examined);
  obs::CounterAdd(obs::Counter::kBfsFrontierVertices, frontier_total);
  return result;
}

std::vector<dist_t> ParallelBfsDistances(const CsrGraph& graph, vid_t source,
                                         const BfsOptions& options) {
  return ParallelBfs(graph, source, options).dist;
}

}  // namespace parhde
