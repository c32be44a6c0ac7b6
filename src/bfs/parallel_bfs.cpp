#include "bfs/parallel_bfs.hpp"

#include <atomic>
#include <cassert>
#include <functional>
#include <optional>

#include "bfs/frontier.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Frontier vertices per block of a parallel top-down step: a frontier of a
/// few hundred vertices with long adjacency lists is already worth a team.
constexpr std::int64_t kTopDownGrain = 64;

/// A top-down level whose frontier has at most this many out-arcs runs as
/// one serial queue step: no team and no atomics. 4096 keeps every level
/// of a road-like graph serial, where a team loses at any thread count,
/// and still gives the widest levels of a 1000² grid a team (EXPERIMENTS.md,
/// "BFS engine on high- and low-diameter graphs", has the sweep).
constexpr std::int64_t kSerialStepArcs = 4096;

/// Vertices per block of a bottom-up step.
constexpr std::int64_t kBottomUpGrain = 1024;

/// Claims the unvisited neighbors of frontier vertices [lo, hi) for
/// `next_level`, stages them on the next frontier and returns their summed
/// out-degree (the next level's m_f). Blocks that run concurrently claim by
/// CAS on dist (kAtomic); a serial step claims with plain loads and stores.
/// Either way the claiming thread is the only writer of dist[u].
template <bool kAtomic>
std::int64_t ExpandTopDown(const CsrGraph& graph, FrontierQueue& frontier,
                           std::vector<dist_t>& dist, dist_t next_level,
                           std::int64_t lo, std::int64_t hi) {
  const auto current = frontier.Vertices();
  FrontierStage staged(frontier);
  std::int64_t next_arcs = 0;
  for (std::int64_t i = lo; i < hi; ++i) {
    for (const vid_t u : graph.Neighbors(current[static_cast<std::size_t>(i)])) {
      dist_t& du = dist[static_cast<std::size_t>(u)];
      if constexpr (kAtomic) {
        std::atomic_ref<dist_t> claim(du);
        dist_t expected = kInfDist;
        if (claim.load(std::memory_order_relaxed) != kInfDist ||
            !claim.compare_exchange_strong(expected, next_level,
                                           std::memory_order_relaxed)) {
          continue;
        }
      } else {
        if (du != kInfDist) continue;
        du = next_level;
      }
      staged.Push(u);
      next_arcs += graph.Degree(u);
    }
  }
  return next_arcs;
}

/// Top-down step: expands the frontier queue and advances it. A serial step
/// is the same reduction over a single block, which ParallelReduce runs on
/// the calling thread (so per-thread phase stats still see it). Returns the
/// next frontier's out-degree sum.
std::int64_t TopDownStep(const CsrGraph& graph, FrontierQueue& frontier,
                         std::vector<dist_t>& dist, dist_t next_level,
                         bool serial) {
  const std::int64_t size = frontier.Size();
  const std::int64_t next_arcs = ParallelReduce(
      size, serial ? size : kTopDownGrain, std::int64_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        return serial ? ExpandTopDown<false>(graph, frontier, dist,
                                             next_level, lo, hi)
                      : ExpandTopDown<true>(graph, frontier, dist, next_level,
                                            lo, hi);
      },
      std::plus<>());
  frontier.Advance();
  return next_arcs;
}

/// Arcs examined, vertices reached and the reached vertices' out-degree sum
/// of one bottom-up step.
struct BottomUpCounts {
  std::int64_t examined = 0;
  std::int64_t awake = 0;
  std::int64_t next_arcs = 0;
};

/// Bottom-up step: every unvisited vertex scans its adjacency for a
/// neighbor in the current frontier bitmap. Each u has exactly one writer,
/// so dist writes are unsynchronized; `next` gets the newly reached bits.
BottomUpCounts BottomUpStep(const CsrGraph& graph, const Bitmap& front,
                            Bitmap& next, std::vector<dist_t>& dist,
                            dist_t next_level) {
  return ParallelReduce(
      graph.NumVertices(), kBottomUpGrain, BottomUpCounts{},
      [&](std::int64_t lo, std::int64_t hi) {
        BottomUpCounts local;
        for (auto u = static_cast<vid_t>(lo); u < hi; ++u) {
          if (dist[static_cast<std::size_t>(u)] != kInfDist) continue;
          for (const vid_t v : graph.Neighbors(u)) {
            ++local.examined;
            if (front.Get(v)) {
              dist[static_cast<std::size_t>(u)] = next_level;
              next.SetUnsynced(u);
              ++local.awake;
              local.next_arcs += graph.Degree(u);
              break;  // early exit: one frontier neighbor suffices
            }
          }
        }
        return local;
      },
      [](BottomUpCounts a, BottomUpCounts b) {
        return BottomUpCounts{a.examined + b.examined, a.awake + b.awake,
                              a.next_arcs + b.next_arcs};
      });
}

}  // namespace

BfsResult ParallelBfs(const CsrGraph& graph, vid_t source,
                      const BfsOptions& options) {
  PARHDE_TRACE_SPAN("bfs.search");
  const vid_t n = graph.NumVertices();
  assert(source >= 0 && source < n);

  BfsResult result;
  result.dist.assign(static_cast<std::size_t>(n), kInfDist);
  result.dist[static_cast<std::size_t>(source)] = 0;
  FrontierQueue frontier(n);
  frontier.InitWith(source);

  // The bitmaps exist only once a search first goes bottom-up.
  std::optional<Bitmap> front_bm;
  std::optional<Bitmap> next_bm;
  bool bottom_up = false;
  const auto go_bottom_up = [&] {
    if (!front_bm) {
      front_bm.emplace(n);
      next_bm.emplace(n);
    }
    frontier.StoreToBitmap(*front_bm);
    bottom_up = true;
  };
  if (options.mode == BfsOptions::Mode::BottomUpOnly) go_bottom_up();

  // m_f (the current frontier's out-arcs) comes out of the step that built
  // the frontier; edges_remaining tracks unexplored arcs for alpha.
  std::int64_t frontier_arcs = graph.Degree(source);
  std::int64_t edges_remaining = graph.NumArcs();
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
    // The direction heuristic decides first; only a level that stays
    // top-down may then run as a serial step.
    if (!bottom_up && options.mode == BfsOptions::Mode::Auto &&
        static_cast<double>(frontier_arcs) >
            static_cast<double>(edges_remaining) / options.alpha) {
      go_bottom_up();
      ++direction_switches;
    }

    if (bottom_up) {
      PARHDE_TRACE_SPAN("bfs.bottom_up");
      next_bm->Reset();
      const BottomUpCounts counts =
          BottomUpStep(graph, *front_bm, *next_bm, result.dist, next_level);
      result.stats.edges_examined += counts.examined;
      ++result.stats.bottom_up_steps;
      frontier_size = counts.awake;
      frontier_arcs = counts.next_arcs;
      front_bm->Swap(*next_bm);
      if (options.mode == BfsOptions::Mode::Auto &&
          static_cast<double>(frontier_size) <
              static_cast<double>(n) / options.beta) {
        frontier.LoadFromBitmap(*front_bm);
        bottom_up = false;
        ++direction_switches;
      }
    } else {
      PARHDE_TRACE_SPAN("bfs.top_down");
      const bool serial = frontier_arcs <= kSerialStepArcs;
      // A top-down step examines every arc of its frontier.
      result.stats.edges_examined += frontier_arcs;
      edges_remaining -= frontier_arcs;
      frontier_arcs =
          TopDownStep(graph, frontier, result.dist, next_level, serial);
      ++result.stats.top_down_steps;
      if (serial) ++result.stats.serial_steps;
      frontier_size = frontier.Size();
    }

    if (frontier_size > 0) ++result.stats.levels;
    level = next_level;
  }

  // Flush aggregate work counters once per search — never per edge.
  obs::CounterAdd(obs::Counter::kBfsSearches, 1);
  obs::CounterAdd(obs::Counter::kBfsLevels, result.stats.levels);
  obs::CounterAdd(obs::Counter::kBfsTopDownSteps, result.stats.top_down_steps);
  obs::CounterAdd(obs::Counter::kBfsSerialSteps, result.stats.serial_steps);
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
