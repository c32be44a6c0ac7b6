#include "bfs/ms_bfs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <functional>
#include <limits>

#include "bfs/frontier.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

/// All-lanes-active mask for a batch of `lanes` sources.
std::uint64_t FullMask(int lanes) {
  return lanes >= kMsBfsLanes ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << lanes) - 1;
}

/// Frontier vertices per block of a sparse step (a small frontier with
/// long adjacency lists is already worth a team) and vertices per block of
/// a dense step.
constexpr std::int64_t kSparseGrain = 64;
constexpr std::int64_t kDenseGrain = 1024;

/// Sparse step: push lane words along out-edges of the frontier queue.
/// `seen` claims are arbitrated by fetch_or, so each newly won (vertex,
/// lane) pair has exactly one writing thread and the distance sink needs
/// no synchronization. A vertex enters the next queue once: the thread
/// whose fetch_or transitions visit_next[u] from zero enqueues it.
/// The owning iteration clears visit[v] after reading it, so after the
/// array swap the new visit_next is already all zero.
template <class WriteDist>
std::int64_t SparseStep(const CsrGraph& graph, FrontierQueue& frontier,
                        std::vector<std::uint64_t>& seen,
                        std::vector<std::uint64_t>& visit,
                        std::vector<std::uint64_t>& visit_next,
                        dist_t next_level, WriteDist&& write) {
  const auto& current = frontier.Vertices();
  const std::int64_t examined = ParallelReduce(
      frontier.Size(), kSparseGrain, std::int64_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        FrontierStage staged(frontier);
        std::int64_t arcs = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          const vid_t v = current[static_cast<std::size_t>(i)];
          const std::uint64_t vbits = visit[static_cast<std::size_t>(v)];
          visit[static_cast<std::size_t>(v)] = 0;  // single reader
          for (const vid_t u : graph.Neighbors(v)) {
            ++arcs;
            auto& seen_u = seen[static_cast<std::size_t>(u)];
            const std::uint64_t cand =
                vbits &
                ~std::atomic_ref(seen_u).load(std::memory_order_relaxed);
            if (cand == 0) continue;
            const std::uint64_t prev = std::atomic_ref(seen_u).fetch_or(
                cand, std::memory_order_relaxed);
            const std::uint64_t won = cand & ~prev;
            if (won == 0) continue;
            for (std::uint64_t bits = won; bits != 0; bits &= bits - 1) {
              write(u, std::countr_zero(bits), next_level);
            }
            auto& vn_u = visit_next[static_cast<std::size_t>(u)];
            if (std::atomic_ref(vn_u).fetch_or(
                    won, std::memory_order_relaxed) == 0) {
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

/// Arcs examined and vertices reached by one dense step.
struct DenseCounts {
  std::int64_t examined = 0;
  std::int64_t awake = 0;
};

/// Dense step: word-iteration over every vertex with unfinished lanes,
/// pulling lane words from its neighbors. Each destination vertex has
/// exactly one owning thread, so seen/visit_next/distance writes are plain
/// stores; visit is read-only for the duration of the step. The neighbor
/// scan exits early once every remaining lane has been found.
template <class WriteDist>
std::int64_t DenseStep(const CsrGraph& graph, std::uint64_t full_mask,
                       std::vector<std::uint64_t>& seen,
                       const std::vector<std::uint64_t>& visit,
                       std::vector<std::uint64_t>& visit_next,
                       dist_t next_level, std::int64_t& awake_count,
                       WriteDist&& write) {
  const DenseCounts counts = ParallelReduce(
      graph.NumVertices(), kDenseGrain, DenseCounts{},
      [&](std::int64_t lo, std::int64_t hi) {
        DenseCounts local;
        for (auto u = static_cast<vid_t>(lo); u < hi; ++u) {
          const std::uint64_t todo =
              full_mask & ~seen[static_cast<std::size_t>(u)];
          if (todo == 0) continue;
          std::uint64_t acc = 0;
          for (const vid_t v : graph.Neighbors(u)) {
            ++local.examined;
            acc |= visit[static_cast<std::size_t>(v)];
            if ((acc & todo) == todo) break;  // every remaining lane found
          }
          const std::uint64_t won = acc & todo;
          if (won == 0) continue;
          seen[static_cast<std::size_t>(u)] |= won;
          visit_next[static_cast<std::size_t>(u)] = won;
          for (std::uint64_t bits = won; bits != 0; bits &= bits - 1) {
            write(u, std::countr_zero(bits), next_level);
          }
          ++local.awake;
        }
        return local;
      },
      [](DenseCounts a, DenseCounts b) {
        return DenseCounts{a.examined + b.examined, a.awake + b.awake};
      });
  awake_count = counts.awake;
  return counts.examined;
}

/// Rebuilds the sparse queue from the nonzero visit words (dense -> sparse
/// switch). Queue order is irrelevant for correctness; staging keeps the
/// rebuild parallel.
void LoadQueueFromWords(const std::vector<std::uint64_t>& visit,
                        FrontierQueue& frontier) {
  ParallelFor(static_cast<std::int64_t>(visit.size()), kStreamGrain,
              [&](std::int64_t lo, std::int64_t hi) {
                FrontierStage staged(frontier);
                for (std::int64_t v = lo; v < hi; ++v) {
                  if (visit[static_cast<std::size_t>(v)] != 0) {
                    staged.Push(static_cast<vid_t>(v));
                  }
                }
              });
  frontier.Advance();
}

/// One batch of up to 64 sources. `write(v, lane, d)` is invoked exactly
/// once per reached (vertex, lane) pair, by the claiming thread.
template <class WriteDist>
void RunBatch(const CsrGraph& graph, std::span<const vid_t> sources,
              const MsBfsOptions& options, MsBfsStats& stats,
              WriteDist&& write) {
  PARHDE_TRACE_SPAN("msbfs.batch");
  const vid_t n = graph.NumVertices();
  const int lanes = static_cast<int>(sources.size());
  assert(lanes >= 1 && lanes <= kMsBfsLanes);
  const std::uint64_t full_mask = FullMask(lanes);

  std::vector<std::uint64_t> seen(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> visit(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> visit_next(static_cast<std::size_t>(n), 0);

  FrontierQueue frontier(n);
  std::vector<vid_t> roots;  // unique source vertices
  roots.reserve(sources.size());
  for (int l = 0; l < lanes; ++l) {
    const vid_t s = sources[static_cast<std::size_t>(l)];
    assert(s >= 0 && s < n);
    if (visit[static_cast<std::size_t>(s)] == 0) roots.push_back(s);
    seen[static_cast<std::size_t>(s)] |= std::uint64_t{1} << l;
    visit[static_cast<std::size_t>(s)] |= std::uint64_t{1} << l;
    write(s, l, 0);
  }
  frontier.Flush(roots);
  frontier.Advance();

  const auto dense_over = static_cast<std::int64_t>(
      options.dense_threshold * static_cast<double>(n));
  const auto sparse_under = static_cast<std::int64_t>(
      options.sparse_threshold * static_cast<double>(n));

  std::int64_t frontier_count = frontier.Size();
  bool dense = options.mode == MsBfsOptions::Mode::DenseOnly;
  bool queue_valid = true;  // frontier queue mirrors the visit words
  dist_t level = 0;

  ++stats.batches;
  obs::CounterAdd(obs::Counter::kMsBfsBatches, 1);
  obs::CounterAdd(obs::Counter::kMsBfsLanesActive, lanes);
  while (frontier_count > 0) {
    // Sequential level loop (the steps fork internally): throwing here is
    // OpenMP-safe, and per-level checks bound detection by one level.
    resilience::CheckDeadline("BFS");
    PARHDE_FAULT_STALL("msbfs:stall");
    obs::SeriesAppend(obs::Series::kMsBfsFrontierSizes, frontier_count);
    const dist_t next_level = level + 1;
    if (options.mode == MsBfsOptions::Mode::Auto) {
      if (!dense && frontier_count > dense_over) {
        dense = true;
      } else if (dense && frontier_count < sparse_under) {
        dense = false;
      }
    }

    if (dense) {
      PARHDE_TRACE_SPAN("msbfs.dense_step");
      std::int64_t awake = 0;
      stats.edges_examined += DenseStep(graph, full_mask, seen, visit,
                                        visit_next, next_level, awake, write);
      ++stats.dense_steps;
      frontier_count = awake;
      // The old frontier words must be zeroed before the swap hands the
      // array back as the next visit_next.
      std::fill(visit.begin(), visit.end(), 0);
      queue_valid = false;
    } else {
      PARHDE_TRACE_SPAN("msbfs.sparse_step");
      if (!queue_valid) {
        LoadQueueFromWords(visit, frontier);
        queue_valid = true;
      }
      stats.edges_examined += SparseStep(graph, frontier, seen, visit,
                                         visit_next, next_level, write);
      ++stats.sparse_steps;
      frontier_count = frontier.Size();
      // SparseStep zeroed each consumed visit word in place.
    }
    visit.swap(visit_next);

    if (frontier_count > 0) ++stats.levels;
    level = next_level;
  }
}

/// Drives RunBatch over sources in 64-wide slices.
template <class MakeWriter>
MsBfsStats RunBatches(const CsrGraph& graph, std::span<const vid_t> sources,
                      const MsBfsOptions& options, MakeWriter&& make_writer) {
  MsBfsStats stats;
  for (std::size_t offset = 0; offset < sources.size();
       offset += kMsBfsLanes) {
    const std::size_t count =
        std::min<std::size_t>(kMsBfsLanes, sources.size() - offset);
    RunBatch(graph, sources.subspan(offset, count), options, stats,
             make_writer(offset));
  }
  // Flush aggregate work counters once per run — never per edge.
  obs::CounterAdd(obs::Counter::kMsBfsLevels, stats.levels);
  obs::CounterAdd(obs::Counter::kMsBfsSparseSteps, stats.sparse_steps);
  obs::CounterAdd(obs::Counter::kMsBfsDenseSteps, stats.dense_steps);
  obs::CounterAdd(obs::Counter::kMsBfsEdgesExamined, stats.edges_examined);
  return stats;
}

}  // namespace

std::vector<std::vector<dist_t>> MultiSourceBfsDistances(
    const CsrGraph& graph, std::span<const vid_t> sources,
    const MsBfsOptions& options, MsBfsStats* stats) {
  std::vector<std::vector<dist_t>> dist(
      sources.size(),
      std::vector<dist_t>(static_cast<std::size_t>(graph.NumVertices()),
                          kInfDist));
  const MsBfsStats local =
      RunBatches(graph, sources, options, [&](std::size_t offset) {
        return [&dist, offset](vid_t v, int lane, dist_t d) {
          dist[offset + static_cast<std::size_t>(lane)]
              [static_cast<std::size_t>(v)] = d;
        };
      });
  if (stats) *stats = local;
  return dist;
}

void MultiSourceBfsToColumns(const CsrGraph& graph,
                             std::span<const vid_t> sources, DenseMatrix& B,
                             std::size_t col_offset,
                             const MsBfsOptions& options, MsBfsStats* stats) {
  const vid_t n = graph.NumVertices();
  assert(B.Rows() == static_cast<std::size_t>(n));
  assert(col_offset + sources.size() <= B.Cols());
  // Pre-fill with the unreachable sentinel; the traversal overwrites every
  // reached (vertex, lane) pair exactly once. The target columns are one
  // contiguous column-major range.
  double* const first = B.Data() + col_offset * B.Rows();
  ParallelFor(static_cast<std::int64_t>(sources.size() * B.Rows()),
              kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
                std::fill(first + lo, first + hi, static_cast<double>(n));
              });
  const MsBfsStats local =
      RunBatches(graph, sources, options, [&](std::size_t offset) {
        double* base = B.Col(col_offset + offset).data();
        const std::size_t rows = B.Rows();
        return [base, rows](vid_t v, int lane, dist_t d) {
          base[static_cast<std::size_t>(lane) * rows +
               static_cast<std::size_t>(v)] = static_cast<double>(d);
        };
      });
  if (PARHDE_FAULT_ONESHOT("msbfs:nan")) {
    B.Col(col_offset)[0] = std::numeric_limits<double>::quiet_NaN();
  }
  if (stats) *stats = local;
}

}  // namespace parhde
