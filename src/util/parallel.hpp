// OpenMP helpers: thread configuration, the two loop primitives every
// layout-path kernel runs on, and the prefix-sum / farthest-vertex /
// min-into building blocks of the CSR builder and the pivot search.
//
// ParallelFor and ParallelReduce cut [0, n) into fixed `grain`-sized blocks
// and hand each block to the body as a range [lo, hi), so inner loops keep
// their `#pragma omp simd`. The split depends only on n and grain:
//   * ParallelReduce stores one partial per block and folds the partials
//     serially in block order, so sums are bitwise identical at any thread
//     count — the serial path evaluates the same blocks in the same order.
//   * The call runs on the calling thread when n <= grain, when one thread
//     is allowed, or inside an active parallel region (nested calls run
//     inline). Otherwise at most ceil(n / grain) threads run, each taking
//     one contiguous run of blocks: the same thread gets the same slice on
//     every call of the same shape, so repeated sweeps hit its cache and a
//     parallel first touch places pages where they are later streamed.
//     ParallelForDynamic is the exception: it hands blocks out on demand,
//     for loops whose block costs cannot be predicted from n and grain.
//   * Each team thread installs the caller's util::RunContext and runs an
//     obs::ScopedRegionTimer, so counters, deadline polls and per-thread
//     phase stats land in the caller's run. Call sites name no context,
//     timer, schedule or thread count; the grain is their only knob.
// Δ-stepping (sssp/delta_stepping.cpp) is the one file left that binds its
// own regions: its persistent team per search is not a loop.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/thread_stats.hpp"
#include "util/run_context.hpp"
#include "util/types.hpp"

namespace parhde {

/// Grain for streaming elementwise loops over doubles or vertex ids: below
/// 4096 elements (32 KiB of doubles) a fork/join costs more than the loop,
/// so smaller inputs stay on the calling thread.
inline constexpr std::int64_t kStreamGrain = 4096;

namespace detail {

/// Runs fn(block, lo, hi) for every grain-sized block of [0, n) under the
/// rules in the file comment; kDynamic hands blocks out on demand instead.
template <bool kDynamic = false, class Fn>
void ForEachBlock(std::int64_t n, std::int64_t grain, Fn&& fn) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(grain, 1);
  const std::int64_t blocks = (n + grain - 1) / grain;
  const auto run = [&](std::int64_t b) {
    const std::int64_t lo = b * grain;
    fn(b, lo, std::min(n, lo + grain));
  };
  if (omp_in_parallel()) {
    for (std::int64_t b = 0; b < blocks; ++b) run(b);
    return;
  }
  const auto team = static_cast<int>(
      std::min<std::int64_t>(blocks, omp_get_max_threads()));
  if (team <= 1) {
    obs::ScopedRegionTimer obs_timer;
    for (std::int64_t b = 0; b < blocks; ++b) run(b);
    return;
  }
  util::RunContext* const run_ctx = util::CurrentRunContext();
#pragma omp parallel num_threads(team)
  {
    util::ScopedRunContext run_scope(*run_ctx);
    obs::ScopedRegionTimer obs_timer;
    if constexpr (kDynamic) {
#pragma omp for schedule(dynamic, 1) nowait
      for (std::int64_t b = 0; b < blocks; ++b) run(b);
    } else {
#pragma omp for schedule(static) nowait
      for (std::int64_t b = 0; b < blocks; ++b) run(b);
    }
  }
}

}  // namespace detail

/// body(lo, hi) over the grain-sized blocks of [0, n); lo is a multiple of
/// grain and hi - lo <= grain.
template <class Body>
void ParallelFor(std::int64_t n, std::int64_t grain, Body&& body) {
  detail::ForEachBlock(n, grain, [&](std::int64_t, std::int64_t lo,
                                     std::int64_t hi) { body(lo, hi); });
}

/// ParallelFor with the blocks handed to threads one at a time as they
/// finish, for loops whose block costs vary in ways the static split cannot
/// see (sorting adjacency lists left in scatter order). Same blocks and
/// serial rules; the body must not care which thread runs a block.
template <class Body>
void ParallelForDynamic(std::int64_t n, std::int64_t grain, Body&& body) {
  detail::ForEachBlock<true>(n, grain, [&](std::int64_t, std::int64_t lo,
                                           std::int64_t hi) { body(lo, hi); });
}

/// Folds combine(acc, map(lo, hi)) over the grain-sized blocks of [0, n) in
/// block order, starting from `identity`; the maps run in parallel. T must
/// be default-constructible; combine takes (T, T) and returns T.
template <class T, class Map, class Combine>
T ParallelReduce(std::int64_t n, std::int64_t grain, T identity, Map&& map,
                 Combine&& combine) {
  if (n <= 0) return identity;
  grain = std::max<std::int64_t>(grain, 1);
  std::vector<T> partials(static_cast<std::size_t>((n + grain - 1) / grain));
  detail::ForEachBlock(n, grain, [&](std::int64_t b, std::int64_t lo,
                                     std::int64_t hi) {
    partials[static_cast<std::size_t>(b)] = map(lo, hi);
  });
  T acc = std::move(identity);
  for (T& partial : partials) acc = combine(std::move(acc), std::move(partial));
  return acc;
}

/// Number of OpenMP threads the next parallel region will use.
int NumThreads();

/// Sets the OpenMP thread count for subsequent parallel regions.
/// Values < 1 are clamped to 1.
void SetNumThreads(int threads);

/// RAII guard that sets the thread count and restores the previous value on
/// scope exit; used by the scaling benchmarks (Fig. 4) to sweep core counts.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads);
  ~ThreadCountGuard();

  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Parallel exclusive prefix sum.
///
/// Writes out[i] = counts[0] + ... + counts[i-1] for i in [0, n], where
/// out has n+1 entries and out[n] is the grand total. counts and out may not
/// alias. Deterministic regardless of thread count.
void ExclusivePrefixSum(const std::vector<eid_t>& counts,
                        std::vector<eid_t>& out);

/// Parallel argmax over a distance vector with the paper's farthest-vertex
/// tie-break: among vertices at maximal finite distance, the smallest vertex
/// id wins, making pivot selection deterministic. Returns kInvalidVid when
/// every entry is kInfDist or the vector is empty.
vid_t ArgmaxFiniteDistance(const std::vector<dist_t>& dist);

/// Elementwise d[i] = min(d[i], b[i]) in parallel — the "BFS: Other" update
/// of Alg. 1 lines 13-14 that maintains distance-to-nearest-source.
void MinInto(std::vector<dist_t>& d, const std::vector<dist_t>& b);

}  // namespace parhde
