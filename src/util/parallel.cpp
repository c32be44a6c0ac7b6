#include "util/parallel.hpp"

#include <omp.h>

#include <algorithm>
#include <cassert>

namespace parhde {

int NumThreads() { return omp_get_max_threads(); }

void SetNumThreads(int threads) { omp_set_num_threads(std::max(1, threads)); }

ThreadCountGuard::ThreadCountGuard(int threads) : saved_(NumThreads()) {
  SetNumThreads(threads);
}

ThreadCountGuard::~ThreadCountGuard() { SetNumThreads(saved_); }

void ExclusivePrefixSum(const std::vector<eid_t>& counts,
                        std::vector<eid_t>& out) {
  const auto n = static_cast<std::int64_t>(counts.size());
  out.resize(counts.size() + 1);
  // Pass 1: per-block totals; serial scan of the totals; pass 2: each block
  // writes its running sums from its scanned offset.
  std::vector<eid_t> block_start(
      static_cast<std::size_t>((n + kStreamGrain - 1) / kStreamGrain) + 1, 0);
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    eid_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      local += counts[static_cast<std::size_t>(i)];
    }
    block_start[static_cast<std::size_t>(lo / kStreamGrain) + 1] = local;
  });
  for (std::size_t b = 1; b < block_start.size(); ++b) {
    block_start[b] += block_start[b - 1];
  }
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    eid_t running = block_start[static_cast<std::size_t>(lo / kStreamGrain)];
    for (std::int64_t i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] = running;
      running += counts[static_cast<std::size_t>(i)];
    }
  });
  out[counts.size()] = block_start.back();
}

vid_t ArgmaxFiniteDistance(const std::vector<dist_t>& dist) {
  struct Best {
    dist_t d = -1;
    vid_t v = kInvalidVid;
  };
  // Blocks are scanned, and folded, in ascending vertex order, so keeping
  // the first vertex at a strictly larger distance is the smallest-id
  // tie-break.
  const Best best = ParallelReduce(
      static_cast<std::int64_t>(dist.size()), kStreamGrain, Best{},
      [&](std::int64_t lo, std::int64_t hi) {
        Best local;
        for (std::int64_t i = lo; i < hi; ++i) {
          const dist_t d = dist[static_cast<std::size_t>(i)];
          if (d != kInfDist && d > local.d) local = {d, static_cast<vid_t>(i)};
        }
        return local;
      },
      [](Best acc, Best block) { return block.d > acc.d ? block : acc; });
  return best.v;
}

void MinInto(std::vector<dist_t>& d, const std::vector<dist_t>& b) {
  assert(d.size() == b.size());
  ParallelFor(static_cast<std::int64_t>(d.size()), kStreamGrain,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                  const auto k = static_cast<std::size_t>(i);
                  d[k] = std::min(d[k], b[k]);
                }
              });
}

}  // namespace parhde
