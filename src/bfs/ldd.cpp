#include "bfs/ldd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "bfs/frontier.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace parhde {
namespace {

/// Vertices per block: a shift costs a PRNG seed and a log1p; a claim or
/// cut block scans adjacency lists. kClaimGrain is a multiple of 64 so no
/// two claim blocks share a word of the unsynchronized `next` bitmap.
constexpr std::int64_t kShiftGrain = 1024;
constexpr std::int64_t kClaimGrain = 512;
constexpr std::int64_t kCutGrain = 1024;

}  // namespace

LddResult LowDiameterDecomposition(const CsrGraph& graph,
                                   const LddOptions& options) {
  const vid_t n = graph.NumVertices();
  assert(options.beta > 0.0);

  LddResult result;
  result.cluster.assign(static_cast<std::size_t>(n), kInvalidVid);
  if (n == 0) return result;

  // Exponential shifts, one independent stream per vertex so the draw is
  // thread-count invariant.
  std::vector<double> shift(static_cast<std::size_t>(n));
  const double max_shift = ParallelReduce(
      n, kShiftGrain, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        double block_max = 0.0;
        for (std::int64_t v = lo; v < hi; ++v) {
          Xoshiro256 rng(options.seed ^
                         (0x9e3779b97f4a7c15ULL *
                          (static_cast<std::uint64_t>(v) + 1)));
          const double u = rng.NextDouble();
          const double s = -std::log1p(-u) / options.beta;  // Exp(beta)
          shift[static_cast<std::size_t>(v)] = s;
          block_max = std::max(block_max, s);
        }
        return block_max;
      },
      [](double a, double b) { return std::max(a, b); });

  // Center v activates at round floor(max_shift - shift[v]); the fractional
  // remainder breaks ties among same-round claims (smaller wins, as in MPX).
  std::vector<int> start(static_cast<std::size_t>(n));
  std::vector<double> frac(static_cast<std::size_t>(n));
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t v = lo; v < hi; ++v) {
      const double when = max_shift - shift[static_cast<std::size_t>(v)];
      start[static_cast<std::size_t>(v)] = static_cast<int>(std::floor(when));
      frac[static_cast<std::size_t>(v)] = when - std::floor(when);
    }
  });

  Bitmap frontier(n);   // vertices assigned in the previous round
  Bitmap next(n);
  std::int64_t remaining = n;
  int round = 0;

  while (remaining > 0) {
    next.Reset();

    // Deterministic claims: every unassigned vertex scans its options —
    // self-start (becoming a center) or a neighbor assigned last round —
    // and takes the minimum (tie-fraction, center-id) priority. Single
    // writer per vertex, so no atomics. Blocks cost what their unassigned
    // vertices' adjacency costs, hence the on-demand split.
    ParallelForDynamic(n, kClaimGrain, [&](std::int64_t lo, std::int64_t hi) {
      for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
        if (result.cluster[static_cast<std::size_t>(v)] != kInvalidVid) {
          continue;
        }
        vid_t best_center = kInvalidVid;
        double best_frac = 2.0;  // fractions are < 1
        if (start[static_cast<std::size_t>(v)] <= round) {
          best_center = v;
          best_frac = frac[static_cast<std::size_t>(v)];
        }
        for (const vid_t u : graph.Neighbors(v)) {
          if (!frontier.Get(u)) continue;
          const vid_t c = result.cluster[static_cast<std::size_t>(u)];
          const double f = frac[static_cast<std::size_t>(c)];
          if (f < best_frac || (f == best_frac && c < best_center)) {
            best_frac = f;
            best_center = c;
          }
        }
        if (best_center != kInvalidVid) {
          result.cluster[static_cast<std::size_t>(v)] = best_center;
          next.SetUnsynced(v);
        }
      }
    });

    // The round's claims are exactly the bits it set.
    remaining -= next.Count();
    frontier.Swap(next);
    ++round;
  }
  result.rounds = round;

  // Collect centers (vertices that cluster to themselves) in id order and
  // count cut edges.
  for (vid_t v = 0; v < n; ++v) {
    if (result.cluster[static_cast<std::size_t>(v)] == v) {
      result.centers.push_back(v);
    }
  }
  const eid_t cut = ParallelReduce(
      n, kCutGrain, eid_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        eid_t block_cut = 0;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          for (const vid_t u : graph.Neighbors(v)) {
            if (u > v && result.cluster[static_cast<std::size_t>(u)] !=
                             result.cluster[static_cast<std::size_t>(v)]) {
              ++block_cut;
            }
          }
        }
        return block_cut;
      },
      std::plus<>());
  result.cut_edges = cut;
  return result;
}

dist_t MaxClusterRadius(const CsrGraph& graph, const LddResult& ldd) {
  dist_t worst = 0;
  for (const vid_t center : ldd.centers) {
    // BFS from the center restricted to its own cluster.
    std::vector<dist_t> dist(static_cast<std::size_t>(graph.NumVertices()),
                             kInfDist);
    std::vector<vid_t> queue{center};
    dist[static_cast<std::size_t>(center)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const vid_t v = queue[head];
      worst = std::max(worst, dist[static_cast<std::size_t>(v)]);
      for (const vid_t u : graph.Neighbors(v)) {
        if (ldd.cluster[static_cast<std::size_t>(u)] == center &&
            dist[static_cast<std::size_t>(u)] == kInfDist) {
          dist[static_cast<std::size_t>(u)] =
              dist[static_cast<std::size_t>(v)] + 1;
          queue.push_back(u);
        }
      }
    }
  }
  return worst;
}

}  // namespace parhde
