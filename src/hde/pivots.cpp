#include "hde/pivots.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "bfs/ms_bfs.hpp"
#include "bfs/serial_bfs.hpp"
#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "resilience/recovery.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/multi_sssp.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/run_context.hpp"

namespace parhde {
namespace {

/// Runs one search with the configured kernel and writes distances into
/// `column` (doubles; unreachable vertices get a large finite sentinel so
/// downstream arithmetic stays finite — connected inputs never hit it).
/// BFS kernels use the hop sentinel n; the SSSP kernel uses
/// WeightedUnreachableSentinel, placed above every finite distance of the
/// search (finite weighted distances routinely exceed n). Returns the
/// integer hop distances for pivot bookkeeping when the kernel is
/// BFS-based; for SSSP the hop vector is clamped quantized weights.
/// `max_weight` is MaxEdgeWeight(graph), hoisted by the phase drivers
/// across searches; only the SSSP kernels read it.
std::vector<dist_t> RunSingleSearch(const CsrGraph& graph, vid_t source,
                                    const HdeOptions& options,
                                    std::span<double> column, BfsStats& stats,
                                    weight_t max_weight) {
  const vid_t n = graph.NumVertices();
  std::vector<dist_t> hops;

  switch (options.kernel) {
    case DistanceKernel::MultiSourceBfs:
      // Single-source call sites (k-centers interleaves selection with
      // traversal) cannot batch; the direction-optimizing kernel is the
      // right fallback.
      [[fallthrough]];
    case DistanceKernel::ParallelBfs: {
      BfsResult result = ParallelBfs(graph, source, options.bfs);
      stats.levels += result.stats.levels;
      stats.top_down_steps += result.stats.top_down_steps;
      stats.serial_steps += result.stats.serial_steps;
      stats.bottom_up_steps += result.stats.bottom_up_steps;
      stats.edges_examined += result.stats.edges_examined;
      hops = std::move(result.dist);
      break;
    }
    case DistanceKernel::SerialBfs: {
      hops = SerialBfs(graph, source);
      obs::CounterAdd(obs::Counter::kSerialBfsSearches, 1);
      break;
    }
    case DistanceKernel::DeltaStepping:
    case DistanceKernel::Dijkstra: {
      std::vector<weight_t> wdist;
      if (options.kernel == DistanceKernel::DeltaStepping) {
        SsspResult result = DeltaStepping(graph, source, options.sssp);
        stats.edges_examined += result.stats.relaxations;
        wdist = std::move(result.dist);
      } else {
        // The ladder's terminal weighted rung: serial, heap-based, immune
        // to the bucket arithmetic a pathological Δ/weight ratio derails.
        DijkstraStats ds;
        wdist = Dijkstra(graph, source, &ds);
        stats.edges_examined += ds.edges_scanned;
      }
      // Unreachable sentinel: strictly above every finite distance of this
      // search (the hop sentinel n sorts *below* reachable vertices once
      // weights exceed 1, corrupting pivot selection and the B columns).
      const weight_t max_finite = ParallelReduce(
          n, kStreamGrain, weight_t{0},
          [&](std::int64_t lo, std::int64_t hi) {
            weight_t best = 0.0;
            for (std::int64_t v = lo; v < hi; ++v) {
              const weight_t d = wdist[static_cast<std::size_t>(v)];
              if (std::isfinite(d)) best = std::max(best, d);
            }
            return best;
          },
          [](weight_t a, weight_t b) { return std::max(a, b); });
      const weight_t sentinel =
          WeightedUnreachableSentinel(max_finite, max_weight, n);
      // Quantize for the farthest-vertex reduction (ties resolved on the
      // quantized scale; adequate for pivot spreading). Finite distances
      // beyond the dist_t range clamp to the largest finite hop value so
      // they still sort above everything reachable-and-near.
      hops.resize(static_cast<std::size_t>(n));
      ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t v = lo; v < hi; ++v) {
          const auto i = static_cast<std::size_t>(v);
          const weight_t d = wdist[i];
          column[i] = std::isfinite(d) ? d : sentinel;
          hops[i] = !std::isfinite(d) ? kInfDist
                    : d >= static_cast<weight_t>(kInfDist - 1)
                        ? kInfDist - 1
                        : static_cast<dist_t>(d);
        }
      });
      return hops;
    }
  }

  // BFS kernels: convert hop counts to doubles.
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t v = lo; v < hi; ++v) {
      const dist_t d = hops[static_cast<std::size_t>(v)];
      column[static_cast<std::size_t>(v)] =
          d == kInfDist ? static_cast<double>(n) : static_cast<double>(d);
    }
  });
  return hops;
}

vid_t ResolveStartVertex(const CsrGraph& graph, const HdeOptions& options) {
  if (options.start_vertex != kInvalidVid) {
    assert(options.start_vertex >= 0 &&
           options.start_vertex < graph.NumVertices());
    return options.start_vertex;
  }
  Xoshiro256 rng(options.seed);
  return static_cast<vid_t>(
      rng.NextBounded(static_cast<std::uint64_t>(graph.NumVertices())));
}

DistancePhase RunKCentersPhase(const CsrGraph& graph,
                               const HdeOptions& options) {
  const vid_t n = graph.NumVertices();
  const int s = options.subspace_dim;
  DistancePhase phase;
  phase.B = DenseMatrix(static_cast<std::size_t>(n), static_cast<std::size_t>(s));
  phase.pivots.reserve(static_cast<std::size_t>(s));

  // Hoist the per-phase weighted invariants — the Δ heuristic and the max
  // edge weight are O(m) reductions shared by all s searches instead of
  // being re-derived per pivot.
  HdeOptions opts = options;
  weight_t maxw = -1.0;
  if (opts.kernel == DistanceKernel::DeltaStepping ||
      opts.kernel == DistanceKernel::Dijkstra) {
    if (opts.sssp.delta <= 0.0) opts.sssp.delta = DefaultDelta(graph);
    maxw = MaxEdgeWeight(graph);
  }

  std::vector<dist_t> to_sources(static_cast<std::size_t>(n), kInfDist);
  vid_t source = ResolveStartVertex(graph, options);

  int filled = 0;
  for (int i = 0; i < s; ++i) {
    phase.pivots.push_back(source);

    const std::vector<dist_t> hops =
        RunSingleSearch(graph, source, opts,
                        phase.B.Col(static_cast<std::size_t>(i)), phase.stats,
                        maxw);
    filled = i + 1;

    {
      // "BFS: Other": maintain min-distance-to-any-source and find the
      // farthest vertex, which seeds the next search.
      obs::Phase other(phase.timings, phase::kBfsOther);
      MinInto(to_sources, hops);
      source = ArgmaxFiniteDistance(to_sources);
    }
    // Saturation: the farthest reachable vertex is already a pivot (its
    // min-distance-to-sources is 0 — only pivots sit at 0). Continuing
    // would push duplicates and re-run identical searches, so stop and
    // return the effective (deduplicated) pivot set instead.
    if (source == kInvalidVid ||
        to_sources[static_cast<std::size_t>(source)] == 0) {
      break;
    }
  }
  if (filled < s) {
    std::vector<std::size_t> keep(static_cast<std::size_t>(filled));
    for (int i = 0; i < filled; ++i) keep[static_cast<std::size_t>(i)] = i;
    phase.B.KeepColumns(keep);
  }
  return phase;
}

/// The weighted random-pivot phase: s independent SSSP searches, scheduled
/// per options.sssp_engine. Concurrent mode mirrors the
/// concurrent-serial-BFS branch below — one fully sequential Δ-stepping per
/// thread over the s pivots, zero synchronization inside a search; Parallel
/// mode runs one internally-parallel Δ-stepping search at a time (the right
/// shape when s is below the thread count).
DistancePhase RunRandomSsspPhase(const CsrGraph& graph,
                                 const HdeOptions& options) {
  const vid_t n = graph.NumVertices();
  const int s = options.subspace_dim;
  DistancePhase phase;
  phase.B = DenseMatrix(static_cast<std::size_t>(n), static_cast<std::size_t>(s));
  phase.pivots = RandomPivots(n, s, options.seed);

  // Hoisted per-phase invariants (satellite of the Δ-stepping rework): one
  // parallel reduction each for the Δ heuristic and the sentinel's max
  // weight, reused across all s searches.
  HdeOptions opts = options;
  if (opts.sssp.delta <= 0.0) opts.sssp.delta = DefaultDelta(graph);
  const weight_t maxw = MaxEdgeWeight(graph);

  const bool concurrent =
      options.kernel == DistanceKernel::DeltaStepping &&
      (options.sssp_engine == SsspEngine::Concurrent ||
       (options.sssp_engine == SsspEngine::Auto && s >= NumThreads()));

  if (concurrent) {
    MultiSsspStats ms;
    ConcurrentSsspToColumns(graph, phase.pivots, phase.B, 0, opts.sssp.delta,
                            maxw, &ms);
    phase.stats.edges_examined += ms.edges_scanned;
  } else {
    for (int i = 0; i < s; ++i) {
      RunSingleSearch(graph, phase.pivots[static_cast<std::size_t>(i)], opts,
                      phase.B.Col(static_cast<std::size_t>(i)), phase.stats,
                      maxw);
    }
  }
  return phase;
}

DistancePhase RunRandomPhase(const CsrGraph& graph, const HdeOptions& options) {
  // The weighted kernel has its own engine pair; the BFS branches below
  // would silently compute hop distances and ignore the weights.
  if (options.kernel == DistanceKernel::DeltaStepping ||
      options.kernel == DistanceKernel::Dijkstra) {
    return RunRandomSsspPhase(graph, options);
  }
  const vid_t n = graph.NumVertices();
  const int s = options.subspace_dim;
  DistancePhase phase;
  phase.B = DenseMatrix(static_cast<std::size_t>(n), static_cast<std::size_t>(s));
  phase.pivots = RandomPivots(n, s, options.seed);

  // The batched engine runs when explicitly requested, or — under the
  // default kernel with enough sources to amortize — when a one-sweep
  // diameter probe says the lane waves will overlap (kMsBfsDiameterCap).
  // The probe sweep is recycled as column 0 on the fallback path.
  bool use_msbfs = options.kernel == DistanceKernel::MultiSourceBfs;
  std::vector<dist_t> probe;
  if (!use_msbfs && options.kernel == DistanceKernel::ParallelBfs &&
      options.msbfs_auto && s >= kMsBfsAutoThreshold) {
    probe = SerialBfs(graph, phase.pivots.front());
    obs::CounterAdd(obs::Counter::kSerialBfsSearches, 1);
    dist_t ecc = 0;
    for (const dist_t d : probe) {
      if (d != kInfDist) ecc = std::max(ecc, d);
    }
    use_msbfs = ecc <= kMsBfsDiameterCap;
  }
  if (use_msbfs) {
    // Batched multi-source BFS: 64 sources share each pass over the CSR
    // arrays, turning s sweeps into ceil(s/64). Distances land straight in
    // the B columns. Sparse steps map onto the top-down counter, dense
    // word-iteration steps onto bottom-up, keeping the Fig. 5 breakdown
    // meaningful.
    MsBfsStats ms;
    MultiSourceBfsToColumns(graph, phase.pivots, phase.B, 0, options.ms_bfs,
                            &ms);
    phase.stats.levels += ms.levels;
    phase.stats.top_down_steps += ms.sparse_steps;
    phase.stats.bottom_up_steps += ms.dense_steps;
    phase.stats.edges_examined += ms.edges_examined;
  } else {
    // Concurrent independent searches: one serial BFS per thread, the
    // paper's alternative that wins when s exceeds the thread count or the
    // graph has high diameter (Table 6).
    PARHDE_TRACE_SPAN("bfs.concurrent_serial");
    ParallelFor(s, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const std::vector<dist_t> hops =
            i == 0 && !probe.empty()
                ? probe
                : SerialBfs(graph, phase.pivots[static_cast<std::size_t>(i)]);
        if (i != 0 || probe.empty()) {
          obs::CounterAdd(obs::Counter::kSerialBfsSearches, 1);
        }
        auto column = phase.B.Col(static_cast<std::size_t>(i));
        for (vid_t v = 0; v < n; ++v) {
          const dist_t d = hops[static_cast<std::size_t>(v)];
          column[static_cast<std::size_t>(v)] =
              d == kInfDist ? static_cast<double>(n) : static_cast<double>(d);
        }
      }
    });
  }
  return phase;
}

}  // namespace

std::vector<vid_t> RandomPivots(vid_t n, int count, std::uint64_t seed) {
  assert(count >= 0 && static_cast<vid_t>(count) <= n);
  // Floyd's algorithm for a uniform sample without replacement, then a
  // shuffle so pivot order is also uniform. The hash set keeps the
  // membership test O(1) per draw (the sample stays O(s) instead of O(s²)),
  // with `picked` preserving insertion order for the shuffle.
  Xoshiro256 rng(seed);
  std::vector<vid_t> picked;
  picked.reserve(static_cast<std::size_t>(count));
  std::unordered_set<vid_t> taken;
  taken.reserve(static_cast<std::size_t>(count) * 2);
  for (vid_t j = n - static_cast<vid_t>(count); j < n; ++j) {
    const auto t = static_cast<vid_t>(
        rng.NextBounded(static_cast<std::uint64_t>(j) + 1));
    if (taken.insert(t).second) {
      picked.push_back(t);
    } else {
      // Floyd guarantees j itself is not yet in the sample.
      taken.insert(j);
      picked.push_back(j);
    }
  }
  std::shuffle(picked.begin(), picked.end(), rng);
  return picked;
}

DistancePhase RunDistancePhase(const CsrGraph& graph,
                               const HdeOptions& options) {
  assert(graph.NumVertices() > 0);
  assert(options.subspace_dim > 0);
  if (options.pivots == PivotStrategy::Random) {
    return RunRandomPhase(graph, options);
  }
  return RunKCentersPhase(graph, options);
}

DenseMatrix RunDistancePhaseWithRecovery(const CsrGraph& graph,
                                         const HdeOptions& options,
                                         HdeResult& result) {
  // Build the downgrade ladder for the configured kernel. Each rung is a
  // full HdeOptions so a retry can change more than one knob (kernel,
  // engine, the msbfs auto-upgrade) at once.
  std::vector<const char*> rungs;
  std::vector<HdeOptions> configs;
  const bool random = options.pivots == PivotStrategy::Random;
  auto push = [&](const char* name, HdeOptions cfg) {
    rungs.push_back(name);
    configs.push_back(std::move(cfg));
  };
  switch (options.kernel) {
    case DistanceKernel::MultiSourceBfs: {
      push("msbfs", options);
      HdeOptions parbfs = options;
      parbfs.kernel = DistanceKernel::ParallelBfs;
      parbfs.msbfs_auto = false;
      push("parbfs", parbfs);
      break;
    }
    case DistanceKernel::ParallelBfs: {
      // The auto path may silently upgrade to MS-BFS (random pivots, s
      // large, low diameter); the retry rung pins the plain BFS engine so
      // the failed upgrade cannot be re-chosen. Without an upgrade
      // possibility the ladder is a single rung.
      if (random && options.msbfs_auto &&
          options.subspace_dim >= kMsBfsAutoThreshold) {
        push("parbfs-auto", options);
        HdeOptions pinned = options;
        pinned.msbfs_auto = false;
        push("parbfs", pinned);
      } else {
        push("parbfs", options);
      }
      break;
    }
    case DistanceKernel::SerialBfs:
      push("serialbfs", options);
      break;
    case DistanceKernel::DeltaStepping: {
      const bool concurrent =
          random && (options.sssp_engine == SsspEngine::Concurrent ||
                     (options.sssp_engine == SsspEngine::Auto &&
                      options.subspace_dim >= NumThreads()));
      if (concurrent) {
        push("sssp-concurrent", options);
      }
      HdeOptions parallel = options;
      parallel.sssp_engine = SsspEngine::Parallel;
      push("sssp-parallel", parallel);
      HdeOptions dijkstra = options;
      dijkstra.kernel = DistanceKernel::Dijkstra;
      push("dijkstra", dijkstra);
      break;
    }
    case DistanceKernel::Dijkstra:
      push("dijkstra", options);
      break;
  }

  DistancePhase distances = [&] {
    obs::Phase bfs(result.timings, phase::kBfs);
    return resilience::RunLadder(
        phase::kBfs, options.resilience,
        options.resilience.distance_budget_seconds, rungs.data(),
        rungs.size(), [&](std::size_t rung) {
          DistancePhase phase = RunDistancePhase(graph, configs[rung]);
          // A poisoned traversal (injected or real) surfaces here as a
          // typed kNumerical the ladder can absorb, not as corrupt
          // coordinates.
          CheckMatrixFinite(phase.B, phase::kBfs, "distance matrix");
          return phase;
        });
  }();
  result.timings.Merge(distances.timings);
  result.pivots = std::move(distances.pivots);
  result.bfs_stats = distances.stats;
  return std::move(distances.B);
}

}  // namespace parhde
