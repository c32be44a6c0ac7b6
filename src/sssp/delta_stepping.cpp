#include "sssp/delta_stepping.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "obs/counters.hpp"
#include "obs/thread_stats.hpp"
#include "obs/trace.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"
#include "util/run_context.hpp"

namespace parhde {
namespace {

constexpr std::size_t kOverflowSlot = kSsspWindowSlots;
constexpr std::size_t kNoBucket = std::numeric_limits<std::size_t>::max();

/// Bucket ids are clamped below the size_t range so a pathological
/// weight-to-Δ ratio cannot overflow the double→size_t cast; merging the
/// far tail into one id only coarsens processing order, never correctness.
constexpr std::size_t kMaxBucketId = kNoBucket / 4;

/// Entries one thread drains from its own current-bucket bin before giving
/// the refilled remainder back to the shared schedule (GAP's bin-size
/// threshold): bounds the work a single thread can absorb unshared when a
/// light-edge chain keeps refilling the current bucket.
constexpr std::size_t kSelfDrainCap = 1000;

/// Lock-free monotone decrease of an atomic distance. Returns true if this
/// call made dist[v] strictly smaller.
bool AtomicRelax(std::atomic<weight_t>& slot, weight_t candidate) {
  weight_t current = slot.load(std::memory_order_relaxed);
  while (candidate < current) {
    if (slot.compare_exchange_weak(current, candidate,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

std::size_t BucketOf(weight_t d, weight_t inv_delta) {
  const double q = d * inv_delta;
  return q >= static_cast<double>(kMaxBucketId)
             ? kMaxBucketId
             : static_cast<std::size_t>(q);
}

void AtomicMin(std::atomic<std::size_t>& slot, std::size_t candidate) {
  std::size_t current = slot.load(std::memory_order_relaxed);
  while (candidate < current &&
         !slot.compare_exchange_weak(current, candidate,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

weight_t DefaultDelta(const CsrGraph& graph) {
  if (!graph.HasWeights() || graph.NumArcs() == 0) return 1.0;
  const auto& weights = graph.Weights();
  const auto arcs = static_cast<std::int64_t>(weights.size());
  // Block-ordered fold: the same Δ at every thread count.
  const weight_t total = ParallelReduce(
      arcs, kStreamGrain, weight_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        return std::accumulate(weights.begin() + lo, weights.begin() + hi,
                               weight_t{0});
      },
      std::plus<>());
  return std::max<weight_t>(total / static_cast<weight_t>(arcs), 1e-12);
}

weight_t MaxEdgeWeight(const CsrGraph& graph) {
  if (!graph.HasWeights() || graph.NumArcs() == 0) return 1.0;
  const auto& weights = graph.Weights();
  return ParallelReduce(
      static_cast<std::int64_t>(weights.size()), kStreamGrain, weight_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        return *std::max_element(weights.begin() + lo, weights.begin() + hi);
      },
      [](weight_t a, weight_t b) { return std::max(a, b); });
}

SsspResult DeltaStepping(const CsrGraph& graph, vid_t source,
                         const DeltaSteppingOptions& options) {
  PARHDE_TRACE_SPAN("sssp.delta_stepping");
  const vid_t n = graph.NumVertices();
  assert(source >= 0 && source < n);
  const bool weighted = graph.HasWeights();

  const weight_t delta =
      options.delta > 0.0 ? options.delta : DefaultDelta(graph);
  const weight_t inv_delta = 1.0 / delta;

  SsspResult result;
  result.stats.delta_used = delta;
  std::vector<std::atomic<weight_t>> dist(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (vid_t v = 0; v < n; ++v) {
    dist[static_cast<std::size_t>(v)].store(kInfWeight,
                                            std::memory_order_relaxed);
  }
  dist[static_cast<std::size_t>(source)].store(0.0, std::memory_order_relaxed);

  // Per-thread bins: the cyclic window of open buckets plus one overflow
  // bin. The arrays are fixed-size for the whole search — a relaxation can
  // push into a bin but never reshape the bin structure, so there is no
  // cross-thread size to snapshot and no unbounded resize.
  using Bins = std::vector<std::vector<vid_t>>;
  const int max_threads = omp_get_max_threads();
  std::vector<Bins> all_bins(static_cast<std::size_t>(max_threads),
                             Bins(kSsspWindowSlots + 1));
  // Per-thread publish counts, rewritten into exclusive offsets each round.
  std::vector<std::size_t> publish_offsets(
      static_cast<std::size_t>(max_threads) + 1, 0);

  // Shared round state. `frontier` holds the bucket being drained; the
  // window of open buckets covers [window_base, window_base + slots) and
  // curr lies inside it. All of these are written only between barriers.
  std::vector<vid_t> frontier{source};
  std::vector<vid_t> incoming;
  std::size_t window_base = 0;
  std::size_t curr = 0;
  std::atomic<std::size_t> next{kNoBucket};
  std::int64_t rounds = 0;
  std::int64_t rebins = 0;
  std::int64_t relaxations = 0;
  // Deadline handling inside the persistent parallel region: one thread
  // polls the clock at the publish barrier (so every thread observes the
  // same verdict after it), all threads break together at the next round
  // top, and the throw happens after the region joins — an exception must
  // never escape an OpenMP parallel region.
  bool deadline_hit = false;

  util::RunContext* const run_ctx = util::CurrentRunContext();
#pragma omp parallel reduction(+ : relaxations)
  {
    util::ScopedRunContext run_scope(*run_ctx);
    obs::ScopedRegionTimer obs_timer;
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    Bins& bins = all_bins[tid];
    std::size_t overflow_min = kNoBucket;
    std::vector<vid_t> scratch;

    // Relaxes every edge of v (distance dv, in bucket `curr`), pushing
    // improved vertices into this thread's bins. Lock-free: the only shared
    // write is the CAS on the distance slot.
    auto relax_out_edges = [&](vid_t v, weight_t dv) {
      const auto nbrs = graph.Neighbors(v);
      const weight_t* wv =
          weighted ? graph.NeighborWeights(v).data() : nullptr;
      relaxations += static_cast<std::int64_t>(nbrs.size());
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const vid_t u = nbrs[e];
        const weight_t nd = dv + (wv ? wv[e] : 1.0);
        if (AtomicRelax(dist[static_cast<std::size_t>(u)], nd)) {
          const std::size_t b = BucketOf(nd, inv_delta);
          if (b < window_base + kSsspWindowSlots) {
            bins[b % kSsspWindowSlots].push_back(u);
          } else {
            bins[kOverflowSlot].push_back(u);
            overflow_min = std::min(overflow_min, b);
          }
        }
      }
    };

    while (true) {
      if (deadline_hit) break;  // uniform: set between barriers last round
      // Round top: every thread agrees on curr and frontier (the previous
      // round ended in a barrier). Phase 1: relax the shared frontier.
      const auto fsize = static_cast<std::int64_t>(frontier.size());
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t i = 0; i < fsize; ++i) {
        const vid_t v = frontier[static_cast<std::size_t>(i)];
        const weight_t dv =
            dist[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
        // Staleness check: v belongs to this bucket only if its current
        // distance still falls in it; otherwise it was (or will be)
        // processed elsewhere.
        if (BucketOf(dv, inv_delta) != curr) continue;
        relax_out_edges(v, dv);
      }

      // Light-edge relaxations refill the current bucket; drain our own
      // share immediately (capped) instead of paying a round per refill.
      auto& self = bins[curr % kSsspWindowSlots];
      std::size_t drained = 0;
      while (!self.empty() && drained < kSelfDrainCap) {
        scratch.swap(self);
        drained += scratch.size();
        for (const vid_t v : scratch) {
          const weight_t dv = dist[static_cast<std::size_t>(v)].load(
              std::memory_order_relaxed);
          if (BucketOf(dv, inv_delta) == curr) relax_out_edges(v, dv);
        }
        scratch.clear();
      }

      // Propose the next bucket: lowest non-empty open bucket at or after
      // curr, else this thread's overflow minimum. Overflow entries always
      // sit above every open bucket (they were pushed past the window), so
      // consulting them only when the window is empty preserves ordering.
      std::size_t proposal = kNoBucket;
      for (std::size_t b = curr; b < window_base + kSsspWindowSlots; ++b) {
        if (!bins[b % kSsspWindowSlots].empty()) {
          proposal = b;
          break;
        }
      }
      if (proposal == kNoBucket && !bins[kOverflowSlot].empty()) {
        proposal = overflow_min;
      }
      if (proposal != kNoBucket) AtomicMin(next, proposal);
#pragma omp barrier

      const std::size_t chosen = next.load(std::memory_order_relaxed);
      if (chosen == kNoBucket) break;  // every bin on every thread is empty

      if (chosen >= window_base + kSsspWindowSlots) {
        // Window jump: no thread had an open-bucket entry, so the cyclic
        // mapping can be re-anchored at `chosen`. Each thread re-bins its
        // own overflow against the new window; distances are quiescent
        // between the barriers. Entries whose distance has since dropped
        // below `chosen` were settled through the duplicate entry that
        // accompanied the decrease, so they are dropped here.
        scratch.swap(bins[kOverflowSlot]);
        overflow_min = kNoBucket;
        for (const vid_t v : scratch) {
          const weight_t dv = dist[static_cast<std::size_t>(v)].load(
              std::memory_order_relaxed);
          const std::size_t b = BucketOf(dv, inv_delta);
          if (b < chosen) continue;
          if (b < chosen + kSsspWindowSlots) {
            bins[b % kSsspWindowSlots].push_back(v);
          } else {
            bins[kOverflowSlot].push_back(v);
            overflow_min = std::min(overflow_min, b);
          }
        }
        scratch.clear();
#pragma omp barrier
#pragma omp single
        {
          window_base = chosen;
          ++rebins;
        }  // implicit barrier
      }

      // Publish bucket `chosen` into the next shared frontier: per-thread
      // counts, one exclusive prefix sum, one bulk copy per thread at its
      // own offset — no lock, no critical section.
      auto& out = bins[chosen % kSsspWindowSlots];
      publish_offsets[tid] = out.size();
#pragma omp barrier
#pragma omp single
      {
        const auto team = static_cast<std::size_t>(omp_get_num_threads());
        std::size_t total = 0;
        for (std::size_t t = 0; t < team; ++t) {
          const std::size_t count = publish_offsets[t];
          publish_offsets[t] = total;
          total += count;
        }
        incoming.resize(total);
        curr = chosen;
        next.store(kNoBucket, std::memory_order_relaxed);
        ++rounds;
        PARHDE_FAULT_STALL("sssp:stall");
        deadline_hit = resilience::DeadlinePoll();
      }  // implicit barrier
      std::copy(out.begin(), out.end(),
                incoming.begin() +
                    static_cast<std::ptrdiff_t>(publish_offsets[tid]));
      out.clear();
#pragma omp barrier
#pragma omp single
      { frontier.swap(incoming); }  // implicit barrier
    }
  }

  if (deadline_hit) resilience::ThrowDeadlineExceeded("SSSP");

  result.stats.relaxations = relaxations;
  result.stats.bucket_rounds = rounds + 1;  // + the seed round for bucket 0
  result.stats.overflow_rebins = rebins;
  // Flush aggregate work counters once per search — never per edge.
  obs::CounterAdd(obs::Counter::kSsspSearches, 1);
  obs::CounterAdd(obs::Counter::kSsspRelaxations, relaxations);
  obs::CounterAdd(obs::Counter::kSsspBucketRounds, result.stats.bucket_rounds);
  obs::CounterAdd(obs::Counter::kSsspOverflowRebins, rebins);
  result.dist.resize(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (vid_t v = 0; v < n; ++v) {
    result.dist[static_cast<std::size_t>(v)] =
        dist[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace parhde
