// Work-counter store with per-thread sharded accumulators.
//
// The paper attributes every speedup (and every scaling cliff) to traversal
// work: frontier sizes, direction switches, lane occupancy, relaxations.
// This store makes those quantities first-class: kernels add to a fixed
// enum of counters, the report layer snapshots the merged totals.
//
// Ownership model: counters live in a CounterStore owned by a
// util::RunContext. Kernels keep calling the free functions below, which
// resolve the store through the active context (util::CurrentRunContext())
// — the default global context preserves the old one-run-per-process
// behavior, while the layout service gives every request its own store so
// concurrent runs cannot observe each other's work.
//
// Concurrency model: Add() goes to a cache-line-padded per-thread shard —
// no atomics, no locks, no false sharing in the hot path. A thread's shard
// pointer for the store it last touched is cached thread-locally (keyed by
// a process-unique store id, so a recycled store address can never alias a
// stale cache entry); switching stores costs one mutex acquisition.
// Kernels flush *aggregated* counts once per call or once per step, never
// per edge, so even the shard write is off the innermost loops.
//
// Bounded series (per-iteration frontier sizes) complement the scalar
// counters: appended once per BFS level under a mutex, capped so a
// pathological run cannot grow memory without bound.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace parhde::obs {

/// Every scalar counter the subsystem knows. Values are indices into the
/// shard arrays; append new counters before kCounterCount.
enum class Counter : int {
  kBfsSearches = 0,       // direction-optimizing BFS runs
  kBfsLevels,             // level iterations summed over searches
  kBfsTopDownSteps,       // push steps taken, serial ones included
  kBfsSerialSteps,        // push steps small enough to run serially
  kBfsBottomUpSteps,      // pull steps taken
  kBfsDirectionSwitches,  // push<->pull transitions (both directions)
  kBfsEdgesExamined,      // arcs touched across all steps
  kBfsFrontierVertices,   // sum of per-level frontier sizes
  kSerialBfsSearches,     // serial traversals (random-pivot phase, probes)
  kMsBfsBatches,          // 64-wide MS-BFS batches
  kMsBfsLevels,
  kMsBfsSparseSteps,
  kMsBfsDenseSteps,
  kMsBfsEdgesExamined,
  kMsBfsLanesActive,      // lanes summed over batches: occupancy numerator
  kSsspSearches,          // delta-stepping runs
  kSsspRelaxations,       // edge relaxations attempted (all SSSP engines)
  kSsspBucketRounds,      // shared-bucket drain iterations
  kSsspOverflowRebins,    // Δ-stepping window jumps re-binning overflow
  kSsspSequentialSearches,  // sequential Dijkstras (concurrent driver)
  kDOrthoKeptColumns,     // columns surviving D-orthogonalization
  kDOrthoDroppedColumns,  // columns dropped for near-dependence
  kDOrthoSweeps,          // n-length passes over projection targets
  kEigenJacobiSweeps,     // cyclic Jacobi sweeps until convergence
  kEigenPowerFallbacks,   // times the power-iteration fallback ran
  kSpmmCalls,             // fused L*S products (per-column or blocked)
  kSpmmEdgeSweeps,        // full CSR traversals across those products
  kSpmmBlockedColumns,    // columns processed by the blocked kernel
  kSpmmBlockWidthSum,     // sum of chosen block widths (avg = sum/calls)
  kDeadlineExpirations,   // phase/run deadlines that expired into a throw
  kRecoveryRetries,       // ladder downgrades taken after a retryable error
  kFaultsInjected,        // total fault-site fires (injection builds only)
  kServiceRequests,       // frames admitted to the layout service queue
  kServiceShed,           // requests load-shed because the queue was full
  kServiceCacheHits,      // graph-cache hits (in-memory LRU or snapshot)
  kServiceCacheMisses,    // graph-cache misses (full parse + CSR build)
  kServiceQueuePeak,      // admission-queue high-water mark (monotone: the
                          // queue adds only the increments, so the merged
                          // total IS the peak depth observed)
  kCounterCount,
};

/// Stable dotted name for a counter ("bfs.direction_switches", ...). These
/// names are the JSON keys of the run report — part of the interface.
const char* CounterName(Counter c);

/// Bounded event series recorded alongside the scalar counters.
enum class Series : int {
  kBfsFrontierSizes = 0,    // per-level frontier vertex counts
  kMsBfsFrontierSizes,      // per-level aggregate frontier counts (MS-BFS)
  kSeriesCount,
};

const char* SeriesName(Series s);

/// Maximum entries retained per series; later appends are counted but
/// discarded (the report records the truncation).
inline constexpr std::size_t kSeriesCap = 16384;

struct CounterSnapshot {
  std::string name;
  std::int64_t value = 0;
};

/// One thread's counter block, padded out to whole cache lines so two
/// threads' shards never share a line. Defined in counters.cpp.
struct CounterShard;

/// Per-run counter + series storage. One instance per util::RunContext;
/// kernels reach the active instance through the free functions below.
/// Add() is lock-free after a thread's first touch of the store; snapshots
/// and series take the store mutex.
class CounterStore {
 public:
  CounterStore();
  ~CounterStore();

  CounterStore(const CounterStore&) = delete;
  CounterStore& operator=(const CounterStore&) = delete;

  /// Adds `value` to the calling thread's shard of `c`.
  void Add(Counter c, std::int64_t value);

  /// Merged total of `c` across all thread shards.
  std::int64_t Value(Counter c) const;

  /// Merged totals for all counters, in enum order (zeros included, so the
  /// report schema is stable run-to-run).
  std::vector<CounterSnapshot> Snapshot() const;

  /// Appends one observation to `s` (mutex-guarded; once-per-level cost).
  void Append(Series s, std::int64_t value);

  /// Snapshot of a series: retained values (up to kSeriesCap).
  std::vector<std::int64_t> Values(Series s) const;

  /// Observations discarded after the cap, for truncation reporting.
  std::int64_t Dropped(Series s) const;

  /// Zeroes every shard and clears every series. The store must be
  /// quiescent (no concurrent Add/Append).
  void Reset();

  /// Folds this store's totals and series into `dst` (cap semantics
  /// apply; overflow counts as dropped). This store must be quiescent;
  /// `dst` may be concurrently written — the service merges completed
  /// request contexts into the global one this way.
  void MergeInto(CounterStore& dst) const;

 private:
  struct SeriesData {
    std::vector<std::int64_t> values;
    std::int64_t dropped = 0;
  };

  CounterShard& LocalShard();

  /// Process-unique id; the key of the thread-local shard cache. Using the
  /// id rather than `this` makes a recycled store address harmless.
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  /// (thread ordinal, shard) pairs; a thread re-finds its shard after its
  /// cache entry was displaced by another store instead of registering a
  /// duplicate.
  std::vector<std::pair<int, std::unique_ptr<CounterShard>>> shards_;
  std::array<SeriesData, static_cast<std::size_t>(Series::kSeriesCount)>
      series_;
};

/// Adds `value` to the active context's store of `c`. Lock-free after the
/// thread's first call against that store. Call once per kernel invocation
/// or per step with an aggregated value — never from a per-edge loop.
void CounterAdd(Counter c, std::int64_t value);

/// Merged total of `c` in the active context.
std::int64_t CounterValue(Counter c);

/// Appends one observation to `s` in the active context.
void SeriesAppend(Series s, std::int64_t value);

/// Snapshot of a series in the active context.
std::vector<std::int64_t> SeriesValues(Series s);

/// Observations discarded after the cap, for truncation reporting.
std::int64_t SeriesDropped(Series s);

/// Merged totals for all counters in the active context.
std::vector<CounterSnapshot> SnapshotCounters();

}  // namespace parhde::obs
