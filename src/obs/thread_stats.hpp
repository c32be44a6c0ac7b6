// Per-thread phase timing — the instrument behind Fig. 4-style scaling
// analysis. Wall-clock phase totals say *that* a phase stops scaling;
// per-thread busy times inside the phase's OpenMP regions say *why*
// (imbalance ratio max/mean >> 1 means stragglers, ~1 means the phase is
// memory-bound or serial-fraction-bound).
//
// Attribution follows the innermost open obs::Phase (obs/phase.hpp) rather
// than hard-coded names: every instrumented OpenMP region (BFS steps,
// Gram-Schmidt kernels, the fused SpMM, the small GEMM) charges its
// per-thread elapsed time to the phase open when it starts. Regions
// executing with no open phase (library calls from tests, LOBPCG, ...)
// record nothing and pay one atomic load. This keeps shared kernels like
// TransposeTimes correctly attributed: under ParHDE it books to
// "TripleProd:GEMM", under PHDE to "MatMul".
//
// Ownership: the [phase][thread] table lives in a ThreadPhaseTable owned
// by a util::RunContext, resolved once per phase / region timer.
// This is what keeps the single-writer cell invariant true under the
// layout service: two concurrent requests each run their own OpenMP team,
// and omp_get_thread_num() values COLLIDE across teams — with one global
// table those teams would race on the same cells; with one table per
// request context each cell again has exactly one writer (the region
// timers bind to the team's context, see util/run_context.hpp).
//
// Storage is a per-context table of plain doubles: each (phase, tid) cell
// is written only by OpenMP thread `tid` of the context's single team.
// Phase rows are registered append-only under a mutex and allocated
// lazily, so an idle context costs a few hundred bytes, not the full
// 32-phase table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hwperf.hpp"

namespace parhde::obs {

/// Upper bounds for one context's table. 256 threads covers any node the
/// paper targets; regions on threads beyond the cap are silently ignored.
inline constexpr int kMaxTrackedThreads = 256;
inline constexpr int kMaxTrackedPhases = 32;

/// Reduced per-phase statistics over the threads that recorded time.
struct ThreadPhaseStats {
  std::string phase;
  int threads = 0;        // threads with nonzero recorded time
  std::int64_t regions = 0;  // region executions summed over threads
  double min_seconds = 0.0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
  /// max/mean busy time: 1.0 = perfectly balanced. 0 when mean is 0.
  double imbalance = 0.0;
  /// Peak-RSS growth (bytes, getrusage high-water delta) observed while
  /// this phase's contexts were active. 0 when the phase allocated
  /// nothing new — peak RSS is monotone over the process lifetime.
  std::int64_t rss_delta_bytes = 0;
};

/// One phase's [thread] row; defined in thread_stats.cpp.
struct PhaseRow;

class Phase;

/// Per-run [phase][thread] timing table. One instance per
/// util::RunContext; obs::Phase and ScopedRegionTimer resolve the active
/// instance once at construction.
class ThreadPhaseTable {
 public:
  ThreadPhaseTable();
  ~ThreadPhaseTable();

  ThreadPhaseTable(const ThreadPhaseTable&) = delete;
  ThreadPhaseTable& operator=(const ThreadPhaseTable&) = delete;

  /// The phase instrumented regions currently charge to: the innermost
  /// open obs::Phase's name, or nullptr.
  const char* CurrentPhase() const;

  /// Makes `phase` the innermost open phase; returns the previous one.
  /// Called by obs::Phase on entry and exit.
  Phase* ExchangeOpenPhase(Phase* phase);

  /// Charges `seconds` of busy time on OpenMP thread `tid` to `phase`.
  void AddTime(const char* phase, int tid, double seconds);

  /// Charges peak-RSS growth observed during `phase` to its row.
  void AddRssDelta(const char* phase, std::int64_t bytes);

  /// Stats for every phase that recorded any time, in registration order.
  std::vector<ThreadPhaseStats> Snapshot() const;

  /// Zeroes the table. Not thread-safe against concurrent recording.
  void Reset();

 private:
  int SlotFor(const char* phase);

  /// The innermost open phase. Written by the context's serial control
  /// thread (obs::Phase), read by workers inside its parallel regions; the
  /// OpenMP fork/join provides the ordering, the atomic keeps the access
  /// data-race-free for the sanitizers.
  std::atomic<Phase*> open_phase_{nullptr};
  mutable std::mutex mutex_;  // guards slot registration only
  std::atomic<int> num_phases_{0};
  /// Fixed pointer array so the lock-free lookup path never races a
  /// reallocation; rows allocate on first registration.
  std::unique_ptr<PhaseRow> rows_[kMaxTrackedPhases];
};

/// RAII timer for use INSIDE an OpenMP parallel region: times this thread's
/// execution of the region body and charges it to the innermost open phase.
/// ParallelFor/ParallelReduce (util/parallel.hpp) start one per team thread
/// after binding the run context; kernels never construct it themselves.
/// Costs one TLS read + one atomic load when no phase is open.
class ScopedRegionTimer {
 public:
  ScopedRegionTimer();
  ~ScopedRegionTimer();

  ScopedRegionTimer(const ScopedRegionTimer&) = delete;
  ScopedRegionTimer& operator=(const ScopedRegionTimer&) = delete;

 private:
  ThreadPhaseTable* table_;  // the table phase_ was read from
  const char* phase_;        // nullptr: no phase was open at entry
  int tid_ = 0;
  std::uint64_t start_ns_ = 0;
  HwRegionSample hw_;        // inert unless --hw-counters enabled the layer
};

/// Stats for the active context's phases, in registration order.
std::vector<ThreadPhaseStats> SnapshotThreadStats();

/// Zeroes the active context's table. Not thread-safe against concurrent
/// recording.
void ResetThreadStats();

}  // namespace parhde::obs
