#include "obs/thread_stats.hpp"

#include <omp.h>

#include <chrono>
#include <cstring>

#include "obs/phase.hpp"
#include "util/run_context.hpp"

namespace parhde::obs {
namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct PhaseRow {
  const char* name = nullptr;
  double seconds[kMaxTrackedThreads] = {};
  std::int64_t regions[kMaxTrackedThreads] = {};
  // Written only by the serial control thread (obs::Phase dtor).
  std::int64_t rss_delta_bytes = 0;
};

ThreadPhaseTable::ThreadPhaseTable() = default;
ThreadPhaseTable::~ThreadPhaseTable() = default;

const char* ThreadPhaseTable::CurrentPhase() const {
  const Phase* open = open_phase_.load(std::memory_order_acquire);
  return open == nullptr ? nullptr : open->name();
}

Phase* ThreadPhaseTable::ExchangeOpenPhase(Phase* phase) {
  return open_phase_.exchange(phase, std::memory_order_acq_rel);
}

/// Index of `phase` in the table, registering it on first sight. Lock-free
/// on the lookup path: row pointers are append-only and `num_phases_` is
/// released after the row is allocated and named.
int ThreadPhaseTable::SlotFor(const char* phase) {
  const int n = num_phases_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const char* name = rows_[i]->name;
    if (name == phase || std::strcmp(name, phase) == 0) return i;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const int m = num_phases_.load(std::memory_order_relaxed);
  for (int i = n; i < m; ++i) {  // re-check rows added while we waited
    const char* name = rows_[i]->name;
    if (name == phase || std::strcmp(name, phase) == 0) return i;
  }
  if (m >= kMaxTrackedPhases) return -1;
  rows_[m] = std::make_unique<PhaseRow>();
  rows_[m]->name = phase;
  num_phases_.store(m + 1, std::memory_order_release);
  return m;
}

void ThreadPhaseTable::AddTime(const char* phase, int tid, double seconds) {
  if (phase == nullptr || tid < 0 || tid >= kMaxTrackedThreads) return;
  const int slot = SlotFor(phase);
  if (slot < 0) return;
  PhaseRow& row = *rows_[slot];
  // Cell (slot, tid) is only ever written by OpenMP thread `tid` of this
  // context's team, and the regions charging to it never overlap in time.
  row.seconds[tid] += seconds;
  row.regions[tid] += 1;
}

void ThreadPhaseTable::AddRssDelta(const char* phase, std::int64_t bytes) {
  if (phase == nullptr || bytes <= 0) return;
  const int slot = SlotFor(phase);
  if (slot < 0) return;
  rows_[slot]->rss_delta_bytes += bytes;
}

std::vector<ThreadPhaseStats> ThreadPhaseTable::Snapshot() const {
  std::vector<ThreadPhaseStats> out;
  const int n = num_phases_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const PhaseRow& row = *rows_[i];
    ThreadPhaseStats stats;
    stats.phase = row.name;
    double total = 0.0;
    for (int t = 0; t < kMaxTrackedThreads; ++t) {
      if (row.regions[t] == 0) continue;
      const double sec = row.seconds[t];
      if (stats.threads == 0 || sec < stats.min_seconds) {
        stats.min_seconds = sec;
      }
      if (stats.threads == 0 || sec > stats.max_seconds) {
        stats.max_seconds = sec;
      }
      total += sec;
      stats.regions += row.regions[t];
      ++stats.threads;
    }
    stats.rss_delta_bytes = row.rss_delta_bytes;
    // Keep phases whose contexts saw RSS growth even when no instrumented
    // region ran under them (a serial allocation-heavy phase).
    if (stats.threads == 0 && stats.rss_delta_bytes == 0) continue;
    if (stats.threads > 0) {
      stats.mean_seconds = total / stats.threads;
      stats.imbalance = stats.mean_seconds > 0.0
                            ? stats.max_seconds / stats.mean_seconds
                            : 0.0;
    }
    out.push_back(std::move(stats));
  }
  return out;
}

void ThreadPhaseTable::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int n = num_phases_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    std::memset(rows_[i]->seconds, 0, sizeof(rows_[i]->seconds));
    std::memset(rows_[i]->regions, 0, sizeof(rows_[i]->regions));
    rows_[i]->rss_delta_bytes = 0;
  }
}

ScopedRegionTimer::ScopedRegionTimer()
    : table_(&util::CurrentRunContext()->thread_stats()),
      phase_(table_->CurrentPhase()) {
  if (phase_ != nullptr) {
    tid_ = omp_get_thread_num();
    HwRegionBegin(hw_);  // one relaxed load unless --hw-counters armed it
    start_ns_ = NowNs();
  }
}

ScopedRegionTimer::~ScopedRegionTimer() {
  if (phase_ != nullptr) {
    const double seconds = static_cast<double>(NowNs() - start_ns_) * 1e-9;
    table_->AddTime(phase_, tid_, seconds);
    HwRegionEnd(hw_, phase_, tid_, seconds);
  }
}

std::vector<ThreadPhaseStats> SnapshotThreadStats() {
  return util::CurrentRunContext()->thread_stats().Snapshot();
}

void ResetThreadStats() {
  util::CurrentRunContext()->thread_stats().Reset();
}

}  // namespace parhde::obs
