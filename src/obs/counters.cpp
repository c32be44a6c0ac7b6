#include "obs/counters.hpp"

#include <atomic>

#include "util/run_context.hpp"

namespace parhde::obs {
namespace {

constexpr int kNumCounters = static_cast<int>(Counter::kCounterCount);
constexpr int kNumSeries = static_cast<int>(Series::kSeriesCount);

/// Monotone store ids. 0 is reserved as "cache empty".
std::atomic<std::uint64_t> g_next_store_id{1};

/// The calling thread's shard in the store it touched last. One entry is
/// enough: a thread switches stores at request boundaries (service worker
/// picking up a new context, merge into the global store), never inside a
/// kernel.
struct ShardCache {
  std::uint64_t store_id = 0;
  CounterShard* shard = nullptr;
};
thread_local ShardCache t_shard_cache;

}  // namespace

struct alignas(64) CounterShard {
  std::array<std::int64_t, kNumCounters> values{};
};

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kBfsSearches: return "bfs.searches";
    case Counter::kBfsLevels: return "bfs.levels";
    case Counter::kBfsTopDownSteps: return "bfs.top_down_steps";
    case Counter::kBfsSerialSteps: return "bfs.serial_steps";
    case Counter::kBfsBottomUpSteps: return "bfs.bottom_up_steps";
    case Counter::kBfsDirectionSwitches: return "bfs.direction_switches";
    case Counter::kBfsEdgesExamined: return "bfs.edges_examined";
    case Counter::kBfsFrontierVertices: return "bfs.frontier_vertices";
    case Counter::kSerialBfsSearches: return "bfs.serial_searches";
    case Counter::kMsBfsBatches: return "msbfs.batches";
    case Counter::kMsBfsLevels: return "msbfs.levels";
    case Counter::kMsBfsSparseSteps: return "msbfs.sparse_steps";
    case Counter::kMsBfsDenseSteps: return "msbfs.dense_steps";
    case Counter::kMsBfsEdgesExamined: return "msbfs.edges_examined";
    case Counter::kMsBfsLanesActive: return "msbfs.lanes_active";
    case Counter::kSsspSearches: return "sssp.searches";
    case Counter::kSsspRelaxations: return "sssp.relaxations";
    case Counter::kSsspBucketRounds: return "sssp.bucket_rounds";
    case Counter::kSsspOverflowRebins: return "sssp.overflow_rebins";
    case Counter::kSsspSequentialSearches: return "sssp.sequential_searches";
    case Counter::kDOrthoKeptColumns: return "dortho.kept_columns";
    case Counter::kDOrthoDroppedColumns: return "dortho.dropped_columns";
    case Counter::kDOrthoSweeps: return "dortho.projection_sweeps";
    case Counter::kEigenJacobiSweeps: return "eigen.jacobi_sweeps";
    case Counter::kEigenPowerFallbacks: return "eigen.power_fallbacks";
    case Counter::kSpmmCalls: return "spmm.calls";
    case Counter::kSpmmEdgeSweeps: return "spmm.edge_sweeps";
    case Counter::kSpmmBlockedColumns: return "spmm.blocked_columns";
    case Counter::kSpmmBlockWidthSum: return "spmm.block_width_sum";
    case Counter::kDeadlineExpirations: return "deadline.expirations";
    case Counter::kRecoveryRetries: return "recovery.retries";
    case Counter::kFaultsInjected: return "fault.injected_total";
    case Counter::kServiceRequests: return "service.requests";
    case Counter::kServiceShed: return "service.shed";
    case Counter::kServiceCacheHits: return "service.cache_hits";
    case Counter::kServiceCacheMisses: return "service.cache_misses";
    case Counter::kServiceQueuePeak: return "service.queue_peak";
    case Counter::kCounterCount: break;
  }
  return "unknown";
}

const char* SeriesName(Series s) {
  switch (s) {
    case Series::kBfsFrontierSizes: return "bfs.frontier_sizes";
    case Series::kMsBfsFrontierSizes: return "msbfs.frontier_sizes";
    case Series::kSeriesCount: break;
  }
  return "unknown";
}

CounterStore::CounterStore()
    : id_(g_next_store_id.fetch_add(1, std::memory_order_relaxed)) {}

CounterStore::~CounterStore() = default;

CounterShard& CounterStore::LocalShard() {
  if (t_shard_cache.store_id == id_) return *t_shard_cache.shard;
  const int tid = util::ThisThreadOrdinal();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [owner, shard] : shards_) {
    if (owner == tid) {
      t_shard_cache = {id_, shard.get()};
      return *shard;
    }
  }
  shards_.emplace_back(tid, std::make_unique<CounterShard>());
  t_shard_cache = {id_, shards_.back().second.get()};
  return *shards_.back().second;
}

void CounterStore::Add(Counter c, std::int64_t value) {
  LocalShard().values[static_cast<std::size_t>(c)] += value;
}

std::int64_t CounterStore::Value(Counter c) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const auto& [owner, shard] : shards_) {
    total += shard->values[static_cast<std::size_t>(c)];
  }
  return total;
}

std::vector<CounterSnapshot> CounterStore::Snapshot() const {
  std::vector<CounterSnapshot> out;
  out.reserve(kNumCounters);
  std::lock_guard<std::mutex> lock(mutex_);
  for (int i = 0; i < kNumCounters; ++i) {
    std::int64_t total = 0;
    for (const auto& [owner, shard] : shards_) {
      total += shard->values[static_cast<std::size_t>(i)];
    }
    out.push_back({CounterName(static_cast<Counter>(i)), total});
  }
  return out;
}

void CounterStore::Append(Series s, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  SeriesData& data = series_[static_cast<std::size_t>(s)];
  if (data.values.size() < kSeriesCap) {
    data.values.push_back(value);
  } else {
    ++data.dropped;
  }
}

std::vector<std::int64_t> CounterStore::Values(Series s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_[static_cast<std::size_t>(s)].values;
}

std::int64_t CounterStore::Dropped(Series s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_[static_cast<std::size_t>(s)].dropped;
}

void CounterStore::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [owner, shard] : shards_) shard->values.fill(0);
  for (auto& data : series_) {
    data.values.clear();
    data.dropped = 0;
  }
}

void CounterStore::MergeInto(CounterStore& dst) const {
  // Snapshot this (quiescent) store first, then apply to dst — never hold
  // both mutexes, so two completing requests can merge concurrently.
  std::array<std::int64_t, kNumCounters> totals{};
  std::array<SeriesData, kNumSeries> series_copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [owner, shard] : shards_) {
      for (int i = 0; i < kNumCounters; ++i) totals[i] += shard->values[i];
    }
    for (int i = 0; i < kNumSeries; ++i) series_copy[i] = series_[i];
  }
  for (int i = 0; i < kNumCounters; ++i) {
    if (totals[i] != 0) dst.Add(static_cast<Counter>(i), totals[i]);
  }
  std::lock_guard<std::mutex> lock(dst.mutex_);
  for (int i = 0; i < kNumSeries; ++i) {
    SeriesData& out = dst.series_[i];
    for (const std::int64_t v : series_copy[i].values) {
      if (out.values.size() < kSeriesCap) {
        out.values.push_back(v);
      } else {
        ++out.dropped;
      }
    }
    out.dropped += series_copy[i].dropped;
  }
}

void CounterAdd(Counter c, std::int64_t value) {
  util::CurrentRunContext()->counters().Add(c, value);
}

std::int64_t CounterValue(Counter c) {
  return util::CurrentRunContext()->counters().Value(c);
}

void SeriesAppend(Series s, std::int64_t value) {
  util::CurrentRunContext()->counters().Append(s, value);
}

std::vector<std::int64_t> SeriesValues(Series s) {
  return util::CurrentRunContext()->counters().Values(s);
}

std::int64_t SeriesDropped(Series s) {
  return util::CurrentRunContext()->counters().Dropped(s);
}

std::vector<CounterSnapshot> SnapshotCounters() {
  return util::CurrentRunContext()->counters().Snapshot();
}

}  // namespace parhde::obs
