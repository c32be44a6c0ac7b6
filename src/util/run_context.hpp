// Per-run execution context: the owner of everything that used to be
// process-global per-run state.
//
// A RunContext holds one run's counter/series shards (obs::CounterStore),
// trace rings (obs::TraceStore), per-thread phase table and open-phase
// chain (obs::ThreadPhaseTable), deadline token (resilience::DeadlineToken),
// fault plan (resilience::FaultPlan), recovery log
// (resilience::RecoveryLog), and the run PRNG seed. Kernels and the obs
// layer keep their existing free-function APIs; those now resolve through
// CurrentRunContext(), which reads a thread-local pointer installed by the
// RAII ScopedRunContext and falls back to a default global context —
// single-run tools (CLI, benches, tests) therefore behave exactly as
// before without touching a single call site.
//
// OpenMP propagation: the thread-local pointer does not cross the fork
// into a parallel region (OpenMP workers are pool threads with their own
// TLS), so each team thread must re-install the caller's context. The
// loop primitives ParallelFor/ParallelReduce (util/parallel.hpp) do that
// for every kernel; Δ-stepping's persistent region is the one hand-written
// binding. ScopedRunContext is the one install helper: the same class
// activates a request context on a service worker and binds a team
// thread. Without the team binding, a DeadlinePoll() inside an
// `omp single` (Δ-stepping) would consult the GLOBAL token and miss the
// request's deadline entirely, and counter flushes from worker threads
// would land in the wrong store.
//
// Concurrency: two RunContexts are fully independent — the layout service
// runs one per request, so deadline'd and deadline-free requests execute
// concurrently with disjoint counters (the exclusive "deadline lane" the
// server used to need is gone). At request completion the service folds
// the request context into the global one (MergeInto), preserving
// process-wide service.* totals.
//
// What stays process-global, deliberately: the hwperf perf_event layer
// (per-OS-thread fds and its accumulation table; the service never enables
// --hw-counters, so it is inert under concurrency), peak RSS and the
// environment snapshot (process-wide by nature), and the tracer's enable
// flag + epoch (an operator switch and a shared timebase).
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/counters.hpp"
#include "obs/thread_stats.hpp"
#include "obs/trace.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/recovery_log.hpp"

namespace parhde::util {

class RunContext {
 public:
  RunContext();
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  obs::CounterStore& counters() { return counters_; }
  const obs::CounterStore& counters() const { return counters_; }
  obs::TraceStore& trace() { return trace_; }
  const obs::TraceStore& trace() const { return trace_; }
  obs::ThreadPhaseTable& thread_stats() { return thread_stats_; }
  const obs::ThreadPhaseTable& thread_stats() const { return thread_stats_; }
  resilience::DeadlineToken& deadline() { return deadline_; }
  const resilience::DeadlineToken& deadline() const { return deadline_; }
  resilience::FaultPlan& faults() { return faults_; }
  const resilience::FaultPlan& faults() const { return faults_; }
  resilience::RecoveryLog& recovery() { return recovery_; }
  const resilience::RecoveryLog& recovery() const { return recovery_; }

  /// The seed this run's PRNG streams derive from (set by the CLI from
  /// --seed, by the service from the request). Bookkeeping state: the
  /// kernels still receive the seed through their options structs.
  std::uint64_t run_seed() const {
    return run_seed_.load(std::memory_order_relaxed);
  }
  void set_run_seed(std::uint64_t seed) {
    run_seed_.store(seed, std::memory_order_relaxed);
  }

  /// Clears the run-scoped observability state: counters, series, trace
  /// events, thread-phase table, recovery log, and fault fired-counters
  /// (the fault plan itself stays installed). The context must be
  /// quiescent.
  void ResetRunState();

  /// Folds this (quiescent) context's counters, series, and recovery
  /// attempts into `dst` — the service calls this with the global context
  /// at request completion so process-wide totals survive the per-request
  /// isolation. Trace rings and the thread-phase table are NOT merged:
  /// they are per-run diagnostics whose thread ids only make sense within
  /// one context's team. `dst` may be concurrently written.
  void MergeInto(RunContext& dst) const;

  /// RunContexts currently alive, the global one included once it has been
  /// constructed.
  static std::int64_t LiveCount();

 private:
  obs::CounterStore counters_;
  obs::TraceStore trace_;
  obs::ThreadPhaseTable thread_stats_;
  resilience::DeadlineToken deadline_;
  resilience::FaultPlan faults_;
  resilience::RecoveryLog recovery_;
  std::atomic<std::uint64_t> run_seed_{0};
};

/// The default context: lazily constructed, never destroyed. Everything
/// that does not install its own context runs against it.
RunContext& GlobalRunContext();

/// The calling thread's active context: the innermost ScopedRunContext's,
/// or the global one. Never nullptr.
RunContext* CurrentRunContext();

/// RAII installer for the thread-local current-context pointer. Used both
/// to activate a context on a control thread (service worker, test) and to
/// bind OpenMP team threads at parallel-region entry (see file comment).
/// Nesting saves and restores the previous pointer.
class ScopedRunContext {
 public:
  explicit ScopedRunContext(RunContext& ctx);
  ~ScopedRunContext();

  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  RunContext* prev_;
};

/// Process-unique small ordinal for the calling thread (assigned on first
/// use, stable for the thread's lifetime). Per-context stores key their
/// per-thread shards/rings by this, so a thread that returns to a store
/// after touching another re-finds its shard instead of leaking a new one.
int ThisThreadOrdinal();

}  // namespace parhde::util
