// obs::Phase — the one instrumentation primitive at every phase boundary
// (DESIGN.md §6). Opening a scope makes `name` the phase that
// ParallelFor/ParallelReduce region timers charge to. Closing it adds the
// scope's SELF seconds to `sink`, restores the previous phase, charges
// peak-RSS growth to the phase's per-thread row, and records one trace
// event named `name` with the full elapsed time.
//
// Self seconds = elapsed minus the elapsed time of the phases nested inside
// on the same run context, whatever sink they book into: BFS:Other nested
// in BFS books each second once, and the phases of a run never overlap.
// The open-phase chain lives in the run context's ThreadPhaseTable, so
// concurrent runs nest independently. Open and close phases on the
// context's control thread, never inside a parallel region. `name` must
// outlive the run (phase:: constants or literals): only the pointer is
// kept.
#pragma once

#include <cstdint>

#include "util/timer.hpp"

namespace parhde::obs {

class ThreadPhaseTable;

class Phase {
 public:
  Phase(PhaseTimings& sink, const char* name);
  ~Phase();

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  [[nodiscard]] const char* name() const { return name_; }

 private:
  PhaseTimings& sink_;
  const char* name_;
  ThreadPhaseTable* table_;  // the run context's table, bound at entry
  Phase* parent_;            // the enclosing open phase, or nullptr
  std::int64_t rss_entry_;   // getrusage peak RSS at entry (-1: unknown)
  std::uint64_t start_ns_;
  std::uint64_t nested_ns_ = 0;  // elapsed time of closed child phases
};

}  // namespace parhde::obs
