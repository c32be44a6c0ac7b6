// Hardware performance-counter attribution for the phase instrumentation.
//
// The paper's argument is machine-level — the kernels win because they
// keep IPC high and LLC misses low — so wall-clock phase breakdowns alone
// cannot *attribute* a speedup, only report it. This layer opens one
// perf_event_open(2) counter group per OpenMP thread (cycles,
// instructions, LLC references/misses, branch misses, stalled cycles,
// plus the software events task-clock, page-faults, context-switches)
// and piggybacks on the existing phase machinery: every
// ScopedRegionTimer inside an obs::Phase reads the groups at
// region entry and exit and charges the scaled deltas to the active
// phase. No kernel gains a call site; enabling the layer is a CLI flag.
//
// Availability is probed, never assumed. Containers and locked-down
// hosts (kernel.perf_event_paranoid, seccomp, missing PMU) routinely
// deny hardware events while still allowing software ones, or deny the
// syscall outright. The probe keeps whatever subset opens:
//   - full PMU          -> IPC, LLC miss rate, stalled fraction, ~DRAM GB/s
//   - software-only     -> task-clock / faults / context switches per phase
//   - nothing           -> hw.available=false + reason; phase timing is
//                          byte-identical to a build that never had this
//                          layer (one relaxed atomic load per region).
//
// Multiplexing: more requested events than PMU slots makes the kernel
// time-slice the group; deltas are scaled by time_enabled/time_running
// and the phase is flagged `multiplexed` so readers can distrust close
// calls. Set PARHDE_HWPERF_FORCE_DENY=1 to exercise the denied path
// deterministically (used by tests and the sanitizer CI jobs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace parhde::obs {

/// True when the layer is compiled in (-DPARHDE_HWPERF=ON, Linux).
#if defined(PARHDE_HWPERF) && PARHDE_HWPERF
inline constexpr bool kHwPerfCompiled = true;
#else
inline constexpr bool kHwPerfCompiled = false;
#endif

/// Collection granularity. kPhase aggregates counters over threads per
/// phase; kThread additionally keeps the per-thread rows (IPC imbalance).
enum class HwCounterMode : int { kOff = 0, kPhase, kThread };

const char* HwCounterModeName(HwCounterMode mode);

/// Every event the layer tries to open, hardware first. The probe drops
/// events the kernel refuses individually, so a host with (say) no LLC
/// events still counts cycles and instructions.
enum class HwEvent : int {
  kCycles = 0,
  kInstructions,
  kLlcReferences,
  kLlcMisses,
  kBranchMisses,
  kStalledCycles,      // backend stalls: the memory-bound diagnostic
  kTaskClockNs,        // software fallbacks from here down
  kPageFaults,
  kContextSwitches,
  kEventCount,
};

/// Stable dotted name ("hw.cycles", "sw.task_clock_ns", ...) — the JSON
/// keys of the run report's hw section.
const char* HwEventName(HwEvent e);

/// Per-phase totals (summed over threads; deltas multiplex-scaled).
struct HwPhaseCounters {
  std::string phase;
  int threads = 0;           // threads that recorded at least one region
  std::int64_t regions = 0;  // region executions summed over threads
  double seconds = 0.0;      // max per-thread busy seconds (~phase wall)
  bool multiplexed = false;  // any region saw time_running < time_enabled
  bool has[static_cast<int>(HwEvent::kEventCount)] = {};
  std::int64_t values[static_cast<int>(HwEvent::kEventCount)] = {};
  // Derived metrics; negative when the inputs were unavailable.
  double ipc = -1.0;             // instructions / cycles
  double llc_miss_rate = -1.0;   // llc_misses / llc_references
  double stalled_frac = -1.0;    // stalled_cycles / cycles
  double dram_gbps = -1.0;       // llc_misses * 64 B / seconds
};

/// One thread's share of one phase (mode kThread only).
struct HwThreadCounters {
  std::string phase;
  int tid = 0;
  double seconds = 0.0;
  bool has[static_cast<int>(HwEvent::kEventCount)] = {};
  std::int64_t values[static_cast<int>(HwEvent::kEventCount)] = {};
  double ipc = -1.0;
};

/// Everything the run report records about this layer.
struct HwPerfSnapshot {
  bool compiled = kHwPerfCompiled;
  HwCounterMode mode = HwCounterMode::kOff;  // requested mode
  bool available = false;  // at least one event opened
  std::string reason;      // why not, when unavailable ("" otherwise)
  std::vector<std::string> events;  // enabled event names, probe order
  std::vector<HwPhaseCounters> phases;
  std::vector<HwThreadCounters> threads;  // empty unless mode == kThread
};

/// Probes the events and switches collection on. Returns availability:
/// false leaves behavior exactly as kOff (plus a recorded reason). Safe
/// to call again with a different mode between runs; not while a
/// parallel region is executing instrumented work.
bool EnableHwCounters(HwCounterMode mode);

/// Stops collection (regions go back to one relaxed atomic load) and
/// closes every per-thread counter fd.
void DisableHwCounters();

/// The currently requested mode (kOff when disabled or unavailable).
HwCounterMode HwCountersMode();

/// True when EnableHwCounters found at least one openable event.
bool HwCountersAvailable();

/// Human-readable reason the last EnableHwCounters came up empty.
std::string HwCountersUnavailableReason();

/// True when `e` survived the probe and is being collected.
bool HwEventEnabled(HwEvent e);

/// Snapshot of the accumulated table + availability state.
HwPerfSnapshot SnapshotHwPerf();

/// Zeroes the accumulation table (counters stay open and enabled).
void ResetHwCounters();

/// Raw counter readings captured at region entry; embedded by value in
/// ScopedRegionTimer so the hot path allocates nothing. Layout: for each
/// of the two groups (hardware, software): time_enabled, time_running,
/// then one slot per group member.
struct HwRegionSample {
  bool active = false;
  std::uint64_t hw[2 + static_cast<int>(HwEvent::kEventCount)] = {};
  std::uint64_t sw[2 + static_cast<int>(HwEvent::kEventCount)] = {};
};

/// Region hooks called by ScopedRegionTimer. Begin costs one relaxed
/// atomic load when collection is off; End is a no-op unless Begin
/// marked the sample active.
void HwRegionBegin(HwRegionSample& sample);
void HwRegionEnd(const HwRegionSample& sample, const char* phase, int tid,
                 double seconds);

}  // namespace parhde::obs
