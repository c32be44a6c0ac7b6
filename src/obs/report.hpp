// Structured run reports — the machine-readable output of a layout or
// benchmark run: graph stats, configuration, wall-clock phase breakdown,
// work counters, per-thread phase statistics, hardware-counter phase
// attribution, memory high-water marks, and build/runtime environment,
// serialized as JSON (schema "parhde-run-report/2").
//
// Schema history:
//   /1  phases, counters, series, thread_phases, recovery, environment
//   /2  adds "hw" (perf_event_open phase attribution incl. derived IPC /
//       LLC miss rate / stalled fraction / est. DRAM GB/s, with
//       hw.available=false + reason on denied hosts), "memory"
//       (getrusage peak RSS), and "rss_delta_bytes" per thread-phase row.
//       Every /1 key is unchanged: a /1 reader ignoring unknown keys
//       reads /2 documents correctly. Later /2 documents add
//       "unattributed_seconds" (total_seconds minus the phase sum); every
//       other /2 key is unchanged.
//
// The human-readable summary the CLI prints is rendered from the SAME
// RunReport by ReportToText, so the text and JSON outputs cannot disagree:
// there is exactly one place where numbers are collected.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/hwperf.hpp"
#include "obs/thread_stats.hpp"
#include "resilience/recovery_log.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace parhde::obs {

/// Build-time and runtime environment, captured by CaptureEnvironment().
struct Environment {
  int omp_max_threads = 0;   // threads the next parallel region will use
  int omp_num_procs = 0;     // omp_get_num_procs()
  std::string compiler;      // __VERSION__
  std::string build_type;    // "release" (NDEBUG) or "debug"
  bool tracing_compiled = false;  // PARHDE_TRACING on at build time
};

Environment CaptureEnvironment();

/// Everything one run wants to persist. Fill the identity/config fields at
/// the call site, timings from the algorithm result, and let
/// CollectObservability() pull counters + thread stats + environment from
/// the registries.
struct RunReport {
  // ---- identity ----
  std::string tool;    // e.g. "parhde_cli layout"
  std::string graph;   // input path or generator description
  std::string algo;    // driver name ("parhde", "phde", ...)

  // ---- graph ----
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::int64_t components = 1;

  // ---- configuration (flat, stringly — mirrors the CLI flags) ----
  std::vector<std::pair<std::string, std::string>> config;

  // ---- results ----
  double total_seconds = 0.0;
  PhaseTimings timings;  // unattributed_seconds = total_seconds - Total()
  std::vector<std::pair<std::string, double>> metrics;  // e.g. energy

  // ---- observability (CollectObservability) ----
  std::vector<CounterSnapshot> counters;
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> series;
  std::vector<std::pair<std::string, std::int64_t>> series_dropped;
  std::vector<ThreadPhaseStats> thread_stats;
  /// Recovery-ladder attempts recorded during the run (resilience layer).
  /// Empty for a healthy run: the ladder only logs failures and the
  /// downgraded retries that absorbed them.
  std::vector<resilience::RecoveryAttempt> recovery;
  /// Hardware-counter phase attribution (hwperf layer). When the layer is
  /// off, compiled out, or denied, `hw.available` is false and `hw.reason`
  /// says why — the key is always present in the JSON.
  HwPerfSnapshot hw;
  /// getrusage peak RSS in bytes; -1 when unavailable on this platform.
  std::int64_t peak_rss_bytes = -1;
  Environment environment;

  /// Snapshots the counter registry, series, per-thread stats, and
  /// environment into this report.
  void CollectObservability();
};

/// Clears every observability registry (counters, series, thread stats,
/// trace events) so the next run reports only its own work.
void ResetObservability();

/// JSON document for the report (schema "parhde-run-report/2").
std::string ReportToJson(const RunReport& report);

/// Human-readable summary: phase table (name, seconds, percent), headline
/// counters, per-thread min/mean/max/imbalance. Rendered from the same
/// struct the JSON comes from.
std::string ReportToText(const RunReport& report);

/// Writes ReportToJson to `path`; throws ParhdeError(kIo) on failure.
void WriteReportFile(const RunReport& report, const std::string& path);

}  // namespace parhde::obs
