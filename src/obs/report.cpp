#include "obs/report.hpp"

#include <omp.h>

#include <cstdio>
#include <fstream>

#include "obs/trace.hpp"
#include "resilience/fault_injection.hpp"
#include "util/json_writer.hpp"
#include "util/run_context.hpp"
#include "util/memory.hpp"
#include "util/status.hpp"

namespace parhde::obs {

Environment CaptureEnvironment() {
  Environment env;
  env.omp_max_threads = omp_get_max_threads();
  env.omp_num_procs = omp_get_num_procs();
#ifdef __VERSION__
  env.compiler = __VERSION__;
#endif
#ifdef NDEBUG
  env.build_type = "release";
#else
  env.build_type = "debug";
#endif
#if defined(PARHDE_TRACING) && PARHDE_TRACING
  env.tracing_compiled = true;
#endif
  return env;
}

void RunReport::CollectObservability() {
  // Everything below except hw/RSS/environment snapshots the calling
  // thread's active RunContext — a service worker with a per-request
  // context collects exactly that request's run, not process totals.
  counters = SnapshotCounters();
  // Per-site fired counts from the fault-injection registry (empty unless
  // a plan is loaded in an injection-enabled build).
  for (const auto& [site, fired] : resilience::FaultFiredCounts()) {
    counters.push_back(CounterSnapshot{"fault." + site, fired});
  }
  series.clear();
  series_dropped.clear();
  for (int i = 0; i < static_cast<int>(Series::kSeriesCount); ++i) {
    const auto s = static_cast<Series>(i);
    auto values = SeriesValues(s);
    if (values.empty()) continue;
    series.emplace_back(SeriesName(s), std::move(values));
    if (const std::int64_t dropped = SeriesDropped(s); dropped > 0) {
      series_dropped.emplace_back(SeriesName(s), dropped);
    }
  }
  thread_stats = SnapshotThreadStats();
  recovery = resilience::RecoveryAttempts();
  hw = SnapshotHwPerf();
  peak_rss_bytes = PeakRssBytes();
  environment = CaptureEnvironment();
}

void ResetObservability() {
  // Clears the *active* RunContext's run-scoped state in one shot (counters,
  // series, traces, thread-phase table, recovery log, fault fired-counts).
  // Only the active context is touched, so this stays safe for a CLI run
  // while the service is embedded.
  util::CurrentRunContext()->ResetRunState();
  // The hwperf layer is process-global (per-OS-thread perf_event fds), not
  // part of any RunContext, so it is reset separately.
  ResetHwCounters();
}

namespace {

/// Emits {"<event>": value, ...} for the events present in `has`.
void WriteHwCounterMap(JsonWriter& w, const bool* has,
                       const std::int64_t* values) {
  w.BeginObject();
  for (int e = 0; e < static_cast<int>(HwEvent::kEventCount); ++e) {
    if (!has[e]) continue;
    w.Key(HwEventName(static_cast<HwEvent>(e)));
    w.Int(values[e]);
  }
  w.EndObject();
}

}  // namespace

std::string ReportToJson(const RunReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("parhde-run-report/2");
  w.Key("tool");
  w.String(report.tool);
  w.Key("algo");
  w.String(report.algo);

  w.Key("graph");
  w.BeginObject();
  w.Key("name");
  w.String(report.graph);
  w.Key("vertices");
  w.Int(report.vertices);
  w.Key("edges");
  w.Int(report.edges);
  w.Key("components");
  w.Int(report.components);
  w.EndObject();

  w.Key("config");
  w.BeginObject();
  for (const auto& [key, value] : report.config) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();

  w.Key("total_seconds");
  w.Double(report.total_seconds);
  w.Key("unattributed_seconds");
  w.Double(report.total_seconds - report.timings.Total());

  w.Key("phases");
  w.BeginArray();
  for (const auto& name : report.timings.Names()) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("seconds");
    w.Double(report.timings.Get(name));
    w.Key("percent");
    w.Double(report.timings.Percent(name));
    w.EndObject();
  }
  w.EndArray();

  w.Key("metrics");
  w.BeginObject();
  for (const auto& [key, value] : report.metrics) {
    w.Key(key);
    w.Double(value);
  }
  w.EndObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& counter : report.counters) {
    w.Key(counter.name);
    w.Int(counter.value);
  }
  w.EndObject();

  w.Key("series");
  w.BeginObject();
  for (const auto& [name, values] : report.series) {
    w.Key(name);
    w.BeginArray();
    for (const std::int64_t v : values) w.Int(v);
    w.EndArray();
  }
  w.EndObject();
  if (!report.series_dropped.empty()) {
    w.Key("series_dropped");
    w.BeginObject();
    for (const auto& [name, dropped] : report.series_dropped) {
      w.Key(name);
      w.Int(dropped);
    }
    w.EndObject();
  }

  w.Key("thread_phases");
  w.BeginArray();
  for (const auto& stats : report.thread_stats) {
    w.BeginObject();
    w.Key("phase");
    w.String(stats.phase);
    w.Key("threads");
    w.Int(stats.threads);
    w.Key("regions");
    w.Int(stats.regions);
    w.Key("min_seconds");
    w.Double(stats.min_seconds);
    w.Key("mean_seconds");
    w.Double(stats.mean_seconds);
    w.Key("max_seconds");
    w.Double(stats.max_seconds);
    w.Key("imbalance");
    w.Double(stats.imbalance);
    w.Key("rss_delta_bytes");
    w.Int(stats.rss_delta_bytes);
    w.EndObject();
  }
  w.EndArray();

  // hw: always present, so a reader can distinguish "counters denied"
  // (available=false + reason) from "report predates schema /2".
  w.Key("hw");
  w.BeginObject();
  w.Key("compiled");
  w.Bool(report.hw.compiled);
  w.Key("mode");
  w.String(HwCounterModeName(report.hw.mode));
  w.Key("available");
  w.Bool(report.hw.available);
  w.Key("reason");
  w.String(report.hw.reason);
  w.Key("events");
  w.BeginArray();
  for (const auto& name : report.hw.events) w.String(name);
  w.EndArray();
  w.Key("phases");
  w.BeginArray();
  for (const auto& phase : report.hw.phases) {
    w.BeginObject();
    w.Key("phase");
    w.String(phase.phase);
    w.Key("threads");
    w.Int(phase.threads);
    w.Key("regions");
    w.Int(phase.regions);
    w.Key("seconds");
    w.Double(phase.seconds);
    w.Key("multiplexed");
    w.Bool(phase.multiplexed);
    w.Key("counters");
    WriteHwCounterMap(w, phase.has, phase.values);
    w.Key("derived");
    w.BeginObject();
    if (phase.ipc >= 0.0) {
      w.Key("ipc");
      w.Double(phase.ipc);
    }
    if (phase.llc_miss_rate >= 0.0) {
      w.Key("llc_miss_rate");
      w.Double(phase.llc_miss_rate);
    }
    if (phase.stalled_frac >= 0.0) {
      w.Key("stalled_frac");
      w.Double(phase.stalled_frac);
    }
    if (phase.dram_gbps >= 0.0) {
      w.Key("dram_gbps");
      w.Double(phase.dram_gbps);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  if (!report.hw.threads.empty()) {
    w.Key("threads");
    w.BeginArray();
    for (const auto& tc : report.hw.threads) {
      w.BeginObject();
      w.Key("phase");
      w.String(tc.phase);
      w.Key("tid");
      w.Int(tc.tid);
      w.Key("seconds");
      w.Double(tc.seconds);
      w.Key("counters");
      WriteHwCounterMap(w, tc.has, tc.values);
      if (tc.ipc >= 0.0) {
        w.Key("ipc");
        w.Double(tc.ipc);
      }
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  w.Key("memory");
  w.BeginObject();
  w.Key("peak_rss_bytes");
  w.Int(report.peak_rss_bytes);
  w.EndObject();

  // Always present so consumers can distinguish "healthy run" (empty
  // array) from "report predates the resilience layer" (key missing).
  w.Key("recovery");
  w.BeginArray();
  for (const auto& attempt : report.recovery) {
    w.BeginObject();
    w.Key("phase");
    w.String(attempt.phase);
    w.Key("kernel");
    w.String(attempt.kernel);
    w.Key("trigger");
    w.String(attempt.trigger);
    w.Key("seconds");
    w.Double(attempt.seconds);
    w.Key("succeeded");
    w.Bool(attempt.succeeded);
    w.EndObject();
  }
  w.EndArray();

  w.Key("environment");
  w.BeginObject();
  w.Key("omp_max_threads");
  w.Int(report.environment.omp_max_threads);
  w.Key("omp_num_procs");
  w.Int(report.environment.omp_num_procs);
  w.Key("compiler");
  w.String(report.environment.compiler);
  w.Key("build_type");
  w.String(report.environment.build_type);
  w.Key("tracing_compiled");
  w.Bool(report.environment.tracing_compiled);
  w.EndObject();

  w.EndObject();
  return w.Str();
}

std::string ReportToText(const RunReport& report) {
  std::string out;
  char line[256];

  std::snprintf(line, sizeof(line), "%s finished in %.3f s\n",
                report.algo.c_str(), report.total_seconds);
  out += line;
  for (const auto& name : report.timings.Names()) {
    std::snprintf(line, sizeof(line), "  %-16s %8.4f s (%5.1f%%)\n",
                  name.c_str(), report.timings.Get(name),
                  report.timings.Percent(name));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-16s %8.4f s\n", "(unattributed)",
                report.total_seconds - report.timings.Total());
  out += line;
  for (const auto& [key, value] : report.metrics) {
    std::snprintf(line, sizeof(line), "%s: %.6g\n", key.c_str(), value);
    out += line;
  }

  // Headline counters: skip zeros so the summary stays one screen tall.
  bool counter_header = false;
  for (const auto& counter : report.counters) {
    if (counter.value == 0) continue;
    if (!counter_header) {
      out += "counters:\n";
      counter_header = true;
    }
    std::snprintf(line, sizeof(line), "  %-24s %lld\n", counter.name.c_str(),
                  static_cast<long long>(counter.value));
    out += line;
  }

  if (!report.recovery.empty()) {
    out += "recovery ladder:\n";
    for (const auto& attempt : report.recovery) {
      std::snprintf(line, sizeof(line),
                    "  %-12s %-16s %-10s %8.4f s  (after %s)\n",
                    attempt.phase.c_str(), attempt.kernel.c_str(),
                    attempt.succeeded ? "recovered" : "failed",
                    attempt.seconds,
                    attempt.trigger.empty() ? "-" : attempt.trigger.c_str());
      out += line;
    }
  }

  if (!report.thread_stats.empty()) {
    out += "per-thread phase time (min/mean/max s, imbalance=max/mean):\n";
    for (const auto& stats : report.thread_stats) {
      std::snprintf(line, sizeof(line),
                    "  %-16s %2d thr  %8.4f / %8.4f / %8.4f  x%.2f",
                    stats.phase.c_str(), stats.threads, stats.min_seconds,
                    stats.mean_seconds, stats.max_seconds, stats.imbalance);
      out += line;
      if (stats.rss_delta_bytes > 0) {
        std::snprintf(line, sizeof(line), "  +%.1f MiB",
                      static_cast<double>(stats.rss_delta_bytes) / (1 << 20));
        out += line;
      }
      out += "\n";
    }
  }

  // Hardware attribution: only rendered when the layer collected
  // something; a denied host gets one explanatory line instead.
  if (report.hw.mode != HwCounterMode::kOff) {
    if (!report.hw.available) {
      std::snprintf(line, sizeof(line), "hw counters: unavailable (%s)\n",
                    report.hw.reason.c_str());
      out += line;
    } else if (!report.hw.phases.empty()) {
      out += "hw counters per phase:\n";
      for (const auto& phase : report.hw.phases) {
        std::snprintf(line, sizeof(line), "  %-16s", phase.phase.c_str());
        out += line;
        bool any = false;
        const auto metric = [&](double value, const char* fmt) {
          if (value < 0.0) return;
          std::snprintf(line, sizeof(line), fmt, value);
          out += line;
          any = true;
        };
        metric(phase.ipc, "  ipc %.2f");
        if (phase.llc_miss_rate >= 0.0) {
          metric(phase.llc_miss_rate * 100.0, "  llc-miss %.1f%%");
        }
        if (phase.stalled_frac >= 0.0) {
          metric(phase.stalled_frac * 100.0, "  stalled %.1f%%");
        }
        metric(phase.dram_gbps, "  ~%.2f GB/s");
        const int task_clock = static_cast<int>(HwEvent::kTaskClockNs);
        if (!any && phase.has[task_clock]) {
          std::snprintf(line, sizeof(line), " task-clock %.3f s",
                        static_cast<double>(phase.values[task_clock]) * 1e-9);
          out += line;
        }
        if (phase.multiplexed) out += "  (multiplexed)";
        out += "\n";
      }
      if (!report.hw.reason.empty()) {
        std::snprintf(line, sizeof(line), "  note: %s\n",
                      report.hw.reason.c_str());
        out += line;
      }
    }
  }

  if (report.peak_rss_bytes > 0) {
    std::snprintf(line, sizeof(line), "peak RSS: %.1f MiB\n",
                  static_cast<double>(report.peak_rss_bytes) / (1 << 20));
    out += line;
  }
  std::snprintf(line, sizeof(line), "threads: %d (of %d procs)\n",
                report.environment.omp_max_threads,
                report.environment.omp_num_procs);
  out += line;
  return out;
}

void WriteReportFile(const RunReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw ParhdeError(ErrorCode::kIo, "report",
                      "cannot open report output file: " + path);
  }
  out << ReportToJson(report) << "\n";
  if (!out) {
    throw ParhdeError(ErrorCode::kIo, "report",
                      "failed writing report output file: " + path);
  }
}

}  // namespace parhde::obs
