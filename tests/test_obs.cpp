// Observability subsystem tests: JSON writer correctness, counter merging
// under OpenMP, per-thread phase stats, trace-event export structure, run
// report round-trip, and an end-to-end CLI check of --report/--trace/
// --threads. JSON outputs are validated with a small recursive-descent
// parser so structural regressions fail here rather than in Perfetto.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/thread_stats.hpp"
#include "obs/trace.hpp"
#include "json_test_util.hpp"
#include "util/json_writer.hpp"
#include "util/run_context.hpp"

#ifndef PARHDE_CLI_PATH
#define PARHDE_CLI_PATH ""
#endif

namespace parhde {
namespace {

// JSON documents are validated with the shared recursive-descent parser
// (tests/json_test_util.hpp) so structural regressions fail here rather
// than in Perfetto.
using testutil::JsonValue;
using testutil::Parse;

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, WritesNestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("list");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.BeginObject();
  w.Key("inner");
  w.Bool(true);
  w.EndObject();
  w.EndArray();
  w.Key("d");
  w.Double(0.5);
  w.EndObject();

  const JsonValue v = Parse(w.Str());
  ASSERT_EQ(v.At("list").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.At("list").array[0].number, 1.0);
  EXPECT_TRUE(v.At("list").array[2].At("inner").boolean);
  EXPECT_DOUBLE_EQ(v.At("d").number, 0.5);
}

TEST(JsonWriter, EscapesStringsPerRfc8259) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("quote\" back\\slash \n tab\t bell\x01 end");
  w.EndObject();
  const std::string doc = w.Str();
  EXPECT_NE(doc.find("\\\""), std::string::npos);
  EXPECT_NE(doc.find("\\\\"), std::string::npos);
  EXPECT_NE(doc.find("\\n"), std::string::npos);
  EXPECT_NE(doc.find("\\t"), std::string::npos);
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  EXPECT_NO_THROW(Parse(doc));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan");
  w.Double(std::nan(""));
  w.Key("inf");
  w.Double(std::numeric_limits<double>::infinity());
  w.EndObject();
  const JsonValue v = Parse(w.Str());
  EXPECT_EQ(v.At("nan").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.At("inf").kind, JsonValue::Kind::kNull);
}

TEST(JsonWriter, RoundTripsLargeIntegersExactly) {
  JsonWriter w;
  w.BeginObject();
  w.Key("big");
  w.Int(INT64_C(123456789012345));
  w.EndObject();
  EXPECT_NE(w.Str().find("123456789012345"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(Counters, MergesPerThreadShardsUnderOpenMp) {
  util::CurrentRunContext()->counters().Reset();
  constexpr int kPerThread = 1000;
  int threads = 1;
#pragma omp parallel
  {
#pragma omp single
    threads = omp_get_num_threads();
    for (int i = 0; i < kPerThread; ++i) {
      obs::CounterAdd(obs::Counter::kBfsEdgesExamined, 1);
    }
  }
  EXPECT_EQ(obs::CounterValue(obs::Counter::kBfsEdgesExamined),
            static_cast<std::int64_t>(threads) * kPerThread);
  util::CurrentRunContext()->counters().Reset();
  EXPECT_EQ(obs::CounterValue(obs::Counter::kBfsEdgesExamined), 0);
}

TEST(Counters, SnapshotCoversEveryCounterWithStableNames) {
  util::CurrentRunContext()->counters().Reset();
  obs::CounterAdd(obs::Counter::kBfsDirectionSwitches, 7);
  const auto snap = obs::SnapshotCounters();
  ASSERT_EQ(snap.size(),
            static_cast<std::size_t>(obs::Counter::kCounterCount));
  bool found = false;
  for (const auto& c : snap) {
    if (c.name == "bfs.direction_switches") {
      found = true;
      EXPECT_EQ(c.value, 7);
    }
  }
  EXPECT_TRUE(found);
  util::CurrentRunContext()->counters().Reset();
}

TEST(Counters, SeriesCapsAndCountsDrops) {
  util::CurrentRunContext()->counters().Reset();
  const auto total = static_cast<std::int64_t>(obs::kSeriesCap) + 16;
  for (std::int64_t i = 0; i < total; ++i) {
    obs::SeriesAppend(obs::Series::kBfsFrontierSizes, i);
  }
  const auto values = obs::SeriesValues(obs::Series::kBfsFrontierSizes);
  EXPECT_EQ(values.size(), obs::kSeriesCap);
  EXPECT_EQ(values.front(), 0);
  EXPECT_EQ(obs::SeriesDropped(obs::Series::kBfsFrontierSizes), 16);
  util::CurrentRunContext()->counters().Reset();
  EXPECT_TRUE(obs::SeriesValues(obs::Series::kBfsFrontierSizes).empty());
}

// ---------------------------------------------------------------------------
// Per-thread phase stats
// ---------------------------------------------------------------------------

TEST(ThreadStats, AttributesRegionTimeToActiveContext) {
  obs::ResetThreadStats();
  PhaseTimings timings;
  std::vector<double> x(1 << 16, 1.0), y(1 << 16, 0.0);
  {
    obs::Phase phase(timings, "TestPhase");
    Axpy(0.5, x, y);  // instrumented kernel
  }
  const auto stats = obs::SnapshotThreadStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].phase, "TestPhase");
  EXPECT_GE(stats[0].threads, 1);
  EXPECT_GE(stats[0].regions, 1);
  EXPECT_GT(stats[0].max_seconds, 0.0);
  EXPECT_LE(stats[0].min_seconds, stats[0].mean_seconds);
  EXPECT_LE(stats[0].mean_seconds, stats[0].max_seconds);
  EXPECT_GE(stats[0].imbalance, 1.0);
  obs::ResetThreadStats();
}

TEST(ThreadStats, RecordsNothingWithoutContext) {
  obs::ResetThreadStats();
  std::vector<double> x(1 << 12, 1.0), y(1 << 12, 0.0);
  Axpy(0.5, x, y);
  EXPECT_TRUE(obs::SnapshotThreadStats().empty());
}

TEST(ThreadStats, ContextsNest) {
  obs::ResetThreadStats();
  PhaseTimings timings;
  std::vector<double> x(1 << 12, 1.0), y(1 << 12, 0.0);
  {
    obs::Phase outer(timings, "Outer");
    {
      obs::Phase inner(timings, "Inner");
      Axpy(1.0, x, y);
    }
    Axpy(1.0, x, y);
  }
  const auto stats = obs::SnapshotThreadStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].phase, "Inner");
  EXPECT_EQ(stats[1].phase, "Outer");
  obs::ResetThreadStats();
}

// ---------------------------------------------------------------------------
// obs::Phase and the trace
// ---------------------------------------------------------------------------

/// Trace events of the active context, by name.
std::map<std::string, std::vector<double>> TraceDurationsUs() {
  std::map<std::string, std::vector<double>> out;
  const JsonValue doc = Parse(obs::Tracer::ToJson());
  for (const auto& e : doc.At("traceEvents").array) {
    out[e.At("name").string].push_back(e.At("dur").number);
  }
  return out;
}

TEST(ObsPhase, TraceEventNameEqualsPhaseName) {
  obs::Tracer::Clear();
  obs::Tracer::SetEnabled(true);
  if (!obs::Tracer::Enabled()) GTEST_SKIP() << "tracing compiled out";
  PhaseTimings timings;
  {
    obs::Phase phase(timings, "ObsPhaseTraced");
  }
  obs::Tracer::SetEnabled(false);
  const auto events = TraceDurationsUs();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.begin()->first, "ObsPhaseTraced");
  EXPECT_EQ(events.begin()->second.size(), 1u);
  obs::Tracer::Clear();
}

TEST(ObsPhase, TraceKeepsElapsedWhileTimingsKeepSelfTime) {
  obs::Tracer::Clear();
  obs::Tracer::SetEnabled(true);
  if (!obs::Tracer::Enabled()) GTEST_SKIP() << "tracing compiled out";
  PhaseTimings timings;
  std::vector<double> x(1 << 16, 1.0), y(1 << 16, 0.0);
  {
    obs::Phase outer(timings, "ObsPhaseOuter");
    Axpy(0.5, x, y);
    obs::Phase inner(timings, "ObsPhaseInner");
    Axpy(0.5, x, y);
  }
  obs::Tracer::SetEnabled(false);
  auto events = TraceDurationsUs();
  ASSERT_EQ(events["ObsPhaseOuter"].size(), 1u);
  ASSERT_EQ(events["ObsPhaseInner"].size(), 1u);
  const double outer_s = events["ObsPhaseOuter"][0] * 1e-6;
  const double inner_s = events["ObsPhaseInner"][0] * 1e-6;
  // The outer event spans the inner one; the self times partition it.
  EXPECT_NEAR(timings.Get("ObsPhaseInner"), inner_s, 1e-9);
  EXPECT_NEAR(timings.Get("ObsPhaseOuter") + timings.Get("ObsPhaseInner"),
              outer_s, 1e-9);
  obs::Tracer::Clear();
}

TEST(ObsPhase, ConcurrentContextsNestIndependently) {
  // The open-phase chain lives in each run context: phases opened on two
  // threads with their own contexts never see each other as parents.
  const auto run = [](util::RunContext& ctx, PhaseTimings& timings,
                      const char* outer_name, const char* inner_name) {
    util::ScopedRunContext scope(ctx);
    std::vector<double> x(1 << 16, 1.0), y(1 << 16, 0.0);
    for (int i = 0; i < 50; ++i) {
      obs::Phase outer(timings, outer_name);
      obs::Phase inner(timings, inner_name);
      Axpy(0.5, x, y);
    }
  };
  util::RunContext a_ctx, b_ctx;
  PhaseTimings a, b;
  const WallTimer wall;
  std::thread a_thread([&] { run(a_ctx, a, "A", "A:Inner"); });
  std::thread b_thread([&] { run(b_ctx, b, "B", "B:Inner"); });
  a_thread.join();
  b_thread.join();
  const double elapsed = wall.Seconds();
  EXPECT_EQ(a.Names(), (std::vector<std::string>{"A:Inner", "A"}));
  EXPECT_EQ(b.Names(), (std::vector<std::string>{"B:Inner", "B"}));
  // A child charged to the wrong parent would leave that parent a
  // negative (wrapped) self time: every self time fits in the wall time.
  EXPECT_LE(a.Total(), elapsed);
  EXPECT_LE(b.Total(), elapsed);
  EXPECT_EQ(a_ctx.thread_stats().CurrentPhase(), nullptr);
  EXPECT_EQ(b_ctx.thread_stats().CurrentPhase(), nullptr);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, ExportsChromeTraceEvents) {
  obs::Tracer::Clear();
  obs::Tracer::SetEnabled(true);
  if (!obs::Tracer::Enabled()) GTEST_SKIP() << "tracing compiled out";
  {
    PARHDE_TRACE_SPAN("test.span_a");
    PARHDE_TRACE_SPAN("test.span_b");
  }
  obs::Tracer::SetEnabled(false);
  EXPECT_EQ(obs::Tracer::EventCount(), 2);

  const JsonValue doc = Parse(obs::Tracer::ToJson());
  ASSERT_TRUE(doc.Has("traceEvents"));
  const auto& events = doc.At("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  bool saw_a = false;
  for (const auto& e : events) {
    EXPECT_EQ(e.At("ph").string, "X");
    EXPECT_GE(e.At("ts").number, 0.0);
    EXPECT_GE(e.At("dur").number, 0.0);
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_TRUE(e.Has("tid"));
    if (e.At("name").string == "test.span_a") saw_a = true;
  }
  EXPECT_TRUE(saw_a);
  obs::Tracer::Clear();
  EXPECT_EQ(obs::Tracer::EventCount(), 0);
}

TEST(Tracer, DisabledSpansRecordNothing) {
  obs::Tracer::Clear();
  obs::Tracer::SetEnabled(false);
  {
    PARHDE_TRACE_SPAN("test.invisible");
  }
  EXPECT_EQ(obs::Tracer::EventCount(), 0);
}

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  obs::Tracer::Clear();
  obs::Tracer::SetEnabled(true);
  if (!obs::Tracer::Enabled()) GTEST_SKIP() << "tracing compiled out";
  constexpr int kOver = 100;
  constexpr int kRing = 1 << 14;  // must match trace.cpp's kRingCapacity
  for (int i = 0; i < kRing + kOver; ++i) {
    PARHDE_TRACE_SPAN("test.flood");
  }
  obs::Tracer::SetEnabled(false);
  EXPECT_EQ(obs::Tracer::EventCount(), kRing);
  EXPECT_EQ(obs::Tracer::DroppedCount(), kOver);
  EXPECT_NO_THROW(Parse(obs::Tracer::ToJson()));
  obs::Tracer::Clear();
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

TEST(RunReport, JsonRoundTripsAllSections) {
  obs::ResetObservability();
  obs::CounterAdd(obs::Counter::kBfsSearches, 3);
  obs::SeriesAppend(obs::Series::kBfsFrontierSizes, 42);

  obs::RunReport report;
  report.tool = "test";
  report.graph = "path/with \"quotes\".mtx";
  report.algo = "parhde";
  report.vertices = 100;
  report.edges = 250;
  report.components = 2;
  report.config.emplace_back("s", "10");
  report.total_seconds = 1.25;
  report.timings.Add("BFS", 1.0);
  report.timings.Add("DOrtho", 0.25);
  report.metrics.emplace_back("edge_length_energy", 3.5);
  report.CollectObservability();

  const JsonValue v = Parse(obs::ReportToJson(report));
  EXPECT_EQ(v.At("schema").string, "parhde-run-report/2");
  EXPECT_EQ(v.At("algo").string, "parhde");
  EXPECT_DOUBLE_EQ(v.At("graph").At("vertices").number, 100.0);
  EXPECT_DOUBLE_EQ(v.At("graph").At("components").number, 2.0);
  EXPECT_EQ(v.At("config").At("s").string, "10");
  EXPECT_DOUBLE_EQ(v.At("total_seconds").number, 1.25);

  const auto& phases = v.At("phases").array;
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].At("name").string, "BFS");
  EXPECT_DOUBLE_EQ(phases[0].At("seconds").number, 1.0);
  EXPECT_DOUBLE_EQ(phases[0].At("percent").number, 80.0);

  EXPECT_DOUBLE_EQ(v.At("metrics").At("edge_length_energy").number, 3.5);
  EXPECT_DOUBLE_EQ(v.At("counters").At("bfs.searches").number, 3.0);
  ASSERT_TRUE(v.At("series").Has("bfs.frontier_sizes"));
  EXPECT_DOUBLE_EQ(v.At("series").At("bfs.frontier_sizes").array[0].number,
                   42.0);
  EXPECT_GE(v.At("environment").At("omp_max_threads").number, 1.0);
  obs::ResetObservability();
}

TEST(RunReport, TextAndJsonComeFromTheSameNumbers) {
  obs::RunReport report;
  report.algo = "parhde";
  report.total_seconds = 2.0;
  report.timings.Add("BFS", 2.0);
  report.CollectObservability();

  const std::string text = obs::ReportToText(report);
  EXPECT_NE(text.find("parhde finished in 2.000 s"), std::string::npos);
  EXPECT_NE(text.find("BFS"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
  EXPECT_NE(text.find("threads:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI end-to-end: --report / --trace / --threads
// ---------------------------------------------------------------------------

class ObsCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(PARHDE_CLI_PATH).empty()) {
      GTEST_SKIP() << "PARHDE_CLI_PATH not configured";
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("parhde_obs_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int Run(const std::string& args) {
    const std::string cmd = std::string(PARHDE_CLI_PATH) + " " + args +
                            " > " + (dir_ / "log.txt").string() + " 2>&1";
    const int status = std::system(cmd.c_str());
#ifdef __unix__
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -1;
#else
    return status;
#endif
  }

  std::string Log() {
    std::ifstream in(dir_ / "log.txt");
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string Slurp(const std::string& name) {
    std::ifstream in(dir_ / name);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(ObsCliTest, LayoutEmitsReportTraceAndHonorsThreads) {
  ASSERT_EQ(Run("generate --family=grid --rows=48 --cols=48 --out=" +
                Path("g.mtx")),
            0)
      << Log();

  ASSERT_EQ(Run("layout --in=" + Path("g.mtx") +
                " --algo=parhde --s=8 --threads=2 --report=" +
                Path("run.json") + " --trace=" + Path("trace.json")),
            0)
      << Log();
  ASSERT_TRUE(std::filesystem::exists(Path("run.json")));
  ASSERT_TRUE(std::filesystem::exists(Path("trace.json")));

  // ---- report: phases, counters, per-thread stats, thread count. ----
  const JsonValue report = Parse(Slurp("run.json"));
  EXPECT_EQ(report.At("schema").string, "parhde-run-report/2");
  EXPECT_EQ(report.At("algo").string, "parhde");
  EXPECT_GT(report.At("graph").At("vertices").number, 0.0);

  std::vector<std::string> phase_names;
  for (const auto& p : report.At("phases").array) {
    phase_names.push_back(p.At("name").string);
    EXPECT_GE(p.At("seconds").number, 0.0);
  }
  EXPECT_NE(std::find(phase_names.begin(), phase_names.end(), "BFS"),
            phase_names.end());
  EXPECT_NE(std::find(phase_names.begin(), phase_names.end(), "DOrtho"),
            phase_names.end());

  const auto& counters = report.At("counters");
  ASSERT_TRUE(counters.Has("bfs.direction_switches"));
  EXPECT_GE(counters.At("bfs.direction_switches").number, 0.0);
  ASSERT_TRUE(counters.Has("bfs.frontier_vertices"));
  EXPECT_GT(counters.At("bfs.frontier_vertices").number, 0.0);
  EXPECT_GT(counters.At("bfs.searches").number, 0.0);
  EXPECT_GT(counters.At("dortho.kept_columns").number, 0.0);

  // k-centers BFS records per-level frontier sizes.
  ASSERT_TRUE(report.At("series").Has("bfs.frontier_sizes"));
  EXPECT_FALSE(report.At("series").At("bfs.frontier_sizes").array.empty());

  // Per-thread stats must cover the three paper phases. A row exists
  // because regions ran under the phase, or because a serial phase (the
  // Components label pass) raised peak RSS; it is never empty.
  std::vector<std::string> thread_phases;
  for (const auto& t : report.At("thread_phases").array) {
    thread_phases.push_back(t.At("phase").string);
    if (t.At("regions").number == 0.0) {
      EXPECT_EQ(t.At("threads").number, 0.0);
      EXPECT_GT(t.At("rss_delta_bytes").number, 0.0);
      continue;
    }
    EXPECT_GE(t.At("threads").number, 1.0);
    EXPECT_LE(t.At("min_seconds").number, t.At("max_seconds").number);
    EXPECT_GE(t.At("imbalance").number, 1.0);
  }
  EXPECT_NE(std::find(thread_phases.begin(), thread_phases.end(), "BFS"),
            thread_phases.end());
  EXPECT_NE(std::find(thread_phases.begin(), thread_phases.end(), "DOrtho"),
            thread_phases.end());
  const bool has_tripleprod =
      std::find(thread_phases.begin(), thread_phases.end(),
                "TripleProd:LS") != thread_phases.end() ||
      std::find(thread_phases.begin(), thread_phases.end(),
                "TripleProd:GEMM") != thread_phases.end();
  EXPECT_TRUE(has_tripleprod);

  EXPECT_DOUBLE_EQ(report.At("environment").At("omp_max_threads").number, 2.0);

  // ---- trace: well-formed Chrome trace-event document. ----
  const JsonValue trace = Parse(Slurp("trace.json"));
  ASSERT_TRUE(trace.Has("traceEvents"));
  if (report.At("environment").At("tracing_compiled").boolean) {
    EXPECT_FALSE(trace.At("traceEvents").array.empty());
    const auto& e = trace.At("traceEvents").array[0];
    EXPECT_EQ(e.At("ph").string, "X");
    EXPECT_TRUE(e.Has("name"));
    EXPECT_TRUE(e.Has("ts"));
    EXPECT_TRUE(e.Has("dur"));
  }
}

TEST_F(ObsCliTest, RejectsNonPositiveThreads) {
  ASSERT_EQ(Run("generate --family=chain --n=64 --out=" + Path("c.mtx")), 0)
      << Log();
  EXPECT_NE(Run("layout --in=" + Path("c.mtx") + " --threads=0"), 0);
  EXPECT_NE(Run("layout --in=" + Path("c.mtx") + " --threads=-3"), 0);
}

TEST_F(ObsCliTest, ReportWorksForEveryDriver) {
  ASSERT_EQ(Run("generate --family=grid --rows=24 --cols=24 --out=" +
                Path("g.mtx")),
            0)
      << Log();
  for (const std::string algo :
       {"parhde", "phde", "pivotmds", "prior", "multilevel"}) {
    ASSERT_EQ(Run("layout --in=" + Path("g.mtx") + " --algo=" + algo +
                  " --s=6 --report=" + Path("r.json") +
                  " --trace=" + Path("t.json")),
              0)
        << algo << "\n" << Log();
    const JsonValue report = Parse(Slurp("r.json"));
    EXPECT_EQ(report.At("algo").string, algo);
    EXPECT_FALSE(report.At("phases").array.empty()) << algo;

    // One primitive feeds the phase table and the trace, so every phase
    // in the report has a trace event of the same name.
    if (!report.At("environment").At("tracing_compiled").boolean) continue;
    const JsonValue trace = Parse(Slurp("t.json"));
    std::vector<std::string> events;
    for (const auto& e : trace.At("traceEvents").array) {
      events.push_back(e.At("name").string);
    }
    for (const auto& p : report.At("phases").array) {
      const std::string& name = p.At("name").string;
      EXPECT_NE(std::find(events.begin(), events.end(), name), events.end())
          << algo << ": phase " << name << " has no trace event";
    }
  }
}

TEST_F(ObsCliTest, ReportBooksUnattributedSeconds) {
  // Structural only, no timing threshold: the remainder is reported, is
  // never negative (phase self times do not overlap and all run inside the
  // timed span), and closes the budget exactly. Kronecker inputs are
  // disconnected, so the pack run books the Components phase too.
  ASSERT_EQ(Run("generate --family=kron --scale=9 --ef=4 --out=" +
                Path("k.mtx")),
            0)
      << Log();
  for (const std::string algo :
       {"parhde", "phde", "pivotmds", "prior", "multilevel"}) {
    for (const std::string policy : {"largest", "pack"}) {
      ASSERT_EQ(Run("layout --in=" + Path("k.mtx") + " --algo=" + algo +
                    " --s=6 --disconnected=" + policy +
                    " --report=" + Path("r.json")),
                0)
          << algo << " " << policy << "\n" << Log();
      const JsonValue report = Parse(Slurp("r.json"));
      ASSERT_TRUE(report.Has("unattributed_seconds")) << algo;
      double phases = 0.0;
      std::vector<std::string> names;
      for (const auto& p : report.At("phases").array) {
        phases += p.At("seconds").number;
        names.push_back(p.At("name").string);
      }
      const double total = report.At("total_seconds").number;
      const double unattributed = report.At("unattributed_seconds").number;
      EXPECT_GE(unattributed, 0.0) << algo << " " << policy;
      EXPECT_LE(phases, total) << algo << " " << policy;
      EXPECT_NEAR(unattributed, total - phases, 1e-9) << algo << " " << policy;
      EXPECT_NE(std::find(names.begin(), names.end(), "Components"),
                names.end())
          << algo << " " << policy;
    }
  }
}

}  // namespace
}  // namespace parhde
