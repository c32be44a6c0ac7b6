// Tests for the perf_event_open counter layer (obs/hwperf) and its
// integration with thread-phase attribution and the run report.
//
// The layer's behavior is host-dependent by design: full PMU access,
// software-events-only (no PMU in the VM, or perf_event_paranoid),
// or fully denied. Tests therefore branch on what EnableHwCounters
// actually found, and use PARHDE_HWPERF_FORCE_DENY for a deterministic
// denied path on every host.
#include "obs/hwperf.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "json_test_util.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/thread_stats.hpp"
#include "util/memory.hpp"

namespace parhde::obs {
namespace {

// A phase name private to this test so snapshots cannot collide with
// rows recorded by other tests in the same process.
constexpr const char kTestPhase[] = "HwPerfTestPhase";

/// Runs an instrumented region under `kTestPhase` doing enough arithmetic
/// for counters (or the task clock) to register.
void SpinRegion() {
  PhaseTimings timings;
  Phase phase(timings, kTestPhase);
  ScopedRegionTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 4'000'000; ++i) sink = sink + static_cast<double>(i);
}

class HwPerfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("PARHDE_HWPERF_FORCE_DENY");
    EnableHwCounters(HwCounterMode::kOff);
    ResetObservability();
  }
  void TearDown() override {
    ::unsetenv("PARHDE_HWPERF_FORCE_DENY");
    EnableHwCounters(HwCounterMode::kOff);
    ResetObservability();
  }
};

TEST_F(HwPerfTest, OffModeRecordsNothing) {
  SpinRegion();
  const HwPerfSnapshot snap = SnapshotHwPerf();
  EXPECT_EQ(snap.mode, HwCounterMode::kOff);
  EXPECT_FALSE(snap.available);
  EXPECT_TRUE(snap.phases.empty());
  // The thread-time table still works with the layer off.
  const auto stats = SnapshotThreadStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].phase, kTestPhase);
  EXPECT_GT(stats[0].max_seconds, 0.0);
}

TEST_F(HwPerfTest, PhaseModeCountsWork) {
  const bool ok = EnableHwCounters(HwCounterMode::kPhase);
  if (!kHwPerfCompiled) {
    EXPECT_FALSE(ok);
    EXPECT_NE(HwCountersUnavailableReason().find("not compiled"),
              std::string::npos);
    return;
  }
  if (!ok) {
    // perf_event_open fully denied on this host: the reason must say why.
    EXPECT_FALSE(HwCountersAvailable());
    EXPECT_FALSE(HwCountersUnavailableReason().empty());
    return;
  }
  SpinRegion();
  const HwPerfSnapshot snap = SnapshotHwPerf();
  EXPECT_EQ(snap.mode, HwCounterMode::kPhase);
  EXPECT_TRUE(snap.available);
  EXPECT_FALSE(snap.events.empty());
  ASSERT_EQ(snap.phases.size(), 1u);
  const HwPhaseCounters& phase = snap.phases[0];
  EXPECT_EQ(phase.phase, kTestPhase);
  EXPECT_GE(phase.regions, 1);
  EXPECT_GE(phase.threads, 1);
  EXPECT_GT(phase.seconds, 0.0);
  if (HwEventEnabled(HwEvent::kInstructions)) {
    // 4M loop iterations cannot retire zero instructions.
    EXPECT_GT(phase.values[static_cast<int>(HwEvent::kInstructions)], 0);
  }
  if (HwEventEnabled(HwEvent::kCycles) &&
      HwEventEnabled(HwEvent::kInstructions)) {
    EXPECT_GT(phase.ipc, 0.0);
  }
  if (HwEventEnabled(HwEvent::kTaskClockNs)) {
    EXPECT_GT(phase.values[static_cast<int>(HwEvent::kTaskClockNs)], 0);
  }
  // Thread rows only populate in kThread mode.
  EXPECT_TRUE(snap.threads.empty());
}

TEST_F(HwPerfTest, ThreadModePopulatesPerThreadRows) {
  if (!EnableHwCounters(HwCounterMode::kThread)) {
    GTEST_SKIP() << "hw counters unavailable: "
                 << HwCountersUnavailableReason();
  }
  SpinRegion();
  const HwPerfSnapshot snap = SnapshotHwPerf();
  EXPECT_EQ(snap.mode, HwCounterMode::kThread);
  ASSERT_FALSE(snap.threads.empty());
  EXPECT_EQ(snap.threads[0].phase, std::string(kTestPhase));
  EXPECT_GE(snap.threads[0].tid, 0);
}

TEST_F(HwPerfTest, ForceDenyDegradesWithoutLosingTimings) {
  ::setenv("PARHDE_HWPERF_FORCE_DENY", "1", 1);
  EXPECT_FALSE(EnableHwCounters(HwCounterMode::kPhase));
  EXPECT_FALSE(HwCountersAvailable());
  EXPECT_NE(HwCountersUnavailableReason().find("PARHDE_HWPERF_FORCE_DENY"),
            std::string::npos);
  SpinRegion();
  // No counter rows...
  EXPECT_TRUE(SnapshotHwPerf().phases.empty());
  // ...but phase attribution is untouched: exactly the off-mode behavior.
  const auto stats = SnapshotThreadStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].phase, kTestPhase);
  EXPECT_GT(stats[0].max_seconds, 0.0);
}

TEST_F(HwPerfTest, ResetClearsAccumulatedRows) {
  if (!EnableHwCounters(HwCounterMode::kPhase)) {
    GTEST_SKIP() << "hw counters unavailable: "
                 << HwCountersUnavailableReason();
  }
  SpinRegion();
  ASSERT_FALSE(SnapshotHwPerf().phases.empty());
  ResetHwCounters();
  EXPECT_TRUE(SnapshotHwPerf().phases.empty());
  // Recording continues after a reset (fds stay open).
  SpinRegion();
  EXPECT_FALSE(SnapshotHwPerf().phases.empty());
}

TEST_F(HwPerfTest, PeakRssIsReported) {
  const std::int64_t rss = PeakRssBytes();
#ifdef __linux__
  EXPECT_GT(rss, 0);
#else
  EXPECT_GE(rss, -1);
#endif
}

TEST_F(HwPerfTest, PhaseContextChargesRssGrowth) {
  const std::int64_t before = PeakRssBytes();
  PhaseTimings timings;
  {
    Phase phase(timings, kTestPhase);
    // Touch a fresh 32 MiB block; if this raises the process high-water
    // mark, the delta must be charged to the active phase.
    std::vector<char> block(32u << 20, 1);
    volatile char sink = block[block.size() - 1];
    (void)sink;
  }
  const std::int64_t after = PeakRssBytes();
  const auto stats = SnapshotThreadStats();
  if (after > before) {
    // The growth must be charged to the phase that was open.
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].phase, kTestPhase);
    EXPECT_GT(stats[0].rss_delta_bytes, 0);
  }
  // else: peak RSS is monotone per process — an earlier allocation already
  // covered this block, so there is no growth to observe or attribute.
}

TEST_F(HwPerfTest, ReportJsonIsSchemaV2) {
  EnableHwCounters(HwCounterMode::kPhase);  // may fail: both paths valid
  SpinRegion();
  RunReport report;
  report.tool = "test_hwperf";
  report.graph = "synthetic";
  report.algo = "spin";
  report.CollectObservability();
  const testutil::JsonValue doc = testutil::Parse(ReportToJson(report));

  EXPECT_EQ(doc.At("schema").string, "parhde-run-report/2");

  const testutil::JsonValue& hw = doc.At("hw");
  EXPECT_EQ(hw.At("compiled").boolean, kHwPerfCompiled);
  EXPECT_EQ(hw.At("mode").string, HwCounterModeName(HwCountersMode()));
  ASSERT_TRUE(hw.Has("available"));
  ASSERT_TRUE(hw.Has("reason"));
  ASSERT_TRUE(hw.Has("events"));
  ASSERT_TRUE(hw.Has("phases"));
  if (hw.At("available").boolean) {
    ASSERT_FALSE(hw.At("phases").array.empty());
    const testutil::JsonValue& row = hw.At("phases").array[0];
    EXPECT_EQ(row.At("phase").string, kTestPhase);
    EXPECT_GE(row.At("regions").number, 1.0);
    ASSERT_TRUE(row.Has("counters"));
    ASSERT_TRUE(row.Has("derived"));
  } else {
    EXPECT_FALSE(hw.At("reason").string.empty());
    EXPECT_TRUE(hw.At("phases").array.empty());
  }

  const testutil::JsonValue& memory = doc.At("memory");
#ifdef __linux__
  EXPECT_GT(memory.At("peak_rss_bytes").number, 0.0);
#else
  ASSERT_TRUE(memory.Has("peak_rss_bytes"));
#endif

  // The /1 keys are unchanged, and thread rows carry the new rss field.
  ASSERT_TRUE(doc.Has("thread_phases"));
  ASSERT_FALSE(doc.At("thread_phases").array.empty());
  EXPECT_TRUE(doc.At("thread_phases").array[0].Has("rss_delta_bytes"));
}

}  // namespace
}  // namespace parhde::obs
