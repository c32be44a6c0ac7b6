#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/phase.hpp"
#include "obs/thread_stats.hpp"
#include "util/memory.hpp"
#include "util/run_context.hpp"

namespace parhde {
namespace {

TEST(WallTimer, MeasuresNonNegativeMonotoneTime) {
  WallTimer timer;
  const double a = timer.Seconds();
  const double b = timer.Seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  timer.Reset();
  EXPECT_LT(timer.Seconds(), b + 1.0);
}

TEST(PhaseTimings, AccumulatesPerPhase) {
  PhaseTimings t;
  t.Add("BFS", 1.0);
  t.Add("BFS", 0.5);
  t.Add("DOrtho", 2.0);
  EXPECT_DOUBLE_EQ(t.Get("BFS"), 1.5);
  EXPECT_DOUBLE_EQ(t.Get("DOrtho"), 2.0);
  EXPECT_DOUBLE_EQ(t.Get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.Total(), 3.5);
}

TEST(PhaseTimings, PercentSumsToHundred) {
  PhaseTimings t;
  t.Add("A", 1.0);
  t.Add("B", 3.0);
  EXPECT_DOUBLE_EQ(t.Percent("A"), 25.0);
  EXPECT_DOUBLE_EQ(t.Percent("B"), 75.0);
}

TEST(PhaseTimings, PercentOfEmptyIsZero) {
  PhaseTimings t;
  EXPECT_DOUBLE_EQ(t.Percent("anything"), 0.0);
}

TEST(PhaseTimings, NamesKeepFirstRecordedOrder) {
  PhaseTimings t;
  t.Add("Z", 1.0);
  t.Add("A", 1.0);
  t.Add("Z", 1.0);  // no duplicate entry
  ASSERT_EQ(t.Names().size(), 2u);
  EXPECT_EQ(t.Names()[0], "Z");
  EXPECT_EQ(t.Names()[1], "A");
}

TEST(PhaseTimings, ClearResets) {
  PhaseTimings t;
  t.Add("A", 1.0);
  t.Clear();
  EXPECT_DOUBLE_EQ(t.Total(), 0.0);
  EXPECT_TRUE(t.Names().empty());
}

TEST(PhaseTimings, MergeSumsPhaseWise) {
  PhaseTimings a, b;
  a.Add("X", 1.0);
  b.Add("X", 2.0);
  b.Add("Y", 3.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Get("X"), 3.0);
  EXPECT_DOUBLE_EQ(a.Get("Y"), 3.0);
}

TEST(PhaseTimings, MergeAppendsNewNamesAfterExisting) {
  PhaseTimings a, b;
  a.Add("First", 1.0);
  b.Add("Second", 1.0);
  b.Add("First", 1.0);
  a.Merge(b);
  ASSERT_EQ(a.Names().size(), 2u);
  EXPECT_EQ(a.Names()[0], "First");
  EXPECT_EQ(a.Names()[1], "Second");
}

TEST(PhaseTimings, ClearThenReuseStartsFresh) {
  PhaseTimings t;
  t.Add("Old", 5.0);
  t.Clear();
  t.Add("New", 1.0);
  ASSERT_EQ(t.Names().size(), 1u);
  EXPECT_EQ(t.Names()[0], "New");
  EXPECT_DOUBLE_EQ(t.Get("Old"), 0.0);
  EXPECT_DOUBLE_EQ(t.Total(), 1.0);
}

TEST(PhaseTimings, NegativeAdjustmentsReattributeTime) {
  // Add is a plain signed sum: moving time from one phase to another keeps
  // every phase and the total consistent.
  PhaseTimings t;
  t.Add("BFS", 2.0);
  t.Add("BFS:Other", 0.5);
  t.Add("BFS", -0.5);
  EXPECT_DOUBLE_EQ(t.Get("BFS"), 1.5);
  EXPECT_DOUBLE_EQ(t.Get("BFS:Other"), 0.5);
  EXPECT_DOUBLE_EQ(t.Total(), 2.0);
}

/// Busy-waits for `seconds` of wall time.
void Spin(double seconds) {
  const WallTimer timer;
  while (timer.Seconds() < seconds) {
  }
}

const char* CurrentPhase() {
  return util::CurrentRunContext()->thread_stats().CurrentPhase();
}

TEST(ObsPhase, RecordsOnDestruction) {
  PhaseTimings t;
  {
    obs::Phase scoped(t, "scope");
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(t.Get("scope"), 0.0);
}

TEST(ObsPhase, NestedPhasesBookSelfTime) {
  PhaseTimings t;
  const WallTimer wall;
  {
    obs::Phase outer(t, "Outer");
    Spin(2e-3);
    {
      obs::Phase inner(t, "Inner");
      Spin(5e-3);
    }
    Spin(2e-3);
  }
  const double elapsed = wall.Seconds();
  const double outer = t.Get("Outer");
  const double inner = t.Get("Inner");
  EXPECT_GE(inner, 5e-3);
  EXPECT_GE(outer, 4e-3);
  // Each second is booked once: the self times add up to the outer scope's
  // elapsed time, which lies inside the wall-clock window around it, and
  // the outer phase alone books less than that by the nested phase.
  EXPECT_GE(outer + inner, 9e-3);
  EXPECT_LE(outer + inner, elapsed);
  EXPECT_LE(outer, elapsed - inner);
  EXPECT_DOUBLE_EQ(t.Total(), outer + inner);
}

TEST(ObsPhase, NestingSpansSinks) {
  // The self-time rule follows the run context, not the sink: a phase
  // booked into another PhaseTimings still leaves its parent.
  PhaseTimings parent_sink;
  PhaseTimings child_sink;
  {
    obs::Phase outer(parent_sink, "Outer");
    obs::Phase inner(child_sink, "Inner");
    Spin(5e-3);
  }
  EXPECT_GE(child_sink.Get("Inner"), 5e-3);
  EXPECT_LT(parent_sink.Get("Outer"), child_sink.Get("Inner"));
}

TEST(ObsPhase, RestoresAttributionAndChargesRssWhenAnExceptionLeaves) {
  obs::ResetThreadStats();
  PhaseTimings t;
  const std::int64_t before = PeakRssBytes();
  {
    obs::Phase outer(t, "ObsPhaseOuter");
    EXPECT_STREQ(CurrentPhase(), "ObsPhaseOuter");
    try {
      obs::Phase inner(t, "ObsPhaseInner");
      EXPECT_STREQ(CurrentPhase(), "ObsPhaseInner");
      // Touch a fresh 32 MiB block; if this raises the process high-water
      // mark, the growth is charged to the phase the exception leaves.
      std::vector<char> block(32u << 20, 1);
      volatile char sink = block[block.size() - 1];
      (void)sink;
      throw std::runtime_error("leave the phase");
    } catch (const std::runtime_error&) {
    }
    EXPECT_STREQ(CurrentPhase(), "ObsPhaseOuter");
  }
  EXPECT_EQ(CurrentPhase(), nullptr);
  EXPECT_GT(t.Get("ObsPhaseInner"), 0.0);
  EXPECT_GT(t.Get("ObsPhaseOuter"), 0.0);
  if (PeakRssBytes() > before) {
    const auto stats = obs::SnapshotThreadStats();
    ASSERT_FALSE(stats.empty());
    EXPECT_EQ(stats[0].phase, "ObsPhaseInner");
    EXPECT_GT(stats[0].rss_delta_bytes, 0);
  }
  obs::ResetThreadStats();
}

}  // namespace
}  // namespace parhde
