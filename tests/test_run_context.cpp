// util::RunContext tests: install/restore nesting, OpenMP-team
// propagation, counter isolation between concurrent contexts, sibling
// deadline independence and merge-on-completion semantics. Suites are named RunContext* so the
// TSan CI job's filter picks them up — the concurrent cases here are the
// acceptance test for truly concurrent layouts.
#include "util/run_context.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "hde/parhde.hpp"
#include "obs/counters.hpp"
#include "resilience/deadline.hpp"
#include "util/status.hpp"

namespace parhde::util {
namespace {

TEST(RunContextTest, CurrentDefaultsToGlobal) {
  EXPECT_EQ(CurrentRunContext(), &GlobalRunContext());
}

TEST(RunContextTest, ScopedInstallNestsAndRestores) {
  RunContext outer;
  RunContext inner;
  {
    ScopedRunContext outer_scope(outer);
    EXPECT_EQ(CurrentRunContext(), &outer);
    {
      ScopedRunContext inner_scope(inner);
      EXPECT_EQ(CurrentRunContext(), &inner);
    }
    EXPECT_EQ(CurrentRunContext(), &outer);
  }
  EXPECT_EQ(CurrentRunContext(), &GlobalRunContext());
}

TEST(RunContextTest, InstallIsThreadLocal) {
  RunContext ctx;
  ScopedRunContext scope(ctx);
  // A freshly spawned thread has no installed context: it must see the
  // global one, not this thread's.
  RunContext* seen = nullptr;
  std::thread t([&] { seen = CurrentRunContext(); });
  t.join();
  EXPECT_EQ(seen, &GlobalRunContext());
  EXPECT_EQ(CurrentRunContext(), &ctx);
}

TEST(RunContextTest, OmpTeamPropagationBindsEveryWorker) {
  RunContext ctx;
  ScopedRunContext scope(ctx);
  // The canonical region-entry pattern from run_context.hpp: capture on
  // the master, re-install on every team thread.
  RunContext* const run_ctx = CurrentRunContext();
  std::atomic<int> bound{0};
  std::atomic<int> team{0};
#pragma omp parallel
  {
    ScopedRunContext run_scope(*run_ctx);
#pragma omp single
    team.store(omp_get_num_threads());
    if (CurrentRunContext() == &ctx) bound.fetch_add(1);
    obs::CounterAdd(obs::Counter::kBfsSearches, 1);
  }
  EXPECT_EQ(bound.load(), team.load());
  // Every team thread's flush landed in ctx, none in the global store.
  EXPECT_EQ(ctx.counters().Value(obs::Counter::kBfsSearches), team.load());
}

TEST(RunContextTest, CounterWritesRouteToInstalledContext) {
  const std::int64_t global_before =
      GlobalRunContext().counters().Value(obs::Counter::kSsspRelaxations);
  RunContext ctx;
  {
    ScopedRunContext scope(ctx);
    obs::CounterAdd(obs::Counter::kSsspRelaxations, 7);
    EXPECT_EQ(obs::CounterValue(obs::Counter::kSsspRelaxations), 7);
  }
  EXPECT_EQ(ctx.counters().Value(obs::Counter::kSsspRelaxations), 7);
  EXPECT_EQ(GlobalRunContext().counters().Value(obs::Counter::kSsspRelaxations),
            global_before);
}

TEST(RunContextTest, ThisThreadOrdinalIsUniquePerThread) {
  constexpr int kThreads = 8;
  std::vector<int> ordinals(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { ordinals[t] = ThisThreadOrdinal(); });
  }
  for (auto& t : threads) t.join();
  std::set<int> unique(ordinals.begin(), ordinals.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
  // Stable within a thread.
  EXPECT_EQ(ThisThreadOrdinal(), ThisThreadOrdinal());
}

// Two threads, each with its own context, running REAL layouts
// concurrently: counters must land in the owning context with the same
// totals a serial run produces. This is the acceptance test for evicting
// the process-global registries.
TEST(RunContextConcurrencyTest, ConcurrentLayoutsKeepDisjointCounters) {
  const CsrGraph small = BuildCsrGraph(400, GenGrid2d(20, 20));
  const CsrGraph big = BuildCsrGraph(2500, GenGrid2d(50, 50));
  HdeOptions options;
  options.subspace_dim = 6;
  options.start_vertex = 0;

  // Serial reference totals, each measured in a fresh context.
  auto reference = [&](const CsrGraph& g) {
    RunContext ctx;
    ScopedRunContext scope(ctx);
    RunParHde(g, options);
    return ctx.counters().Value(obs::Counter::kBfsFrontierVertices);
  };
  const std::int64_t small_expected = reference(small);
  const std::int64_t big_expected = reference(big);
  ASSERT_GT(small_expected, 0);
  ASSERT_GT(big_expected, small_expected);

  const std::int64_t global_before =
      GlobalRunContext().counters().Value(obs::Counter::kBfsFrontierVertices);

  RunContext small_ctx;
  RunContext big_ctx;
  std::thread small_thread([&] {
    ScopedRunContext scope(small_ctx);
    RunParHde(small, options);
  });
  std::thread big_thread([&] {
    ScopedRunContext scope(big_ctx);
    RunParHde(big, options);
  });
  small_thread.join();
  big_thread.join();

  // Disjoint and exact: neither run bled a single frontier vertex into
  // the sibling or the global store.
  EXPECT_EQ(small_ctx.counters().Value(obs::Counter::kBfsFrontierVertices),
            small_expected);
  EXPECT_EQ(big_ctx.counters().Value(obs::Counter::kBfsFrontierVertices),
            big_expected);
  EXPECT_EQ(
      GlobalRunContext().counters().Value(obs::Counter::kBfsFrontierVertices),
      global_before);
}

// One context arms a hopeless deadline while a sibling context runs a
// full layout: the sibling must complete, and the expiry must be
// recorded only in the context that owned it.
TEST(RunContextConcurrencyTest, DeadlineExpiryDoesNotCancelSibling) {
  const CsrGraph g = BuildCsrGraph(2500, GenGrid2d(50, 50));
  HdeOptions options;
  options.subspace_dim = 6;
  options.start_vertex = 0;

  RunContext doomed_ctx;
  RunContext healthy_ctx;
  std::atomic<bool> doomed_expired{false};
  std::atomic<bool> healthy_completed{false};

  std::thread doomed([&] {
    ScopedRunContext scope(doomed_ctx);
    try {
      resilience::DeadlineGuard guard("test.doomed", 1e-9);
      RunParHde(g, options);
    } catch (const ParhdeError& e) {
      doomed_expired.store(e.code() == ErrorCode::kDeadlineExceeded);
    }
  });
  std::thread healthy([&] {
    ScopedRunContext scope(healthy_ctx);
    const HdeResult result = RunParHde(g, options);
    healthy_completed.store(result.layout.x.size() == 2500u);
  });
  doomed.join();
  healthy.join();

  EXPECT_TRUE(doomed_expired.load());
  EXPECT_TRUE(healthy_completed.load());
  EXPECT_GE(doomed_ctx.counters().Value(obs::Counter::kDeadlineExpirations),
            1);
  EXPECT_EQ(healthy_ctx.counters().Value(obs::Counter::kDeadlineExpirations),
            0);
  // The sibling's token was never armed, let alone expired.
  EXPECT_FALSE(healthy_ctx.deadline().Armed());
}

TEST(RunContextTest, DeadlineTokenIsPerContext) {
  RunContext a;
  RunContext b;
  {
    ScopedRunContext scope(a);
    resilience::DeadlineGuard guard("test.a", 1e-9);
    // a's token expires essentially immediately...
    EXPECT_TRUE(resilience::DeadlinePoll());
    {
      // ...but polling under b sees b's (unarmed) token.
      ScopedRunContext inner(b);
      EXPECT_FALSE(resilience::DeadlinePoll());
    }
    EXPECT_TRUE(resilience::DeadlinePoll());
  }
  EXPECT_FALSE(b.deadline().Armed());
}

TEST(RunContextTest, MergeIntoAccumulatesCountersSeriesAndRecovery) {
  RunContext src;
  RunContext dst;
  {
    ScopedRunContext scope(src);
    obs::CounterAdd(obs::Counter::kServiceRequests, 3);
    obs::SeriesAppend(obs::Series::kBfsFrontierSizes, 11);
    obs::SeriesAppend(obs::Series::kBfsFrontierSizes, 22);
    resilience::RecordRecoveryAttempt(
        {"BFS", "msbfs", "numerical", 0.5, true});
  }
  dst.counters().Add(obs::Counter::kServiceRequests, 2);

  src.MergeInto(dst);
  EXPECT_EQ(dst.counters().Value(obs::Counter::kServiceRequests), 5);
  const auto series = dst.counters().Values(obs::Series::kBfsFrontierSizes);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0], 11);
  EXPECT_EQ(series[1], 22);
  ASSERT_EQ(dst.recovery().Snapshot().size(), 1u);
  EXPECT_EQ(dst.recovery().Snapshot()[0].phase, "BFS");
  // Merge reads, never drains: the source still holds its own totals.
  EXPECT_EQ(src.counters().Value(obs::Counter::kServiceRequests), 3);
}

TEST(RunContextTest, ResetRunStateClearsEverything) {
  RunContext ctx;
  {
    ScopedRunContext scope(ctx);
    obs::CounterAdd(obs::Counter::kBfsLevels, 9);
    obs::SeriesAppend(obs::Series::kBfsFrontierSizes, 1);
    resilience::RecordRecoveryAttempt({"BFS", "msbfs", "numerical", 0.1,
                                       false});
  }
  ctx.ResetRunState();
  EXPECT_EQ(ctx.counters().Value(obs::Counter::kBfsLevels), 0);
  EXPECT_TRUE(ctx.counters().Values(obs::Series::kBfsFrontierSizes).empty());
  EXPECT_TRUE(ctx.recovery().Snapshot().empty());
}

TEST(RunContextTest, LiveCountTracksConstruction) {
  const std::int64_t before = RunContext::LiveCount();
  {
    RunContext a;
    EXPECT_EQ(RunContext::LiveCount(), before + 1);
    RunContext b;
    EXPECT_EQ(RunContext::LiveCount(), before + 2);
  }
  EXPECT_EQ(RunContext::LiveCount(), before);
}

}  // namespace
}  // namespace parhde::util
