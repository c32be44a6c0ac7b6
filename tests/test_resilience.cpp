// Resilience-layer tests: fault-plan parsing, the deadline/watchdog layer,
// the declarative recovery ladder, the recovery section of the run report,
// and — in PARHDE_FAULT_INJECTION=ON builds — deterministic replay of
// injected failures asserting the exact downgrade sequences via fired-site
// counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hde/parhde.hpp"
#include "hde/pivots.hpp"
#include "json_test_util.hpp"
#include "linalg/dense_matrix.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/recovery.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

#ifndef PARHDE_CLI_PATH
#define PARHDE_CLI_PATH ""
#endif

namespace parhde {
namespace {

using resilience::DeadlineGuard;
using resilience::FaultFiredCount;
using resilience::LoadFaultPlan;
using resilience::RecoveryAttempt;
using resilience::RecoveryPolicy;
using resilience::ResilienceOptions;
using testutil::JsonValue;
using testutil::Parse;

/// Every test starts from a clean slate: no plan, no log, no counters.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    resilience::ClearFaultPlan();
    obs::ResetObservability();
  }
  void TearDown() override {
    resilience::ClearFaultPlan();
    obs::ResetObservability();
  }
};

ErrorCode CodeOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ParhdeError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

// ---------------------------------------------------------------------------
// Fault-plan registry (always compiled; only the kernel hooks are gated).
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, PlanParsesSitesAndParameters) {
  LoadFaultPlan("spmm:nan@iter=3,io:short-read@bytes=4096,sssp:stall");
  EXPECT_TRUE(resilience::FaultPlanActive());
  EXPECT_EQ(resilience::FaultParam("io:short-read", 64), 4096);
  EXPECT_EQ(resilience::FaultParam("gs:nan", 7), 7);  // unplanned: fallback
  // Stall entries default to 100 ms.
  EXPECT_EQ(resilience::FaultStallMs("sssp:stall"), 100);
  resilience::ClearFaultPlan();
  EXPECT_FALSE(resilience::FaultPlanActive());
  EXPECT_EQ(resilience::FaultStallMs("sssp:stall"), 0);
}

TEST_F(ResilienceTest, PlanRejectsMalformedEntries) {
  const std::vector<std::string> bad = {
      "unknown:site",        // not in the catalog
      "spmm:nan,",           // empty entry
      ",gs:nan",             // empty entry
      "spmm:nan@iter=zero",  // non-numeric parameter
      "spmm:nan@iter=0",     // non-positive parameter
      "spmm:nan@iter=-2",    // non-positive parameter
      "gs:nan,gs:nan",       // duplicate site
  };
  for (const std::string& plan : bad) {
    EXPECT_EQ(CodeOf([&] { LoadFaultPlan(plan); }), ErrorCode::kUsage)
        << "plan: " << plan;
  }
  // A failed load must not leave a partial plan behind.
  EXPECT_FALSE(resilience::FaultPlanActive());
}

TEST_F(ResilienceTest, OneShotSiteFiresExactlyOnceOnTheNthCall) {
  LoadFaultPlan("spmm:nan@iter=3");
  EXPECT_FALSE(resilience::FaultArm("spmm:nan"));  // call 1
  EXPECT_FALSE(resilience::FaultArm("spmm:nan"));  // call 2
  EXPECT_TRUE(resilience::FaultArm("spmm:nan"));   // call 3: fires
  EXPECT_FALSE(resilience::FaultArm("spmm:nan"));  // never again
  EXPECT_EQ(FaultFiredCount("spmm:nan"), 1);
  EXPECT_FALSE(resilience::FaultArm("gs:nan"));  // unplanned site
  EXPECT_EQ(obs::CounterValue(obs::Counter::kFaultsInjected), 1);
}

TEST_F(ResilienceTest, StallSiteFiresEveryCall) {
  LoadFaultPlan("bfs:stall@ms=7");
  EXPECT_EQ(resilience::FaultStallMs("bfs:stall"), 7);
  EXPECT_EQ(resilience::FaultStallMs("bfs:stall"), 7);
  EXPECT_EQ(FaultFiredCount("bfs:stall"), 2);
}

TEST_F(ResilienceTest, ResetKeepsThePlanButZeroesCounters) {
  LoadFaultPlan("gs:nan");
  EXPECT_TRUE(resilience::FaultArm("gs:nan"));
  resilience::ResetFaultCounters();
  EXPECT_TRUE(resilience::FaultPlanActive());
  EXPECT_EQ(FaultFiredCount("gs:nan"), 0);
  EXPECT_TRUE(resilience::FaultArm("gs:nan"));  // armed again after reset
}

// ---------------------------------------------------------------------------
// Deadline layer.
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, NoGuardMeansNoDeadline) {
  EXPECT_FALSE(resilience::DeadlineArmed());
  EXPECT_FALSE(resilience::DeadlinePoll());
  EXPECT_NO_THROW(resilience::CheckDeadline("BFS"));
}

TEST_F(ResilienceTest, NonPositiveBudgetIsANoOpGuard) {
  DeadlineGuard guard("BFS", 0.0);
  EXPECT_FALSE(resilience::DeadlineArmed());
}

TEST_F(ResilienceTest, ExpiredGuardThrowsWithPhaseAndBudget) {
  std::string message;
  {
    DeadlineGuard guard("TestPhase", 1e-9);
    // 1 ns is expired by the time we can poll it.
    EXPECT_TRUE(resilience::DeadlineArmed());
    EXPECT_TRUE(resilience::DeadlinePoll());
    try {
      resilience::CheckDeadline("TestPhase");
      FAIL() << "expected kDeadlineExceeded";
    } catch (const ParhdeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
      message = e.what();
    }
  }
  EXPECT_NE(message.find("TestPhase"), std::string::npos) << message;
  EXPECT_NE(message.find("deadline exceeded"), std::string::npos) << message;
  EXPECT_FALSE(resilience::DeadlineArmed());  // destructor restored
  EXPECT_GE(obs::CounterValue(obs::Counter::kDeadlineExpirations), 1);
}

TEST_F(ResilienceTest, NestedGuardsOnlyTighten) {
  DeadlineGuard outer("outer", 1e-9);  // already expired
  {
    DeadlineGuard inner("inner", 3600.0);  // cannot loosen the outer deadline
    EXPECT_TRUE(resilience::DeadlinePoll());
  }
  EXPECT_TRUE(resilience::DeadlinePoll());  // outer still armed and expired
}

TEST_F(ResilienceTest, GenerousBudgetDoesNotTrip) {
  DeadlineGuard guard("BFS", 3600.0);
  EXPECT_TRUE(resilience::DeadlineArmed());
  EXPECT_FALSE(resilience::DeadlinePoll());
  EXPECT_NO_THROW(resilience::CheckDeadline("BFS"));
}

// ---------------------------------------------------------------------------
// RunLadder.
// ---------------------------------------------------------------------------

constexpr const char* kTwoRungs[] = {"fancy", "reference"};

TEST_F(ResilienceTest, HealthyFirstRungRecordsNothing) {
  ResilienceOptions opts;
  const int result = resilience::RunLadder(
      "Phase", opts, 0.0, kTwoRungs, 2, [](std::size_t) { return 42; });
  EXPECT_EQ(result, 42);
  EXPECT_TRUE(resilience::RecoveryAttempts().empty());
  EXPECT_EQ(obs::CounterValue(obs::Counter::kRecoveryRetries), 0);
}

TEST_F(ResilienceTest, RetryableFailureDowngradesAndLogsBothAttempts) {
  ResilienceOptions opts;
  const int result = resilience::RunLadder(
      "Phase", opts, 0.0, kTwoRungs, 2, [](std::size_t rung) {
        if (rung == 0) {
          throw ParhdeError(ErrorCode::kNumerical, "Phase", "poisoned");
        }
        return 7;
      });
  EXPECT_EQ(result, 7);
  const auto log = resilience::RecoveryAttempts();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].phase, "Phase");
  EXPECT_EQ(log[0].kernel, "fancy");
  EXPECT_EQ(log[0].trigger, "numerical");
  EXPECT_FALSE(log[0].succeeded);
  EXPECT_EQ(log[1].kernel, "reference");
  EXPECT_EQ(log[1].trigger, "numerical");  // what led to the downgrade
  EXPECT_TRUE(log[1].succeeded);
  EXPECT_EQ(obs::CounterValue(obs::Counter::kRecoveryRetries), 1);
}

TEST_F(ResilienceTest, StrictPolicyFailsFast) {
  ResilienceOptions opts;
  opts.recovery = RecoveryPolicy::Strict;
  int calls = 0;
  EXPECT_EQ(CodeOf([&] {
              resilience::RunLadder("Phase", opts, 0.0, kTwoRungs, 2,
                                    [&](std::size_t) -> int {
                                      ++calls;
                                      throw ParhdeError(
                                          ErrorCode::kNoConvergence, "Phase",
                                          "diverged");
                                    });
            }),
            ErrorCode::kNoConvergence);
  EXPECT_EQ(calls, 1);  // no second rung under strict
  const auto log = resilience::RecoveryAttempts();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].succeeded);
}

TEST_F(ResilienceTest, NonRetryableErrorsAreNotLaddered) {
  ResilienceOptions opts;
  int calls = 0;
  EXPECT_EQ(CodeOf([&] {
              resilience::RunLadder("Phase", opts, 0.0, kTwoRungs, 2,
                                    [&](std::size_t) -> int {
                                      ++calls;
                                      throw ParhdeError(ErrorCode::kIo,
                                                        "Phase", "disk gone");
                                    });
            }),
            ErrorCode::kIo);
  EXPECT_EQ(calls, 1);
}

TEST_F(ResilienceTest, ExhaustedLadderRethrowsTheLastError) {
  ResilienceOptions opts;
  EXPECT_EQ(CodeOf([&] {
              resilience::RunLadder(
                  "Phase", opts, 0.0, kTwoRungs, 2, [](std::size_t) -> int {
                    throw ParhdeError(ErrorCode::kNumerical, "Phase", "again");
                  });
            }),
            ErrorCode::kNumerical);
  const auto log = resilience::RecoveryAttempts();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[0].succeeded);
  EXPECT_FALSE(log[1].succeeded);
}

TEST_F(ResilienceTest, ExpiredOuterDeadlineStopsTheLadder) {
  ResilienceOptions opts;
  DeadlineGuard outer("run", 1e-9);  // whole-run budget already spent
  int calls = 0;
  EXPECT_EQ(CodeOf([&] {
              resilience::RunLadder("Phase", opts, 0.0, kTwoRungs, 2,
                                    [&](std::size_t) -> int {
                                      ++calls;
                                      throw ParhdeError(ErrorCode::kNumerical,
                                                        "Phase", "poisoned");
                                    });
            }),
            ErrorCode::kNumerical);
  EXPECT_EQ(calls, 1);  // retrying with no time left is pointless
}

TEST_F(ResilienceTest, IsRetryableCoversExactlyTheRecoverableCodes) {
  EXPECT_TRUE(resilience::IsRetryable(ErrorCode::kNumerical));
  EXPECT_TRUE(resilience::IsRetryable(ErrorCode::kNoConvergence));
  EXPECT_TRUE(resilience::IsRetryable(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(resilience::IsRetryable(ErrorCode::kIo));
  EXPECT_FALSE(resilience::IsRetryable(ErrorCode::kUsage));
  EXPECT_FALSE(resilience::IsRetryable(ErrorCode::kParse));
}

// ---------------------------------------------------------------------------
// New error codes and exit codes.
// ---------------------------------------------------------------------------

TEST(ResilienceStatus, DeadlineAndResourceCodesAreDocumented) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kResourceExhausted),
               "resource-exhausted");
  EXPECT_EQ(ExitCodeFor(ErrorCode::kDeadlineExceeded), 11);
  EXPECT_EQ(ExitCodeFor(ErrorCode::kResourceExhausted), 12);
}

// ---------------------------------------------------------------------------
// SolveSmallEigen (shared eigensolve ladder).
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, SolveSmallEigenHandlesAWellConditionedMatrix) {
  DenseMatrix Z(3, 3);
  const double vals[3][3] = {{4, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 0; r < 3; ++r) Z.Col(c)[r] = vals[r][c];
  }
  ResilienceOptions opts;
  const EigenDecomposition eig =
      resilience::SolveSmallEigen(Z, "Eigensolve", opts);
  EXPECT_TRUE(eig.converged);
  EXPECT_EQ(eig.values.size(), 3u);
  EXPECT_TRUE(resilience::RecoveryAttempts().empty());
}

TEST_F(ResilienceTest, SolveSmallEigenRejectsAPoisonedMatrixAsNumerical) {
  DenseMatrix Z(2, 2);
  Z.Col(0)[0] = std::nan("");
  ResilienceOptions opts;
  EXPECT_EQ(
      CodeOf([&] { resilience::SolveSmallEigen(Z, "Eigensolve", opts); }),
      ErrorCode::kNumerical);
}

// ---------------------------------------------------------------------------
// Deadlines through the real drivers.
// ---------------------------------------------------------------------------

CsrGraph TestGrid(vid_t rows, vid_t cols) {
  return BuildCsrGraph(rows * cols, GenGrid2d(rows, cols));
}

CsrGraph WeightedChain(vid_t n) {
  EdgeList edges;
  for (vid_t v = 0; v + 1 < n; ++v) {
    edges.push_back({v, v + 1, 1.0});
  }
  BuildOptions opts;
  opts.keep_weights = true;
  return BuildCsrGraph(n, edges, opts);
}

TEST_F(ResilienceTest, TinyDistanceBudgetSurfacesDeadlineExceeded) {
  const CsrGraph g = TestGrid(32, 32);
  HdeOptions options;
  options.subspace_dim = 6;
  options.resilience.recovery = RecoveryPolicy::Strict;
  options.resilience.distance_budget_seconds = 1e-9;
  EXPECT_EQ(CodeOf([&] { RunParHde(g, options); }),
            ErrorCode::kDeadlineExceeded);
}

TEST_F(ResilienceTest, GenerousBudgetsLeaveTheRecoveryLogEmpty) {
  const CsrGraph g = TestGrid(24, 24);
  HdeOptions options;
  options.subspace_dim = 6;
  options.resilience.distance_budget_seconds = 600.0;
  options.resilience.dortho_budget_seconds = 600.0;
  options.resilience.eigensolve_budget_seconds = 600.0;
  const HdeResult result = RunParHde(g, options);
  for (const double x : result.layout.x) ASSERT_TRUE(std::isfinite(x));
  EXPECT_TRUE(resilience::RecoveryAttempts().empty());
}

// ---------------------------------------------------------------------------
// Recovery section of the run report.
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, ReportCarriesTheRecoverySection) {
  resilience::RecordRecoveryAttempt(
      {"BFS", "msbfs", "numerical", 0.25, false});
  resilience::RecordRecoveryAttempt({"BFS", "parbfs", "numerical", 0.5, true});
  obs::RunReport report;
  report.algo = "parhde";
  report.CollectObservability();

  const JsonValue v = Parse(obs::ReportToJson(report));
  ASSERT_TRUE(v.Has("recovery"));
  const auto& recovery = v.At("recovery").array;
  ASSERT_EQ(recovery.size(), 2u);
  EXPECT_EQ(recovery[0].At("phase").string, "BFS");
  EXPECT_EQ(recovery[0].At("kernel").string, "msbfs");
  EXPECT_EQ(recovery[0].At("trigger").string, "numerical");
  EXPECT_FALSE(recovery[0].At("succeeded").boolean);
  EXPECT_TRUE(recovery[1].At("succeeded").boolean);

  const std::string text = obs::ReportToText(report);
  EXPECT_NE(text.find("recovery ladder:"), std::string::npos);
  EXPECT_NE(text.find("parbfs"), std::string::npos);
  EXPECT_NE(text.find("recovered"), std::string::npos);
}

TEST_F(ResilienceTest, HealthyReportHasAnEmptyRecoveryArray) {
  obs::RunReport report;
  report.CollectObservability();
  const JsonValue v = Parse(obs::ReportToJson(report));
  ASSERT_TRUE(v.Has("recovery"));
  EXPECT_TRUE(v.At("recovery").array.empty());
  EXPECT_EQ(obs::ReportToText(report).find("recovery ladder:"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI: the fault-plan flag is honored (or refused) per build configuration.
// ---------------------------------------------------------------------------

class ResilienceCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(PARHDE_CLI_PATH).empty()) {
      GTEST_SKIP() << "PARHDE_CLI_PATH not configured";
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("parhde_resilience_" + std::to_string(::getpid()));
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

TEST_F(ResilienceCliTest, FaultPlanFlagMatchesBuildConfiguration) {
  ASSERT_EQ(Run("generate --family=chain --n=64 --out=" + Path("c.mtx")), 0)
      << Log();
  const int code =
      Run("layout --in=" + Path("c.mtx") + " --fault-plan=gs:nan --s=4");
  if (resilience::kFaultInjectionCompiled) {
    EXPECT_EQ(code, 0) << Log();
  } else {
    // Asking for injection from a production binary is a usage error, not a
    // silent no-op.
    EXPECT_EQ(code, ExitCodeFor(ErrorCode::kUsage)) << Log();
    EXPECT_NE(Log().find("PARHDE_FAULT_INJECTION"), std::string::npos);
  }
}

TEST_F(ResilienceCliTest, RecoveryAndTimeoutFlagsValidate) {
  ASSERT_EQ(Run("generate --family=chain --n=64 --out=" + Path("c.mtx")), 0)
      << Log();
  EXPECT_EQ(Run("layout --in=" + Path("c.mtx") + " --recovery=bogus"),
            ExitCodeFor(ErrorCode::kUsage));
  EXPECT_EQ(Run("layout --in=" + Path("c.mtx") + " --timeout=-1"),
            ExitCodeFor(ErrorCode::kInvalidValue));
  EXPECT_EQ(Run("layout --in=" + Path("c.mtx") + " --phase-timeout=-1"),
            ExitCodeFor(ErrorCode::kInvalidValue));
  // Valid resilience flags on a healthy run change nothing.
  EXPECT_EQ(Run("layout --in=" + Path("c.mtx") +
                " --recovery=strict --timeout=600 --phase-timeout=600"),
            0)
      << Log();
}

#if PARHDE_FAULT_INJECTION

// ---------------------------------------------------------------------------
// Deterministic replay: each test injects one failure and asserts the exact
// downgrade sequence (or the typed error it must surface as).
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, GsNanRecoversOnTheReferenceRung) {
  const CsrGraph g = TestGrid(20, 20);
  LoadFaultPlan("gs:nan");
  HdeOptions options;
  options.subspace_dim = 6;
  const HdeResult result = RunParHde(g, options);
  for (const double x : result.layout.x) ASSERT_TRUE(std::isfinite(x));
  EXPECT_EQ(FaultFiredCount("gs:nan"), 1);
  const auto log = resilience::RecoveryAttempts();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].phase, phase::kDOrtho);
  EXPECT_EQ(log[0].kernel, "mgs");
  EXPECT_EQ(log[0].trigger, "numerical");
  EXPECT_FALSE(log[0].succeeded);
  EXPECT_EQ(log[1].kernel, "mgs-reference");
  EXPECT_TRUE(log[1].succeeded);
}

TEST_F(ResilienceTest, MsBfsNanDowngradesToParallelBfs) {
  const CsrGraph g = TestGrid(20, 20);
  LoadFaultPlan("msbfs:nan");
  HdeOptions options;
  options.subspace_dim = 12;
  options.pivots = PivotStrategy::Random;
  options.kernel = DistanceKernel::MultiSourceBfs;
  const HdeResult result = RunParHde(g, options);
  for (const double x : result.layout.x) ASSERT_TRUE(std::isfinite(x));
  EXPECT_EQ(FaultFiredCount("msbfs:nan"), 1);
  const auto log = resilience::RecoveryAttempts();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].phase, phase::kBfs);
  EXPECT_EQ(log[0].kernel, "msbfs");
  EXPECT_EQ(log[0].trigger, "numerical");
  EXPECT_FALSE(log[0].succeeded);
  EXPECT_EQ(log[1].kernel, "parbfs");
  EXPECT_TRUE(log[1].succeeded);
}

TEST_F(ResilienceTest, EigensolveNoConvergeFallsBackToPowerIteration) {
  // A non-square grid: a square one has x/y-symmetric eigenvalue pairs the
  // power-iteration rung cannot separate, so even the fallback would fail.
  const CsrGraph g = TestGrid(12, 20);
  LoadFaultPlan("eigensolve:no-converge");
  HdeOptions options;
  options.subspace_dim = 6;
  const HdeResult result = RunParHde(g, options);
  for (const double x : result.layout.x) ASSERT_TRUE(std::isfinite(x));
  EXPECT_EQ(FaultFiredCount("eigensolve:no-converge"), 1);
  const auto log = resilience::RecoveryAttempts();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].phase, phase::kEigensolve);
  EXPECT_EQ(log[0].kernel, "jacobi");
  EXPECT_EQ(log[0].trigger, "no-convergence");
  EXPECT_EQ(log[1].kernel, "power-iteration");
  EXPECT_TRUE(log[1].succeeded);
}

TEST_F(ResilienceTest, EigensolveNanSurfacesAsNumerical) {
  const CsrGraph g = TestGrid(16, 16);
  LoadFaultPlan("eigensolve:nan");
  HdeOptions options;
  options.subspace_dim = 6;
  // A poisoned projected matrix means the upstream phases are corrupt; no
  // eigensolver rung can fix that, so it must surface as kNumerical.
  EXPECT_EQ(CodeOf([&] { RunParHde(g, options); }), ErrorCode::kNumerical);
  EXPECT_EQ(FaultFiredCount("eigensolve:nan"), 1);
}

TEST_F(ResilienceTest, SpmmNanSurfacesAsNumerical) {
  const CsrGraph g = TestGrid(16, 16);
  LoadFaultPlan("spmm:nan");
  HdeOptions options;
  options.subspace_dim = 6;
  EXPECT_EQ(CodeOf([&] { RunParHde(g, options); }), ErrorCode::kNumerical);
  EXPECT_EQ(FaultFiredCount("spmm:nan"), 1);
}

TEST_F(ResilienceTest, TrackedAllocationFailureThrowsBadAlloc) {
  const CsrGraph g = TestGrid(16, 16);
  LoadFaultPlan("alloc:bad-alloc@count=2");
  HdeOptions options;
  options.subspace_dim = 6;
  EXPECT_THROW(RunParHde(g, options), std::bad_alloc);
  EXPECT_EQ(FaultFiredCount("alloc:bad-alloc"), 1);
}

TEST_F(ResilienceTest, IoShortReadSurfacesAsATypedError) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("parhde_shortread_" + std::to_string(::getpid()) +
                     ".mtx");
  WriteMatrixMarketFile(TestGrid(8, 8), path.string());
  LoadFaultPlan("io:short-read@bytes=20");
  EXPECT_THROW(ReadMatrixMarketFile(path.string()), ParhdeError);
  EXPECT_EQ(FaultFiredCount("io:short-read"), 1);
  std::filesystem::remove(path);
}

TEST_F(ResilienceTest, IoCorruptHeaderSurfacesAsATypedError) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("parhde_corrupt_" + std::to_string(::getpid()) + ".mtx");
  WriteMatrixMarketFile(TestGrid(8, 8), path.string());
  LoadFaultPlan("io:corrupt-header");
  EXPECT_THROW(ReadMatrixMarketFile(path.string()), ParhdeError);
  EXPECT_EQ(FaultFiredCount("io:corrupt-header"), 1);
  std::filesystem::remove(path);
}

TEST_F(ResilienceTest, StalledDeltaSteppingIsInterruptedWithinTwiceBudget) {
  // 50 ms per bucket round against a 0.5 s budget: without the deadline the
  // ~100-round chain would stall for ~5 s. Detection latency is bounded by
  // one round, so the whole phase must die well inside 2x the budget.
  const CsrGraph g = WeightedChain(100);
  LoadFaultPlan("sssp:stall@ms=50");
  constexpr double kBudget = 0.5;
  WallTimer timer;
  {
    DeadlineGuard guard("run", kBudget);
    EXPECT_EQ(CodeOf([&] { DeltaStepping(g, 0); }),
              ErrorCode::kDeadlineExceeded);
  }
  EXPECT_LT(timer.Seconds(), 2.0 * kBudget);
  EXPECT_GT(FaultFiredCount("sssp:stall"), 0);
}

TEST_F(ResilienceTest, StalledConcurrentSsspDowngradesToParallel) {
  const CsrGraph g = WeightedChain(400);
  LoadFaultPlan("multisssp:stall@ms=20");
  HdeOptions options;
  options.subspace_dim = 4;
  options.pivots = PivotStrategy::Random;
  options.kernel = DistanceKernel::DeltaStepping;
  options.sssp_engine = SsspEngine::Concurrent;
  options.resilience.distance_budget_seconds = 0.2;
  const HdeResult result = RunParHde(g, options);
  for (const double x : result.layout.x) ASSERT_TRUE(std::isfinite(x));
  EXPECT_GT(FaultFiredCount("multisssp:stall"), 0);
  const auto log = resilience::RecoveryAttempts();
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log[0].phase, phase::kBfs);
  EXPECT_EQ(log[0].kernel, "sssp-concurrent");
  EXPECT_EQ(log[0].trigger, "deadline-exceeded");
  EXPECT_FALSE(log[0].succeeded);
  EXPECT_EQ(log.back().kernel, "sssp-parallel");
  EXPECT_TRUE(log.back().succeeded);
}

TEST_F(ResilienceTest, StrictPolicyDisablesEveryDowngrade) {
  const CsrGraph g = TestGrid(20, 20);
  LoadFaultPlan("gs:nan");
  HdeOptions options;
  options.subspace_dim = 6;
  options.resilience.recovery = RecoveryPolicy::Strict;
  EXPECT_EQ(CodeOf([&] { RunParHde(g, options); }), ErrorCode::kNumerical);
  const auto log = resilience::RecoveryAttempts();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].succeeded);
}

// ---------------------------------------------------------------------------
// End-to-end replay through the CLI: exit codes, report recovery section,
// per-site fired counters, --timeout interruption.
// ---------------------------------------------------------------------------

TEST_F(ResilienceCliTest, InjectedGsFailureShowsUpInTheReport) {
  ASSERT_EQ(Run("generate --family=grid --rows=24 --cols=24 --out=" +
                Path("g.mtx")),
            0)
      << Log();
  ASSERT_EQ(Run("layout --in=" + Path("g.mtx") +
                " --s=6 --fault-plan=gs:nan --report=" + Path("run.json")),
            0)
      << Log();
  const JsonValue report = Parse(Slurp("run.json"));
  const auto& recovery = report.At("recovery").array;
  ASSERT_EQ(recovery.size(), 2u);
  EXPECT_EQ(recovery[0].At("kernel").string, "mgs");
  EXPECT_FALSE(recovery[0].At("succeeded").boolean);
  EXPECT_TRUE(recovery[1].At("succeeded").boolean);
  EXPECT_EQ(report.At("counters").At("fault.gs:nan").number, 1.0);
  EXPECT_GE(report.At("counters").At("recovery.retries").number, 1.0);
  EXPECT_EQ(report.At("config").At("fault_plan").string, "gs:nan");
}

TEST_F(ResilienceCliTest, EnvFaultPlanIsTheFlagFallback) {
  ASSERT_EQ(Run("generate --family=grid --rows=16 --cols=16 --out=" +
                Path("g.mtx")),
            0)
      << Log();
  const std::string cmd = "PARHDE_FAULT_PLAN=eigensolve:nan " +
                          std::string(PARHDE_CLI_PATH) + " layout --in=" +
                          Path("g.mtx") + " --s=6 > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
#ifdef __unix__
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), ExitCodeFor(ErrorCode::kNumerical));
#endif
}

TEST_F(ResilienceCliTest, BadAllocMapsToResourceExhaustedExitCode) {
  ASSERT_EQ(Run("generate --family=grid --rows=16 --cols=16 --out=" +
                Path("g.mtx")),
            0)
      << Log();
  EXPECT_EQ(Run("layout --in=" + Path("g.mtx") +
                " --s=6 --fault-plan=alloc:bad-alloc"),
            ExitCodeFor(ErrorCode::kResourceExhausted))
      << Log();
}

TEST_F(ResilienceCliTest, TimeoutInterruptsAStalledRun) {
  ASSERT_EQ(Run("generate --family=chain --n=200 --out=" + Path("c.mtx")), 0)
      << Log();
  EXPECT_EQ(Run("layout --in=" + Path("c.mtx") +
                " --s=4 --kernel=sssp --fault-plan=sssp:stall@ms=50"
                " --timeout=0.5 --recovery=strict"),
            ExitCodeFor(ErrorCode::kDeadlineExceeded))
      << Log();
  EXPECT_NE(Log().find("deadline exceeded"), std::string::npos) << Log();
}

#endif  // PARHDE_FAULT_INJECTION

}  // namespace
}  // namespace parhde
