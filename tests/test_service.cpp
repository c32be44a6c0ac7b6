// Service layer tests: framing protocol, admission queue, graph cache,
// and end-to-end daemon behavior (concurrent clients, load shedding,
// deadlines, SIGTERM drain). The daemon and loadgen binary paths are
// injected by CMake as PARHDE_SERVE_PATH / PARHDE_LOADGEN_PATH. Suites
// are named Service* so the TSan CI job's filter picks them up.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.hpp"
#include "service/graph_cache.hpp"
#include "service/protocol.hpp"
#include "util/json_reader.hpp"
#include "util/status.hpp"

#ifndef PARHDE_SERVE_PATH
#define PARHDE_SERVE_PATH ""
#endif
#ifndef PARHDE_LOADGEN_PATH
#define PARHDE_LOADGEN_PATH ""
#endif

namespace parhde::service {
namespace {

// ---------------------------------------------------------------- protocol

class ServiceProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(ServiceProtocolTest, FrameRoundTrip) {
  const std::string sent = "{\"op\":\"ping\"}";
  WriteFrame(fds_[0], sent);
  std::string got;
  ASSERT_TRUE(ReadFrame(fds_[1], got));
  EXPECT_EQ(got, sent);
}

TEST_F(ServiceProtocolTest, EmptyPayloadRoundTrips) {
  WriteFrame(fds_[0], "");
  std::string got = "sentinel";
  ASSERT_TRUE(ReadFrame(fds_[1], got));
  EXPECT_EQ(got, "");
}

TEST_F(ServiceProtocolTest, CleanEofReturnsFalse) {
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string got;
  EXPECT_FALSE(ReadFrame(fds_[1], got));
}

TEST_F(ServiceProtocolTest, MidFrameTruncationThrows) {
  // A header promising 100 bytes followed by 3 and a hangup.
  const unsigned char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string got;
  try {
    ReadFrame(fds_[1], got);
    FAIL() << "expected ParhdeError(kIo)";
  } catch (const ParhdeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

TEST_F(ServiceProtocolTest, OversizeLengthRejectedBeforeAllocation) {
  // 0xFFFFFFFF-byte announcement: must throw kParse from the header alone.
  const unsigned char header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  std::string got;
  try {
    ReadFrame(fds_[1], got);
    FAIL() << "expected ParhdeError(kParse)";
  } catch (const ParhdeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
  }
}

TEST_F(ServiceProtocolTest, WriteRejectsOversizePayload) {
  const std::string big(1024, 'x');
  EXPECT_THROW(WriteFrame(fds_[0], big, /*max_bytes=*/16), ParhdeError);
}

TEST(ServiceParseRequest, AppliesDefaults) {
  const LayoutRequest req = ParseRequest("{\"op\":\"layout\",\"graph\":\"g\"}");
  EXPECT_EQ(req.algo, "parhde");
  EXPECT_EQ(req.pivots, "kcenters");
  EXPECT_EQ(req.kernel, "parbfs");
  EXPECT_EQ(req.subspace_dim, 10);
  EXPECT_EQ(req.num_axes, 2);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_EQ(req.deadline_seconds, 0.0);
}

TEST(ServiceParseRequest, ParsesAllFields) {
  const LayoutRequest req = ParseRequest(
      "{\"op\":\"layout\",\"graph\":\"g.mtx\",\"algo\":\"phde\","
      "\"pivots\":\"random\",\"kernel\":\"msbfs\",\"s\":32,\"axes\":3,"
      "\"seed\":7,\"deadline\":2.5,\"id\":\"abc\"}");
  EXPECT_EQ(req.graph, "g.mtx");
  EXPECT_EQ(req.algo, "phde");
  EXPECT_EQ(req.pivots, "random");
  EXPECT_EQ(req.kernel, "msbfs");
  EXPECT_EQ(req.subspace_dim, 32);
  EXPECT_EQ(req.num_axes, 3);
  EXPECT_EQ(req.seed, 7u);
  EXPECT_EQ(req.deadline_seconds, 2.5);
  EXPECT_EQ(req.id, "abc");
}

void ExpectParseFails(const std::string& json, ErrorCode code) {
  try {
    ParseRequest(json);
    FAIL() << "expected failure for " << json;
  } catch (const ParhdeError& e) {
    EXPECT_EQ(e.code(), code) << json;
  }
}

TEST(ServiceParseRequest, RejectsBadRequests) {
  ExpectParseFails("not json", ErrorCode::kParse);
  ExpectParseFails("{\"op\":\"destroy\"}", ErrorCode::kUsage);
  ExpectParseFails("{\"op\":\"layout\"}", ErrorCode::kUsage);  // no graph
  ExpectParseFails("{\"op\":\"layout\",\"graph\":\"g\",\"kernel\":\"warp\"}",
                   ErrorCode::kUsage);
  ExpectParseFails("{\"op\":\"layout\",\"graph\":\"g\",\"s\":0}",
                   ErrorCode::kInvalidValue);
  ExpectParseFails("{\"op\":\"layout\",\"graph\":\"g\",\"s\":100000}",
                   ErrorCode::kInvalidValue);
  ExpectParseFails("{\"op\":\"layout\",\"graph\":\"g\",\"deadline\":-1}",
                   ErrorCode::kInvalidValue);
}

TEST(ServiceResponses, ErrorResponseCarriesTypedCode) {
  const JsonValue v =
      ParseJson(ErrorResponse("req7", ErrorCode::kOverloaded, "queue full"));
  EXPECT_EQ(v.At("status").string, "overloaded");
  EXPECT_EQ(v.At("id").string, "req7");
  EXPECT_EQ(v.At("error").At("exit_code").number, 14.0);
  EXPECT_EQ(v.At("error").At("message").string, "queue full");
}

TEST(ServiceResponses, OkResponseEmbedsBody) {
  const JsonValue v =
      ParseJson(OkResponse("a", "stats", "stats", "{\"x\":1}"));
  EXPECT_EQ(v.At("status").string, "ok");
  EXPECT_EQ(v.At("op").string, "stats");
  EXPECT_EQ(v.At("stats").At("x").number, 1.0);
}

// --------------------------------------------------------------- admission

TEST(ServiceAdmissionTest, ShedsWhenFull) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.TryPush([] {}));
  EXPECT_TRUE(q.TryPush([] {}));
  EXPECT_FALSE(q.TryPush([] {}));  // full: shed
  const auto stats = q.GetStats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.peak_depth, 2u);
}

TEST(ServiceAdmissionTest, CloseRefusesNewWorkButDrainsAdmitted) {
  AdmissionQueue q(4);
  int ran = 0;
  ASSERT_TRUE(q.TryPush([&] { ++ran; }));
  ASSERT_TRUE(q.TryPush([&] { ++ran; }));
  q.Close();
  EXPECT_FALSE(q.TryPush([&] { ++ran; }));  // closed: refused
  while (auto job = q.Pop()) (*job)();
  EXPECT_EQ(ran, 2);  // the admitted jobs still ran; Pop then signalled exit
}

TEST(ServiceAdmissionTest, PopBlocksUntilPushOrClose) {
  AdmissionQueue q(4);
  std::atomic<int> ran{0};
  std::thread worker([&] {
    while (auto job = q.Pop()) (*job)();
  });
  for (int i = 0; i < 8; ++i) {
    while (!q.TryPush([&] { ran.fetch_add(1); })) {
      std::this_thread::yield();  // worker drains; retry
    }
  }
  q.Close();
  worker.join();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ServiceAdmissionTest, ConcurrentProducersNeverExceedCapacity) {
  AdmissionQueue q(4);
  std::atomic<std::int64_t> admitted{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 64; ++i) {
        if (q.TryPush([] {})) admitted.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto stats = q.GetStats();
  EXPECT_LE(stats.depth, 4u);
  EXPECT_LE(stats.peak_depth, 4u);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.admitted + stats.shed, 4 * 64);
}

// ------------------------------------------------------------------- cache

class ServiceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("parhde_cache_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes a chain graph of `n` vertices as an edge list.
  std::string WriteChain(const std::string& name, int n) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    for (int i = 0; i + 1 < n; ++i) out << i << " " << i + 1 << "\n";
    return path;
  }

  std::string SnapshotDir() { return (dir_ / "snaps").string(); }

  std::filesystem::path dir_;
};

TEST_F(ServiceCacheTest, MissThenStatHit) {
  const std::string path = WriteChain("a.el", 50);
  GraphCache cache(4, "");
  const auto first = cache.Get(path);
  EXPECT_FALSE(first.stat_hit);
  EXPECT_EQ(first.graph->NumVertices(), 50);
  const auto second = cache.Get(path);
  EXPECT_TRUE(second.stat_hit);
  EXPECT_EQ(second.graph.get(), first.graph.get());  // same resident object
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.stat_hits, 1);
}

TEST_F(ServiceCacheTest, ContentChangeInvalidates) {
  const std::string path = WriteChain("a.el", 50);
  GraphCache cache(4, "");
  ASSERT_EQ(cache.Get(path).graph->NumVertices(), 50);
  // Different byte count guarantees a stat mismatch even on filesystems
  // with coarse mtime granularity.
  WriteChain("a.el", 60);
  const auto after = cache.Get(path);
  EXPECT_FALSE(after.stat_hit);
  EXPECT_EQ(after.graph->NumVertices(), 60);
}

TEST_F(ServiceCacheTest, EvictsLeastRecentlyUsed) {
  GraphCache cache(1, "");
  const std::string a = WriteChain("a.el", 30);
  const std::string b = WriteChain("b.el", 40);
  ASSERT_FALSE(cache.Get(a).stat_hit);
  ASSERT_FALSE(cache.Get(b).stat_hit);  // evicts a
  EXPECT_EQ(cache.GetStats().evictions, 1);
  EXPECT_EQ(cache.GetStats().resident, 1u);
  EXPECT_FALSE(cache.Get(a).stat_hit);  // a is gone: full reload
}

TEST_F(ServiceCacheTest, SnapshotAcceleratesReload) {
  const std::string path = WriteChain("a.el", 50);
  {
    GraphCache cache(4, SnapshotDir());
    ASSERT_FALSE(cache.Get(path).snapshot_load);  // built, snapshot written
  }
  // A fresh cache (daemon restart) finds the snapshot and skips the build.
  GraphCache fresh(4, SnapshotDir());
  const auto res = fresh.Get(path);
  EXPECT_TRUE(res.snapshot_load);
  EXPECT_EQ(res.graph->NumVertices(), 50);
  EXPECT_EQ(fresh.GetStats().snapshot_loads, 1);
}

TEST_F(ServiceCacheTest, ConcurrentRequestsLoadOnce) {
  const std::string path = WriteChain("a.el", 200);
  GraphCache cache(4, "");
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const auto res = cache.Get(path);
      if (res.graph && res.graph->NumVertices() == 200) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(cache.GetStats().misses, 1);  // exactly one thread built it
}

TEST_F(ServiceCacheTest, FailedLoadIsNotCached) {
  const std::string path = (dir_ / "bad.el").string();
  {
    std::ofstream out(path);
    out << "0 -3\n";  // negative id: reader throws
  }
  GraphCache cache(4, "");
  EXPECT_THROW(cache.Get(path), ParhdeError);
  // The failure was not cached: a corrected file loads fine.
  WriteChain("bad.el", 20);
  EXPECT_EQ(cache.Get(path).graph->NumVertices(), 20);
}

TEST_F(ServiceCacheTest, MissingFileThrowsIo) {
  GraphCache cache(4, "");
  try {
    cache.Get((dir_ / "absent.el").string());
    FAIL() << "expected ParhdeError(kIo)";
  } catch (const ParhdeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

// --------------------------------------------------------------------- e2e

class ServiceE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(PARHDE_SERVE_PATH).empty() ||
        std::string(PARHDE_LOADGEN_PATH).empty()) {
      GTEST_SKIP() << "service binary paths not configured";
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("parhde_e2e_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    socket_ = (dir_ / "svc.sock").string();
    graph_ = WriteGrid("g.el", 20, 20);
    big_graph_ = WriteGrid("big.el", 90, 90);
  }

  void TearDown() override {
    if (daemon_pid_ > 0) {
      ::kill(daemon_pid_, SIGKILL);
      int status = 0;
      ::waitpid(daemon_pid_, &status, 0);
    }
    std::filesystem::remove_all(dir_);
  }

  /// Writes a rows x cols grid as an edge list; the workload graph.
  std::string WriteGrid(const std::string& name, int rows, int cols) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const int v = r * cols + c;
        if (c + 1 < cols) out << v << " " << v + 1 << "\n";
        if (r + 1 < rows) out << v << " " << v + cols << "\n";
      }
    }
    return path;
  }

  void StartDaemon(const std::string& extra_flags) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: silence the daemon and exec it.
      const std::string log = (dir_ / "serve.log").string();
      const int out = ::open(log.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (out >= 0) {
        ::dup2(out, 1);
        ::dup2(out, 2);
        ::close(out);
      }
      std::vector<std::string> args = {PARHDE_SERVE_PATH,
                                       "--socket=" + socket_};
      std::istringstream flags(extra_flags);
      std::string flag;
      while (flags >> flag) args.push_back(flag);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(PARHDE_SERVE_PATH, argv.data());
      ::_exit(127);
    }
    daemon_pid_ = pid;
  }

  /// Connects to the daemon, retrying while it binds. Returns the fd.
  int Connect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  socket_.c_str());
    for (int attempt = 0; attempt < 100; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      EXPECT_GE(fd, 0);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return fd;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ADD_FAILURE() << "daemon never came up on " << socket_;
    return -1;
  }

  JsonValue Rpc(int fd, const std::string& request) {
    WriteFrame(fd, request);
    std::string payload;
    EXPECT_TRUE(ReadFrame(fd, payload));
    return ParseJson(payload);
  }

  static std::vector<std::string> PhaseNames(const JsonValue& report) {
    std::vector<std::string> names;
    for (const auto& phase : report.At("phases").array) {
      names.push_back(phase.At("name").string);
    }
    return names;
  }

  /// Exit code of `cmd`, with output captured to the test log file.
  int Run(const std::string& cmd) {
    const int status = std::system(
        (cmd + " > " + (dir_ / "run.log").string() + " 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::filesystem::path dir_;
  std::string socket_;
  std::string graph_;
  std::string big_graph_;
  pid_t daemon_pid_ = -1;
};

TEST_F(ServiceE2eTest, PingAndStats) {
  StartDaemon("");
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(Rpc(fd, "{\"op\":\"ping\"}").At("status").string, "ok");
  const JsonValue stats = Rpc(fd, "{\"op\":\"stats\"}");
  EXPECT_EQ(stats.At("status").string, "ok");
  EXPECT_TRUE(stats.At("stats").Has("queue"));
  EXPECT_TRUE(stats.At("stats").Has("cache"));
  ::close(fd);
}

TEST_F(ServiceE2eTest, ThreadsFlagReachesWorkerThreads) {
  // --threads is applied on the daemon's main thread; the workers that run
  // the requests must see it too, as the response report's environment
  // (captured on the worker) shows.
  StartDaemon("--threads=1 --workers=2");
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 2; ++i) {
    const JsonValue response = Rpc(
        fd, "{\"op\":\"layout\",\"graph\":\"" + graph_ + "\",\"s\":6}");
    ASSERT_EQ(response.At("status").string, "ok");
    EXPECT_EQ(
        response.At("report").At("environment").At("omp_max_threads").number,
        1.0);
  }
  ::close(fd);
}

TEST_F(ServiceE2eTest, SustainsConcurrentClients) {
  // The acceptance bar: 64 concurrent requests against a cached graph,
  // zero failures. Queue 64 holds a full burst even with slow workers.
  StartDaemon("--workers=2 --queue=64");
  const std::string summary = (dir_ / "loadgen.json").string();
  const int code = Run(std::string(PARHDE_LOADGEN_PATH) +
                       " --socket=" + socket_ + " --graph=" + graph_ +
                       " --clients=8 --requests=8 --s=6 --fail-on-error" +
                       " --json=" + summary);
  EXPECT_EQ(code, 0);
  const JsonValue report = ParseJsonFile(summary);
  EXPECT_EQ(report.At("metrics").At("ok").number, 64.0);
  EXPECT_EQ(report.At("metrics").At("failed").number, 0.0);
  EXPECT_EQ(report.At("metrics").At("overloaded").number, 0.0);
}

TEST_F(ServiceE2eTest, CacheHitSkipsGraphLoadEntirely) {
  StartDaemon("--snapshots=" + (dir_ / "snaps").string());
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  const std::string request =
      "{\"op\":\"layout\",\"graph\":\"" + graph_ + "\",\"s\":6}";

  const JsonValue first = Rpc(fd, request);
  ASSERT_EQ(first.At("status").string, "ok");
  const JsonValue& r1 = first.At("report");
  EXPECT_EQ(r1.At("metrics").At("cache_hit").number, 0.0);
  EXPECT_GT(r1.At("metrics").At("load_seconds").number, 0.0);
  const auto phases1 = PhaseNames(r1);
  EXPECT_NE(std::find(phases1.begin(), phases1.end(), "Load"), phases1.end());

  // Same graph again: served from the resident cache — no Load phase, no
  // load time. This is the "skips IO/build entirely" acceptance check.
  const JsonValue second = Rpc(fd, request);
  ASSERT_EQ(second.At("status").string, "ok");
  const JsonValue& r2 = second.At("report");
  EXPECT_EQ(r2.At("metrics").At("cache_hit").number, 1.0);
  EXPECT_EQ(r2.At("metrics").At("load_seconds").number, 0.0);
  const auto phases2 = PhaseNames(r2);
  EXPECT_EQ(std::find(phases2.begin(), phases2.end(), "Load"), phases2.end());
  ::close(fd);
}

TEST_F(ServiceE2eTest, QueueOverflowShedsWithTypedError) {
  // One worker, queue of one: a pipelined burst of 8 requests on the big
  // graph means the worker is still busy with the first when the later
  // frames arrive, so most of the burst must shed.
  StartDaemon("--workers=1 --queue=1");
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  const std::string request =
      "{\"op\":\"layout\",\"graph\":\"" + big_graph_ + "\",\"s\":8}";
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) WriteFrame(fd, request);
  int ok = 0;
  int overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string payload;
    ASSERT_TRUE(ReadFrame(fd, payload));
    const JsonValue response = ParseJson(payload);
    const std::string status = response.At("status").string;
    if (status == "ok") {
      ++ok;
    } else if (status == "overloaded") {
      ++overloaded;
      EXPECT_EQ(response.At("error").At("exit_code").number, 14.0);
    } else {
      ADD_FAILURE() << "unexpected status " << status;
    }
  }
  EXPECT_GE(ok, 1);          // the in-flight request completed
  EXPECT_GE(overloaded, 1);  // and the burst overflowed the bounded queue
  ::close(fd);
}

TEST_F(ServiceE2eTest, DeadlineExpiryReturnsTypedError) {
  StartDaemon("");
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  const JsonValue response =
      Rpc(fd, "{\"op\":\"layout\",\"graph\":\"" + big_graph_ +
                  "\",\"s\":8,\"deadline\":1e-6}");
  EXPECT_EQ(response.At("status").string, "deadline-exceeded");
  EXPECT_EQ(response.At("error").At("exit_code").number, 11.0);
  ::close(fd);
}

TEST_F(ServiceE2eTest, ConcurrentDeadlineAndPlainRequestsStayIsolated) {
  // A short-deadline request and a deadline-free request in flight at the
  // same time: with per-request execution contexts there is no exclusive
  // deadline lane, so the doomed request must fail fast on ITS token
  // while the sibling completes with a report containing exactly its own
  // counters — no leaked deadline expiry, no missing work.
  StartDaemon("--workers=2");
  const std::string plain_request = "{\"op\":\"layout\",\"graph\":\"" +
                                    big_graph_ +
                                    "\",\"s\":8,\"id\":\"plain\"}";

  // Serial reference: the same plain request with the daemon otherwise
  // idle. Counter totals are deterministic for a fixed request, so the
  // concurrent run must reproduce them exactly.
  const int fd_ref = Connect();
  ASSERT_GE(fd_ref, 0);
  const JsonValue ref = Rpc(fd_ref, plain_request);
  ASSERT_EQ(ref.At("status").string, "ok");
  const double ref_frontier = ref.At("report")
                                  .At("counters")
                                  .At("bfs.frontier_vertices")
                                  .number;
  ASSERT_GT(ref_frontier, 0.0);
  ::close(fd_ref);

  const int fd_plain = Connect();
  const int fd_doomed = Connect();
  ASSERT_GE(fd_plain, 0);
  ASSERT_GE(fd_doomed, 0);
  WriteFrame(fd_plain, plain_request);
  WriteFrame(fd_doomed, "{\"op\":\"layout\",\"graph\":\"" + big_graph_ +
                            "\",\"s\":8,\"deadline\":1e-6,\"id\":\"doomed\"}");

  // The doomed request dies on its own deadline with the typed error.
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd_doomed, payload));
  const JsonValue doomed = ParseJson(payload);
  EXPECT_EQ(doomed.At("status").string, "deadline-exceeded");
  EXPECT_EQ(doomed.At("id").string, "doomed");

  // The sibling completes, and its report is self-consistent: the same
  // counter totals as the idle-daemon reference, and zero deadline
  // expirations — the doomed request's expiry stayed in its own context.
  ASSERT_TRUE(ReadFrame(fd_plain, payload));
  const JsonValue plain = ParseJson(payload);
  ASSERT_EQ(plain.At("status").string, "ok");
  EXPECT_EQ(plain.At("id").string, "plain");
  const JsonValue& counters = plain.At("report").At("counters");
  EXPECT_EQ(counters.At("bfs.frontier_vertices").number, ref_frontier);
  EXPECT_EQ(counters.At("deadline.expirations").number, 0.0);
  ::close(fd_plain);
  ::close(fd_doomed);
}

TEST_F(ServiceE2eTest, SigtermDrainsInFlightRequests) {
  StartDaemon("--workers=1");
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  // Warm up so the connection's reader is definitely live, then put a
  // slow request in flight and fire the drain at it.
  ASSERT_EQ(Rpc(fd, "{\"op\":\"ping\"}").At("status").string, "ok");
  WriteFrame(fd, "{\"op\":\"layout\",\"graph\":\"" + big_graph_ +
                     "\",\"s\":8,\"id\":\"inflight\"}");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(::kill(daemon_pid_, SIGTERM), 0);

  // The admitted request completes and its response flushes before exit.
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, payload));
  const JsonValue response = ParseJson(payload);
  EXPECT_EQ(response.At("status").string, "ok");
  EXPECT_EQ(response.At("id").string, "inflight");
  ::close(fd);

  int status = 0;
  ASSERT_EQ(::waitpid(daemon_pid_, &status, 0), daemon_pid_);
  daemon_pid_ = -1;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);  // clean drain
}

}  // namespace
}  // namespace parhde::service
