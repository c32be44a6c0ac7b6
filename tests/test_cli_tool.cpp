// End-to-end test of the parhde_cli binary: generate -> stats -> layout ->
// partition, exercising the same command lines the README shows. The
// binary path is injected by CMake as PARHDE_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifdef __unix__
#include <sys/wait.h>
#endif

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

#ifndef PARHDE_CLI_PATH
#define PARHDE_CLI_PATH ""
#endif

namespace parhde {
namespace {

class CliToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(PARHDE_CLI_PATH).empty()) {
      GTEST_SKIP() << "PARHDE_CLI_PATH not configured";
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("parhde_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Runs the CLI and returns its actual exit code (not the raw wait
  /// status), so tests can assert on the documented per-error codes.
  int Run(const std::string& args) {
    const std::string cmd = std::string(PARHDE_CLI_PATH) + " " + args +
                            " > " + (dir_ / "log.txt").string() + " 2>&1";
    const int status = std::system(cmd.c_str());
#ifdef __unix__
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -1;  // killed by a signal: never a clean typed failure
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

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(CliToolTest, GenerateStatsLayoutPartitionPipeline) {
  ASSERT_EQ(Run("generate --family=plate --rows=48 --cols=48 --out=" +
                Path("g.mtx")),
            0)
      << Log();
  ASSERT_TRUE(std::filesystem::exists(Path("g.mtx")));

  ASSERT_EQ(Run("stats --in=" + Path("g.mtx")), 0) << Log();
  EXPECT_NE(Log().find("pseudo-diameter"), std::string::npos);

  ASSERT_EQ(Run("layout --in=" + Path("g.mtx") + " --algo=parhde --s=8" +
                " --coords=" + Path("g.xy") + " --png=" + Path("g.png")),
            0)
      << Log();
  EXPECT_TRUE(std::filesystem::exists(Path("g.xy")));
  EXPECT_TRUE(std::filesystem::exists(Path("g.png")));
  EXPECT_GT(std::filesystem::file_size(Path("g.png")), 1000u);

  // Coordinate file has one "x y" line per vertex of the LCC.
  std::ifstream coords(Path("g.xy"));
  int lines = 0;
  std::string line;
  while (std::getline(coords, line)) ++lines;
  EXPECT_GT(lines, 1000);

  ASSERT_EQ(Run("partition --in=" + Path("g.mtx") +
                " --parts=4 --refine --svg=" + Path("parts.svg")),
            0)
      << Log();
  EXPECT_NE(Log().find("after refinement"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(Path("parts.svg")));
}

TEST_F(CliToolTest, EveryAlgorithmRuns) {
  ASSERT_EQ(Run("generate --family=grid --rows=30 --cols=30 --out=" +
                Path("grid.mtx")),
            0)
      << Log();
  for (const std::string algo :
       {"parhde", "phde", "pivotmds", "prior", "multilevel"}) {
    EXPECT_EQ(Run("layout --in=" + Path("grid.mtx") + " --algo=" + algo +
                  " --s=6"),
              0)
        << algo << ": " << Log();
  }
}

TEST_F(CliToolTest, DrawFromSavedCoordinates) {
  ASSERT_EQ(Run("generate --family=grid --rows=20 --cols=20 --out=" +
                Path("g.mtx")),
            0)
      << Log();
  ASSERT_EQ(Run("layout --in=" + Path("g.mtx") + " --s=6 --coords=" +
                Path("g.xy")),
            0)
      << Log();
  ASSERT_EQ(Run("draw --in=" + Path("g.mtx") + " --coords=" + Path("g.xy") +
                " --png=" + Path("redrawn.png") + " --aa"),
            0)
      << Log();
  EXPECT_GT(std::filesystem::file_size(Path("redrawn.png")), 1000u);

  // Mismatched coordinate count must be rejected.
  {
    std::ofstream bad(Path("short.xy"));
    bad << "0 0\n1 1\n";
  }
  EXPECT_NE(Run("draw --in=" + Path("g.mtx") + " --coords=" +
                Path("short.xy") + " --png=" + Path("nope.png")),
            0);
}

TEST_F(CliToolTest, BadInputsFailCleanly) {
  EXPECT_NE(Run("layout --in=" + Path("missing.mtx")), 0);
  EXPECT_NE(Run("layout --in=" + Path("g.mtx") + " --algo=bogus"), 0);
  EXPECT_NE(Run("frobnicate"), 0);
}

// ---- Documented per-error exit codes (src/util/status.hpp): each failure
// class maps to its own nonzero code, never to a crash. ----

TEST_F(CliToolTest, DistinctExitCodesForDistinctFailures) {
  // 3 = kIo: unopenable input.
  EXPECT_EQ(Run("layout --in=" + Path("missing.mtx")), 3) << Log();

  // 2 = kUsage: unknown enum value / missing --in / bad number.
  {
    std::ofstream ok(Path("ok.el"));
    ok << "0 1\n1 2\n2 0\n";
  }
  EXPECT_EQ(Run("layout --in=" + Path("ok.el") + " --algo=bogus"), 2)
      << Log();
  EXPECT_EQ(Run("layout"), 2) << Log();
  EXPECT_EQ(Run("layout --in=" + Path("ok.el") + " --s=abc"), 2) << Log();
  EXPECT_EQ(Run("layout --in=" + Path("ok.el") + " --pivots=randm"), 2)
      << Log();
  EXPECT_EQ(Run("layout --in=" + Path("ok.el") + " --metric=unti"), 2)
      << Log();
  EXPECT_EQ(Run("layout --in=" + Path("ok.el") + " --basis=x"), 2) << Log();

  // 4 = kParse: structurally broken MatrixMarket.
  {
    std::ofstream bad(Path("bad.mtx"));
    bad << "this is not a matrix\n";
  }
  EXPECT_EQ(Run("layout --in=" + Path("bad.mtx")), 4) << Log();

  // 5 = kCorruptBinary: garbage where a CSR snapshot should be.
  {
    std::ofstream bad(Path("bad.bin"), std::ios::binary);
    bad << "NOTPARHDE-anything";
  }
  EXPECT_EQ(Run("layout --in=" + Path("bad.bin")), 5) << Log();

  // 6 = kInvalidValue: NaN edge weight.
  {
    std::ofstream bad(Path("nan.mtx"));
    bad << "%%MatrixMarket matrix coordinate real symmetric\n"
        << "3 3 1\n"
        << "2 1 nan\n";
  }
  EXPECT_EQ(Run("layout --in=" + Path("nan.mtx")), 6) << Log();

  // 7 = kTooSmall: an empty edge list yields a zero-vertex graph.
  {
    std::ofstream empty(Path("empty.el"));
    empty << "# no edges\n";
  }
  EXPECT_EQ(Run("layout --in=" + Path("empty.el")), 7) << Log();
}

TEST_F(CliToolTest, DisconnectedPoliciesEndToEnd) {
  // Two rings that never touch.
  {
    std::ofstream el(Path("two.el"));
    for (int v = 0; v < 12; ++v) el << v << ' ' << (v + 1) % 12 << '\n';
    for (int v = 0; v < 6; ++v)
      el << 12 + v << ' ' << 12 + (v + 1) % 6 << '\n';
  }

  // 8 = kDisconnected under --disconnected=reject.
  EXPECT_EQ(
      Run("layout --in=" + Path("two.el") + " --disconnected=reject"), 8)
      << Log();

  // Default (largest) lays out only the 12-ring.
  ASSERT_EQ(Run("layout --in=" + Path("two.el") + " --s=4 --coords=" +
                Path("lcc.xy")),
            0)
      << Log();
  EXPECT_NE(Log().find("2 components"), std::string::npos) << Log();
  std::ifstream lcc(Path("lcc.xy"));
  std::string line;
  int lines = 0;
  while (std::getline(lcc, line)) ++lines;
  EXPECT_EQ(lines, 12);

  // Pack lays out all 18 vertices and reports both component boxes.
  ASSERT_EQ(Run("layout --in=" + Path("two.el") +
                " --s=4 --disconnected=pack --coords=" + Path("pack.xy") +
                " --svg=" + Path("pack.svg")),
            0)
      << Log();
  EXPECT_NE(Log().find("component 0"), std::string::npos) << Log();
  EXPECT_NE(Log().find("component 1"), std::string::npos) << Log();
  std::ifstream pack(Path("pack.xy"));
  lines = 0;
  while (std::getline(pack, line)) ++lines;
  EXPECT_EQ(lines, 18);
  EXPECT_TRUE(std::filesystem::exists(Path("pack.svg")));
}

TEST_F(CliToolTest, BinarySnapshotInputWorks) {
  const CsrGraph g = BuildCsrGraph(400, GenGrid2d(20, 20));
  WriteBinaryFile(g, Path("grid.bin"));
  EXPECT_EQ(Run("layout --in=" + Path("grid.bin") + " --s=6 --coords=" +
                Path("grid.xy")),
            0)
      << Log();
  std::ifstream coords(Path("grid.xy"));
  std::string line;
  int lines = 0;
  while (std::getline(coords, line)) ++lines;
  EXPECT_EQ(lines, 400);
}

TEST_F(CliToolTest, GenerateToBinaryThenLayout) {
  // A .bin output path writes the binary CSR snapshot that `layout --in`
  // reads back by the same suffix.
  ASSERT_EQ(Run("generate --family=grid --rows=20 --cols=20 --out=" +
                Path("g.bin")),
            0)
      << Log();
  EXPECT_EQ(ReadBinaryFile(Path("g.bin")).NumVertices(), 400);
  EXPECT_EQ(Run("layout --in=" + Path("g.bin") + " --s=6 --coords=" +
                Path("g.xy")),
            0)
      << Log();
}

}  // namespace
}  // namespace parhde
