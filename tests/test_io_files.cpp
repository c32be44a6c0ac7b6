// File-backed I/O paths (the *File variants) and the drawing writers, via a
// scratch directory under the build tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "draw/coords_io.hpp"
#include "draw/layout.hpp"
#include "draw/png_writer.hpp"
#include "draw/raster.hpp"
#include "draw/svg_writer.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/status.hpp"

namespace parhde {
namespace {

/// Runs `fn` and returns the ErrorCode of the ParhdeError it throws;
/// fails the test if it does not throw one.
template <typename Fn>
ErrorCode CodeOf(Fn&& fn) {
  try {
    fn();
  } catch (const ParhdeError& e) {
    return e.code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw non-ParhdeError: " << e.what();
    return ErrorCode::kOk;
  }
  ADD_FAILURE() << "did not throw";
  return ErrorCode::kOk;
}

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("parhde_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(FileIoTest, MatrixMarketFileRoundTrip) {
  const CsrGraph g = BuildCsrGraph(30, GenRing(30));
  const std::string path = Path("ring.mtx");
  WriteMatrixMarketFile(g, path);
  const MatrixMarketData data = ReadMatrixMarketFile(path);
  const CsrGraph g2 = BuildCsrGraph(data.n, data.edges);
  EXPECT_EQ(g2.Adjacency(), g.Adjacency());
}

TEST_F(FileIoTest, MatrixMarketMissingFileThrows) {
  EXPECT_THROW(ReadMatrixMarketFile(Path("nope.mtx")), std::runtime_error);
}

TEST_F(FileIoTest, BinaryFileRoundTrip) {
  EdgeList edges = GenGrid2d(6, 7);
  AssignRandomWeights(edges, 1.0, 2.0, 3);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(42, edges, opts);
  const std::string path = Path("grid.bin");
  WriteBinaryFile(g, path);
  const CsrGraph g2 = ReadBinaryFile(path);
  EXPECT_EQ(g2.Adjacency(), g.Adjacency());
  EXPECT_EQ(g2.Weights(), g.Weights());
}

TEST_F(FileIoTest, EdgeListFileParses) {
  const std::string path = Path("edges.txt");
  {
    std::ofstream out(path);
    out << "# test\n0 1\n1 2 2.5\n";
  }
  const MatrixMarketData data = ReadEdgeListFile(path);
  EXPECT_EQ(data.n, 3);
  EXPECT_EQ(data.edges.size(), 2u);
}

TEST_F(FileIoTest, PngFileHasSignature) {
  Canvas canvas(8, 8);
  canvas.DrawLine(0, 0, 7, 7, color::kBlack);
  const std::string path = Path("tiny.png");
  WritePngFile(canvas, path);

  std::ifstream in(path, std::ios::binary);
  unsigned char sig[8];
  in.read(reinterpret_cast<char*>(sig), 8);
  ASSERT_TRUE(in.good());
  EXPECT_EQ(sig[0], 0x89);
  EXPECT_EQ(sig[1], 'P');
  EXPECT_EQ(sig[2], 'N');
  EXPECT_EQ(sig[3], 'G');
}

TEST_F(FileIoTest, SvgFileWellFormed) {
  const CsrGraph g = BuildCsrGraph(4, GenRing(4));
  Layout layout;
  layout.x = {0, 1, 1, 0};
  layout.y = {0, 0, 1, 1};
  const PixelLayout px = NormalizeToCanvas(layout, 64, 64, 4);
  const std::string path = Path("ring.svg");
  WriteSvgFile(g, px, path);

  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<?xml"), std::string::npos);
  EXPECT_NE(content.find("</svg>"), std::string::npos);
}

TEST_F(FileIoTest, BinaryMissingFileThrows) {
  EXPECT_THROW(ReadBinaryFile(Path("missing.bin")), std::runtime_error);
}

// ---- Corrupted-input corpus: every malformed file must surface as a typed
// ParhdeError (never a crash, hang, or multi-GB allocation). ----

class CorruptInputTest : public FileIoTest {
 protected:
  /// A valid binary snapshot to corrupt, returned as raw bytes.
  std::string ValidBinary() {
    const CsrGraph g = BuildCsrGraph(10, GenRing(10));
    const std::string path = Path("valid.bin");
    WriteBinaryFile(g, path);
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::string WriteBytes(const std::string& name, const std::string& bytes) {
    const std::string path = Path(name);
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  std::string WriteText(const std::string& name, const std::string& text) {
    const std::string path = Path(name);
    std::ofstream out(path);
    out << text;
    return path;
  }
};

TEST_F(CorruptInputTest, TruncatedBinaryIsCorruptNotCrash) {
  const std::string bytes = ValidBinary();
  for (const std::size_t keep :
       {bytes.size() / 2, bytes.size() - 1, std::size_t{20}, std::size_t{4}}) {
    const std::string path = WriteBytes("trunc.bin", bytes.substr(0, keep));
    EXPECT_EQ(CodeOf([&] { ReadBinaryFile(path); }),
              ErrorCode::kCorruptBinary)
        << "keep=" << keep;
  }
}

TEST_F(CorruptInputTest, OversizedArrayHeaderRejectedBeforeAllocation) {
  // Magic + n, then an offsets length claiming ~1e18 elements. The reader
  // must bounds-check against the file size instead of resizing a vector
  // to exabytes.
  std::string bytes("PARHDE01", 8);
  const std::int64_t n = 4;
  bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
  const std::uint64_t huge = std::uint64_t{1} << 60;
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  bytes.append(64, '\0');  // far fewer payload bytes than declared
  const std::string path = WriteBytes("bomb.bin", bytes);
  EXPECT_EQ(CodeOf([&] { ReadBinaryFile(path); }), ErrorCode::kCorruptBinary);
}

TEST_F(CorruptInputTest, BadMagicIsCorrupt) {
  const std::string path = WriteBytes("magic.bin", "NOTPARHDE-AT-ALL");
  EXPECT_EQ(CodeOf([&] { ReadBinaryFile(path); }), ErrorCode::kCorruptBinary);
}

TEST_F(CorruptInputTest, OutOfRangeNeighborIdIsCorrupt) {
  // Patch one adjacency entry of a valid ring snapshot to vertex 9999.
  // Layout: magic(8) + n(8) + [len(8) + offsets n+1 x 8B] + [len(8) + adj].
  std::string bytes = ValidBinary();
  const std::size_t adj_start = 8 + 8 + 8 + 11 * 8 + 8;
  ASSERT_GT(bytes.size(), adj_start + sizeof(vid_t));
  const vid_t evil = 9999;
  std::memcpy(bytes.data() + adj_start, &evil, sizeof(evil));
  const std::string path = WriteBytes("badid.bin", bytes);
  EXPECT_EQ(CodeOf([&] { ReadBinaryFile(path); }), ErrorCode::kCorruptBinary);
}

TEST_F(CorruptInputTest, MatrixMarketOutOfRangeIndexNamesTheLine) {
  const std::string path = WriteText(
      "oob.mtx",
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "1 2\n"
      "5 1\n");
  try {
    ReadMatrixMarketFile(path);
    FAIL() << "expected ParhdeError";
  } catch (const ParhdeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidValue);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptInputTest, MatrixMarketNanWeightRejected) {
  const std::string path = WriteText(
      "nan.mtx",
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 1.0\n"
      "3 1 nan\n");
  EXPECT_EQ(CodeOf([&] { ReadMatrixMarketFile(path); }),
            ErrorCode::kInvalidValue);
}

TEST_F(CorruptInputTest, NegativeWeightRejectedEverywhere) {
  const std::string mtx = WriteText(
      "neg.mtx",
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 1\n"
      "2 1 -4.0\n");
  EXPECT_EQ(CodeOf([&] { ReadMatrixMarketFile(mtx); }),
            ErrorCode::kInvalidValue);
  const std::string el = WriteText("neg.el", "0 1 -1.5\n");
  EXPECT_EQ(CodeOf([&] { ReadEdgeListFile(el); }), ErrorCode::kInvalidValue);
}

TEST_F(CorruptInputTest, EmptyMatrixMarketFileIsParseError) {
  const std::string path = WriteText("empty.mtx", "");
  EXPECT_EQ(CodeOf([&] { ReadMatrixMarketFile(path); }), ErrorCode::kParse);
}

TEST_F(CorruptInputTest, TruncatedEntryListIsParseError) {
  const std::string path = WriteText(
      "short.mtx",
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "4 4 3\n"
      "2 1\n");
  EXPECT_EQ(CodeOf([&] { ReadMatrixMarketFile(path); }), ErrorCode::kParse);
}

TEST_F(CorruptInputTest, EdgeListHugeVertexIdRejected) {
  const std::string path = WriteText("huge.el", "0 99999999999\n");
  EXPECT_EQ(CodeOf([&] { ReadEdgeListFile(path); }),
            ErrorCode::kInvalidValue);
}

TEST_F(CorruptInputTest, HugeDeclaredNnzIsParseError) {
  // The size line is untrusted: a tiny file declaring 10^12 entries must be
  // reported as short, not reserve 16 TB first.
  const std::string path = WriteText(
      "hugennz.mtx",
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "4 4 1000000000000\n"
      "2 1\n");
  EXPECT_EQ(CodeOf([&] { ReadMatrixMarketFile(path); }), ErrorCode::kParse);
}

// ---- Coordinate writer: byte-identical to printf("%.17g %.17g\n"). ----

TEST(CoordinateWriter, MatchesPrintfReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -3.0,
      123456789.0,
      9007199254740993.0,
      0.1,
      -2.5e-7,
      1e300,
      -1e300,
      1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      kInf,
      -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  Layout layout;
  std::string want;
  char line[128];
  // Every value against every other, and enough lines to cross the
  // writer's internal flush boundary several times.
  for (int rep = 0; rep < 400; ++rep) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double x = values[i];
      const double y = values[(i + static_cast<std::size_t>(rep)) % values.size()];
      layout.x.push_back(x);
      layout.y.push_back(y);
      std::snprintf(line, sizeof(line), "%.17g %.17g\n", x, y);
      want += line;
    }
  }
  std::ostringstream out;
  WriteCoordinates(layout, out);
  EXPECT_EQ(out.str(), want);
}

TEST(CoordinateWriter, EmptyLayoutWritesNothing) {
  std::ostringstream out;
  WriteCoordinates(Layout{}, out);
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace parhde
