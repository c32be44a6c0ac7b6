#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace parhde {
namespace {

TEST(MatrixMarket, ParsesPatternSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const MatrixMarketData data = ReadMatrixMarket(in);
  EXPECT_EQ(data.n, 3);
  EXPECT_TRUE(data.pattern);
  EXPECT_TRUE(data.symmetric);
  ASSERT_EQ(data.edges.size(), 2u);
  EXPECT_EQ(data.edges[0].u, 1);
  EXPECT_EQ(data.edges[0].v, 0);
}

TEST(MatrixMarket, ParsesRealGeneral) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 2 3.5\n"
      "2 1 3.5\n");
  const MatrixMarketData data = ReadMatrixMarket(in);
  EXPECT_FALSE(data.pattern);
  EXPECT_FALSE(data.symmetric);
  EXPECT_DOUBLE_EQ(data.edges[0].w, 3.5);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::istringstream in("%%NotMatrixMarket x y z w\n1 1 0\n");
  EXPECT_THROW(ReadMatrixMarket(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 5\n"
      "2 1\n");
  EXPECT_THROW(ReadMatrixMarket(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 1\n"
      "4 1\n");
  EXPECT_THROW(ReadMatrixMarket(in), std::runtime_error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const CsrGraph g = BuildCsrGraph(20, GenRing(20));
  std::stringstream stream;
  WriteMatrixMarket(g, stream);
  const MatrixMarketData data = ReadMatrixMarket(stream);
  const CsrGraph g2 = BuildCsrGraph(data.n, data.edges);
  EXPECT_EQ(g2.Offsets(), g.Offsets());
  EXPECT_EQ(g2.Adjacency(), g.Adjacency());
}

TEST(MatrixMarket, WeightedRoundTripPreservesWeights) {
  EdgeList edges = GenChain(10);
  AssignRandomWeights(edges, 1.0, 9.0, 21);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(10, edges, opts);

  std::stringstream stream;
  WriteMatrixMarket(g, stream);
  const MatrixMarketData data = ReadMatrixMarket(stream);
  EXPECT_FALSE(data.pattern);
  const CsrGraph g2 = BuildCsrGraph(data.n, data.edges, opts);
  ASSERT_EQ(g2.Weights().size(), g.Weights().size());
  for (std::size_t i = 0; i < g.Weights().size(); ++i) {
    EXPECT_NEAR(g2.Weights()[i], g.Weights()[i], 1e-9);
  }
}

TEST(EdgeListIo, ParsesWithCommentsAndWeights) {
  std::istringstream in(
      "# comment\n"
      "0 1\n"
      "1 2 4.5\n");
  const MatrixMarketData data = ReadEdgeList(in);
  EXPECT_EQ(data.n, 3);
  ASSERT_EQ(data.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(data.edges[1].w, 4.5);
}

TEST(EdgeListIo, RejectsNegativeIds) {
  std::istringstream in("0 -1\n");
  EXPECT_THROW(ReadEdgeList(in), std::runtime_error);
}

TEST(BinaryIo, RoundTripUnweighted) {
  const CsrGraph g = BuildCsrGraph(64, GenKronecker(6, 4, 2));
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  WriteBinary(g, stream);
  const CsrGraph g2 = ReadBinary(stream);
  EXPECT_EQ(g2.Offsets(), g.Offsets());
  EXPECT_EQ(g2.Adjacency(), g.Adjacency());
  EXPECT_FALSE(g2.HasWeights());
}

TEST(BinaryIo, RoundTripWeighted) {
  EdgeList edges = GenGrid2d(5, 5);
  AssignRandomWeights(edges, 0.5, 2.0, 8);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(25, edges, opts);
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  WriteBinary(g, stream);
  const CsrGraph g2 = ReadBinary(stream);
  EXPECT_EQ(g2.Weights(), g.Weights());
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  stream << "NOTPARHD_extra_bytes_here";
  EXPECT_THROW(ReadBinary(stream), std::runtime_error);
}

TEST(BinaryIo, RejectsTruncatedStream) {
  const CsrGraph g = BuildCsrGraph(10, GenChain(10));
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  WriteBinary(g, stream);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);
  std::istringstream truncated(bytes, std::ios::binary);
  EXPECT_THROW(ReadBinary(truncated), std::runtime_error);
}

// ---- Chunked text ingest. The readers scan a body in read windows of 16
// chunks of 256 KiB each; the generated bodies below are about 10 MB, so
// they span three windows and dozens of chunks. ----

enum class TextFormat { kMatrixMarket, kEdgeList };

/// A generated weighted file and the edges it must parse to. Comments,
/// blank lines, CRLF endings, tab separators and '+'-signed weights are
/// mixed among the entries.
struct TextFile {
  std::string text;
  EdgeList edges;
};

TextFile MakeTextFile(TextFormat format) {
  constexpr vid_t kVertices = 50000;
  constexpr long long kBodyLines = 340000;
  const bool mm = format == TextFormat::kMatrixMarket;
  const int base = mm ? 1 : 0;
  TextFile file;
  std::string body;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  char line[96];
  for (long long i = 0; i < kBodyLines; ++i) {
    if (i % 97 == 13) {
      body += mm ? "% comment line\n" : "# comment line\n";
      continue;
    }
    if (i % 89 == 7) {
      body += '\n';
      continue;
    }
    const auto u = static_cast<vid_t>(next() % kVertices);
    const auto v = static_cast<vid_t>(next() % kVertices);
    const double w = static_cast<double>(next() % 100000000) / 997.0;
    std::snprintf(line, sizeof(line), "%d%s%d %s%.17g%s", u + base,
                  i % 3 == 0 ? "\t" : " ", v + base, i % 5 == 0 ? "+" : "",
                  w, i % 7 == 0 ? "\r\n" : "\n");
    body += line;
    file.edges.push_back({u, v, w});
  }
  if (mm) {
    file.text = "%%MatrixMarket matrix coordinate real general\n" +
                std::to_string(kVertices) + " " + std::to_string(kVertices) +
                " " + std::to_string(file.edges.size()) + "\n";
  }
  file.text += body;
  return file;
}

const TextFile& CachedTextFile(TextFormat format) {
  static const TextFile mm = MakeTextFile(TextFormat::kMatrixMarket);
  static const TextFile el = MakeTextFile(TextFormat::kEdgeList);
  return format == TextFormat::kMatrixMarket ? mm : el;
}

MatrixMarketData ParseText(TextFormat format, const std::string& text) {
  std::istringstream in(text);
  return format == TextFormat::kMatrixMarket ? ReadMatrixMarket(in)
                                             : ReadEdgeList(in);
}

/// Replaces the content of 1-based line `line` (its newline is kept).
std::string WithLine(std::string text, long long line,
                     const std::string& content) {
  std::size_t begin = 0;
  for (long long l = 1; l < line; ++l) begin = text.find('\n', begin) + 1;
  const std::size_t end = text.find('\n', begin);
  return text.replace(begin, end - begin, content);
}

/// Inserts `content` as the new 1-based line `line`.
std::string WithLineInserted(std::string text, long long line,
                             const std::string& content) {
  std::size_t begin = 0;
  for (long long l = 1; l < line; ++l) begin = text.find('\n', begin) + 1;
  return text.insert(begin, content + "\n");
}

/// The 1-based number of the line holding byte `offset`.
long long LineAt(const std::string& text, std::size_t offset) {
  return 1 + std::count(text.begin(),
                        text.begin() + static_cast<std::ptrdiff_t>(offset),
                        '\n');
}

void ExpectSameEdges(const EdgeList& got, const EdgeList& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same =
        got[i].u == want[i].u && got[i].v == want[i].v &&
        std::bit_cast<std::uint64_t>(got[i].w) ==
            std::bit_cast<std::uint64_t>(want[i].w);
    ASSERT_TRUE(same) << "first difference at edge " << i;
  }
}

/// The ParhdeError `fn` throws; fails the test if it throws none.
template <typename Fn>
ParhdeError ErrorOf(Fn&& fn) {
  try {
    fn();
  } catch (const ParhdeError& e) {
    return e;
  }
  ADD_FAILURE() << "did not throw";
  return ParhdeError(ErrorCode::kOk, "", "");
}

bool NamesLine(const ParhdeError& e, long long line) {
  return std::string(e.what()).find("line " + std::to_string(line) + ":") !=
         std::string::npos;
}

class ChunkedTextIngest : public ::testing::TestWithParam<TextFormat> {};

TEST_P(ChunkedTextIngest, MultiWindowBodyParsesIdenticallyAt1And4Threads) {
  const TextFile& file = CachedTextFile(GetParam());
  ASSERT_GT(file.text.size(), std::size_t{9} << 20);
  MatrixMarketData one;
  {
    ThreadCountGuard guard(1);
    one = ParseText(GetParam(), file.text);
  }
  EXPECT_FALSE(one.pattern);
  EXPECT_EQ(one.n, 50000);
  ExpectSameEdges(one.edges, file.edges);
  ThreadCountGuard guard(4);
  ExpectSameEdges(ParseText(GetParam(), file.text).edges, one.edges);
}

TEST_P(ChunkedTextIngest, LateErrorNamesItsGlobalLine) {
  ThreadCountGuard guard(4);
  // About 8.2 MB in: one of the last chunks of the second window.
  const std::string& text = CachedTextFile(GetParam()).text;
  const long long line = LineAt(text, std::size_t{8200} << 10);
  const ParhdeError e =
      ErrorOf([&] { ParseText(GetParam(), WithLine(text, line, "7 x")); });
  EXPECT_EQ(e.code(), ErrorCode::kParse);
  EXPECT_TRUE(NamesLine(e, line)) << e.what();
}

TEST_P(ChunkedTextIngest, EarlierOfTwoErrorsWins) {
  ThreadCountGuard guard(4);
  const std::string& text = CachedTextFile(GetParam()).text;
  // A bad value in the second window and a syntax error in the third;
  // then a syntax error and a bad value three lines apart in one chunk.
  const long long early = LineAt(text, std::size_t{5} << 20);
  const long long late = LineAt(text, std::size_t{9} << 20);
  const std::string bad_value = GetParam() == TextFormat::kMatrixMarket
                                    ? "1 2 -3.5"
                                    : "0 1 -3.5";
  const ParhdeError across = ErrorOf([&] {
    ParseText(GetParam(),
              WithLine(WithLine(text, late, "garbage"), early, bad_value));
  });
  EXPECT_EQ(across.code(), ErrorCode::kInvalidValue);
  EXPECT_TRUE(NamesLine(across, early)) << across.what();

  const ParhdeError within = ErrorOf([&] {
    ParseText(GetParam(), WithLine(WithLine(text, late + 3, bad_value),
                                   late, "garbage"));
  });
  EXPECT_EQ(within.code(), ErrorCode::kParse);
  EXPECT_TRUE(NamesLine(within, late)) << within.what();
}

TEST_P(ChunkedTextIngest, LineLongerThanAWindowIsScanned) {
  ThreadCountGuard guard(4);
  const TextFile& file = CachedTextFile(GetParam());
  // A 5 MiB comment, longer than a whole read window, as the first body
  // line.
  const bool mm = GetParam() == TextFormat::kMatrixMarket;
  const long long first_body_line = mm ? 3 : 1;
  const std::string source = WithLineInserted(
      file.text, first_body_line,
      (mm ? "%" : "#") + std::string(std::size_t{5} << 20, 'x'));
  ExpectSameEdges(ParseText(GetParam(), source).edges, file.edges);
  const long long bad = LineAt(source, source.size() - 1000);
  const ParhdeError e =
      ErrorOf([&] { ParseText(GetParam(), WithLine(source, bad, "7 x")); });
  EXPECT_TRUE(NamesLine(e, bad)) << e.what();
}

INSTANTIATE_TEST_SUITE_P(Formats, ChunkedTextIngest,
                         ::testing::Values(TextFormat::kMatrixMarket,
                                           TextFormat::kEdgeList),
                         [](const auto& info) {
                           return info.param == TextFormat::kMatrixMarket
                                      ? std::string("MatrixMarket")
                                      : std::string("EdgeList");
                         });

TEST(ChunkedTextIngest, GarbageAfterTheNnzthEntryIsIgnored) {
  ThreadCountGuard guard(4);
  const TextFile& file = CachedTextFile(TextFormat::kMatrixMarket);
  // Garbage right after the last declared entry, in the same chunk and in
  // whole windows after it.
  std::string text = file.text;
  for (int i = 0; i < 400000; ++i) text += "not an entry\n";
  ExpectSameEdges(ParseText(TextFormat::kMatrixMarket, text).edges,
                  file.edges);
}

TEST(ChunkedTextIngest, LastLineWithoutNewlineCounts) {
  std::istringstream el("0 1\n1 2 2.5");
  const MatrixMarketData data = ReadEdgeList(el);
  ASSERT_EQ(data.edges.size(), 2u);
  EXPECT_EQ(data.edges[1].w, 2.5);
  std::istringstream mm(
      "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n3 1");
  EXPECT_EQ(ReadMatrixMarket(mm).edges.size(), 2u);
}

}  // namespace
}  // namespace parhde
