#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace parhde {
namespace {

constexpr char kBinaryMagic[8] = {'P', 'A', 'R', 'H', 'D', 'E', '0', '1'};
constexpr const char* kIoPhase = "graph/io";

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void Fail(ErrorCode code, const std::string& what) {
  throw ParhdeError(code, kIoPhase, what);
}

/// Line-numbered variant for the text parsers: "line 17: <what>".
[[noreturn]] void FailAt(ErrorCode code, long long line,
                         const std::string& what) {
  Fail(code, "line " + std::to_string(line) + ": " + what);
}

template <typename T>
void WriteRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadRaw(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) Fail(ErrorCode::kCorruptBinary, "truncated binary stream");
  return value;
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& v) {
  WriteRaw<std::uint64_t>(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

/// Bytes left between the current read position and the end of a seekable
/// stream, or nullopt when the stream cannot seek (e.g. a pipe).
std::optional<std::uint64_t> RemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || !in || end < pos) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - pos);
}

/// Reads a length-prefixed array. The untrusted uint64 length is validated
/// against the remaining stream size before any allocation (a truncated or
/// hostile header must not trigger a multi-GB resize); on non-seekable
/// streams the allocation grows in bounded chunks instead, so memory use is
/// capped by the bytes the stream actually delivers.
template <typename T>
std::vector<T> ReadVector(std::istream& in) {
  const auto size = ReadRaw<std::uint64_t>(in);
  if (const auto remaining = RemainingBytes(in)) {
    if (size > *remaining / sizeof(T)) {
      Fail(ErrorCode::kCorruptBinary,
           "declared array size " + std::to_string(size) + " (" +
               std::to_string(size * sizeof(T)) + " bytes) exceeds the " +
               std::to_string(*remaining) + " bytes left in the stream");
    }
  }
  std::vector<T> v;
  constexpr std::uint64_t kChunkElems = (std::uint64_t{1} << 20) / sizeof(T);
  while (v.size() < size) {
    const std::uint64_t batch = std::min<std::uint64_t>(
        kChunkElems, size - static_cast<std::uint64_t>(v.size()));
    const std::size_t old = v.size();
    v.resize(old + static_cast<std::size_t>(batch));
    in.read(reinterpret_cast<char*>(v.data() + old),
            static_cast<std::streamsize>(batch * sizeof(T)));
    if (!in) Fail(ErrorCode::kCorruptBinary, "truncated binary stream");
  }
  return v;
}

// ---- Text ingest -------------------------------------------------------
//
// The MatrixMarket body and the edge list share one scanner. It reads the
// stream in windows of up to kChunksPerWindow x kChunkBytes and cuts each
// window at newlines into chunks of whole lines. The chunks are processed
// in parallel twice: first each counts its entry lines, which places its
// entries in the output (a prefix sum in chunk order); then each tokenizes
// its lines straight into that place. Chunks are then checked in file
// order, so the resulting EdgeList, the first error reported and its line
// number are the same at any thread count. Only one window of text is held
// at a time; a line longer than a window grows the window to fit it.

constexpr std::size_t kChunkBytes = std::size_t{256} << 10;
constexpr std::size_t kChunksPerWindow = 16;

/// One chunk of whole lines and what parsing it found. A chunk stops at its
/// first bad line; `entries` and `lines` then count what came before it.
struct TextChunk {
  std::string_view text;
  std::size_t first = 0;    // output index of the chunk's first entry
  std::size_t entries = 0;  // entry lines (counted), then entries parsed
  long long lines = 0;
  bool weighted = false;  // edge list: some line carried a weight column
  vid_t max_id = -1;      // edge list: largest endpoint seen
  bool failed = false;
  ErrorCode error_code = ErrorCode::kOk;
  std::string error;

  /// Records the first bad line; returns false so a line parser can
  /// `return chunk.Fail(...)`.
  bool Fail(ErrorCode code, std::string what) {
    failed = true;
    error_code = code;
    error = std::move(what);
    return false;
  }
};

/// The whitespace operator>> skips inside a line.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

void SkipBlanks(const char*& p, const char* end) {
  while (p != end && IsBlank(*p)) ++p;
}

/// Reads a decimal integer the way `in >> long long` does: leading blanks
/// skipped, an optional sign, digits up to the first other character. Fails
/// on a missing number or on overflow.
bool ReadInteger(const char*& p, const char* end, long long& value) {
  SkipBlanks(p, end);
  if (p != end && *p == '+') {
    ++p;
    if (p == end || *p < '0' || *p > '9') return false;
  }
  const auto [ptr, ec] = std::from_chars(p, end, value);
  if (ec != std::errc{}) return false;
  p = ptr;
  return true;
}

/// Reads the next blank-delimited token, as `in >> std::string` does; empty
/// when the line has no more tokens.
std::string_view ReadToken(const char*& p, const char* end) {
  SkipBlanks(p, end);
  const char* begin = p;
  while (p != end && !IsBlank(*p)) ++p;
  return {begin, static_cast<std::size_t>(p - begin)};
}

/// Parses a weight token with std::from_chars, which (unlike istream's
/// num_get) recognizes "nan" and "inf" spellings — those must reach
/// CheckEdgeWeight to be rejected as invalid VALUES, not mis-reported as
/// parse errors — and (unlike strtod) ignores LC_NUMERIC, so a host
/// comma-decimal locale cannot truncate "1.5" to 1. from_chars never
/// accepts a leading '+', which strtod did; skip it manually to keep the
/// accepted grammar unchanged.
bool ParseWeightToken(std::string_view token, double& w, TextChunk& chunk) {
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  if (begin != end && *begin == '+') ++begin;
  const auto [ptr, ec] = std::from_chars(begin, end, w);
  if (ec != std::errc{} || ptr != end || begin == end) {
    return chunk.Fail(ErrorCode::kParse,
                      "bad numeric value '" + std::string(token) + "'");
  }
  return true;
}

/// Rejects the weight values that poison downstream phases: NaN/Inf break
/// every distance and projection, and a negative weight can make the
/// Δ-stepping SSSP kernel non-terminating.
bool CheckEdgeWeight(double w, TextChunk& chunk) {
  if (std::isnan(w) || std::isinf(w)) {
    return chunk.Fail(ErrorCode::kInvalidValue, "non-finite edge weight");
  }
  if (w < 0.0) {
    return chunk.Fail(ErrorCode::kInvalidValue,
                      "negative edge weight " + std::to_string(w) +
                          " (negative weights break shortest-path kernels)");
  }
  return true;
}

/// Calls fn(line) for every line of `text` (without its '\n') until fn
/// returns false.
template <class Fn>
void ForEachLine(std::string_view text, Fn&& fn) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* eol = nl != nullptr ? nl : end;
    if (!fn(std::string_view(p, static_cast<std::size_t>(eol - p)))) return;
    p = nl != nullptr ? nl + 1 : end;
  }
}

/// Scans the rest of `in` as described above, appending to `edges`;
/// `lineno` lines of the stream were consumed before. is_entry(line) tells
/// entry lines from skipped ones; parse_line(line, edge, chunk) parses an
/// entry line or records why not. Both run on the team. take(chunk) runs on
/// the calling thread once per chunk, in file order, and returns false to
/// stop reading; otherwise a failed chunk throws its error with the global
/// line number.
template <class IsEntry, class ParseLine, class Take>
void ScanTextBody(std::istream& in, long long lineno, EdgeList& edges,
                  const IsEntry& is_entry, const ParseLine& parse_line,
                  Take&& take) {
  // A small input gets a window of its own size, not the full window.
  const auto remaining = RemainingBytes(in);
  std::size_t window = kChunkBytes * kChunksPerWindow;
  if (remaining) window = std::min<std::uint64_t>(window, *remaining + 1);
  std::vector<char> buf(window);
  std::vector<TextChunk> chunks;
  std::size_t carry = 0;  // bytes of an unfinished line from the last window
  bool eof = false;
  while (!eof) {
    if (carry == buf.size()) buf.resize(2 * buf.size());
    in.read(buf.data() + carry, static_cast<std::streamsize>(buf.size() - carry));
    const std::size_t len = carry + static_cast<std::size_t>(in.gcount());
    eof = len < buf.size();
    std::size_t text_end = len;  // the window's text ends after a newline
    if (!eof) {
      while (text_end > 0 && buf[text_end - 1] != '\n') --text_end;
      if (text_end == 0) {
        carry = len;
        continue;
      }
    }

    chunks.clear();
    for (std::size_t lo = 0; lo < text_end;) {
      std::size_t hi = std::min(text_end, lo + kChunkBytes);
      if (hi < text_end) {
        const auto* nl = static_cast<const char*>(
            std::memchr(buf.data() + hi - 1, '\n', text_end - hi + 1));
        hi = nl != nullptr ? static_cast<std::size_t>(nl - buf.data()) + 1
                           : text_end;
      }
      chunks.emplace_back().text = std::string_view(buf.data() + lo, hi - lo);
      lo = hi;
    }
    const auto nchunks = static_cast<std::int64_t>(chunks.size());
    ParallelFor(nchunks, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t c = lo; c < hi; ++c) {
        TextChunk& chunk = chunks[static_cast<std::size_t>(c)];
        ForEachLine(chunk.text, [&](std::string_view line) {
          chunk.entries += is_entry(line);
          return true;
        });
      }
    });
    std::size_t next = edges.size();
    for (TextChunk& chunk : chunks) {
      chunk.first = next;
      next += chunk.entries;
    }
    edges.resize(next);
    ParallelFor(nchunks, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t c = lo; c < hi; ++c) {
        TextChunk& chunk = chunks[static_cast<std::size_t>(c)];
        Edge* const out = edges.data() + chunk.first;
        chunk.entries = 0;
        ForEachLine(chunk.text, [&](std::string_view line) {
          if (is_entry(line)) {
            if (!parse_line(line, out[chunk.entries], chunk)) return false;
            ++chunk.entries;
          }
          ++chunk.lines;
          return true;
        });
      }
    });
    for (const TextChunk& chunk : chunks) {
      if (!take(chunk)) return;
      if (chunk.failed) {
        FailAt(chunk.error_code, lineno + chunk.lines + 1, chunk.error);
      }
      lineno += chunk.lines;
    }

    carry = len - text_end;
    std::memmove(buf.data(), buf.data() + text_end, carry);
  }
}

/// Full CSR-invariant validation of untrusted binary arrays, run BEFORE the
/// CsrGraph constructor touches them (the constructor indexes by these
/// values, so handing it garbage is undefined behavior, not an exception).
void ValidateCsrArrays(std::int64_t n, const std::vector<eid_t>& offsets,
                       const std::vector<vid_t>& adj,
                       const std::vector<weight_t>& weights) {
  if (n < 0) {
    Fail(ErrorCode::kCorruptBinary,
         "negative vertex count " + std::to_string(n));
  }
  if (static_cast<std::int64_t>(offsets.size()) != n + 1) {
    Fail(ErrorCode::kCorruptBinary,
         "offset array has " + std::to_string(offsets.size()) +
             " entries, expected n+1 = " + std::to_string(n + 1));
  }
  if (offsets.front() != 0) {
    Fail(ErrorCode::kCorruptBinary, "offset array does not start at 0");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      Fail(ErrorCode::kCorruptBinary,
           "offsets not monotone at vertex " + std::to_string(i - 1));
    }
  }
  if (offsets.back() != static_cast<eid_t>(adj.size())) {
    Fail(ErrorCode::kCorruptBinary,
         "final offset " + std::to_string(offsets.back()) +
             " does not match adjacency length " + std::to_string(adj.size()));
  }
  for (std::size_t i = 0; i < adj.size(); ++i) {
    if (adj[i] < 0 || static_cast<std::int64_t>(adj[i]) >= n) {
      Fail(ErrorCode::kCorruptBinary,
           "neighbor id " + std::to_string(adj[i]) + " at arc " +
               std::to_string(i) + " out of range [0, " + std::to_string(n) +
               ")");
    }
  }
  if (!weights.empty() && weights.size() != adj.size()) {
    Fail(ErrorCode::kCorruptBinary,
         "weight array has " + std::to_string(weights.size()) +
             " entries, expected 0 or " + std::to_string(adj.size()));
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i];
    if (std::isnan(w) || std::isinf(w) || w < 0.0) {
      Fail(ErrorCode::kInvalidValue,
           "invalid edge weight " + std::to_string(w) + " at arc " +
               std::to_string(i));
    }
  }
}

}  // namespace

MatrixMarketData ReadMatrixMarket(std::istream& in) {
  std::string line;
  long long lineno = 1;
  if (!std::getline(in, line)) {
    Fail(ErrorCode::kParse, "empty MatrixMarket stream");
  }
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") {
    FailAt(ErrorCode::kParse, lineno, "missing %%MatrixMarket banner");
  }
  if (ToLower(object) != "matrix" || ToLower(format) != "coordinate") {
    FailAt(ErrorCode::kParse, lineno,
           "only coordinate matrices are supported");
  }
  field = ToLower(field);
  symmetry = ToLower(symmetry);
  if (field != "pattern" && field != "real" && field != "integer") {
    FailAt(ErrorCode::kParse, lineno, "unsupported field type: " + field);
  }

  MatrixMarketData data;
  data.pattern = (field == "pattern");
  data.symmetric = (symmetry == "symmetric");

  // Skip comments, read the size line.
  long long rows = 0, cols = 0, nnz = 0;
  bool have_sizes = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '%') continue;
    std::istringstream sizes(line);
    if (!(sizes >> rows >> cols >> nnz)) {
      FailAt(ErrorCode::kParse, lineno, "bad size line");
    }
    have_sizes = true;
    break;
  }
  if (!have_sizes) Fail(ErrorCode::kParse, "missing size line");
  if (rows <= 0 || cols <= 0 || nnz < 0) {
    FailAt(ErrorCode::kInvalidValue, lineno,
           "bad matrix dimensions " + std::to_string(rows) + " x " +
               std::to_string(cols) + ", nnz " + std::to_string(nnz));
  }
  data.n = static_cast<vid_t>(std::max(rows, cols));
  // nnz is untrusted: reserve no more entries than the rest of the stream
  // can hold. The shortest entry line, "1 1\n", takes 4 bytes.
  const auto remaining = RemainingBytes(in);
  const std::uint64_t fit =
      remaining ? (*remaining + 1) / 4 : std::uint64_t{1} << 16;
  data.edges.reserve(static_cast<std::size_t>(
      std::min(static_cast<std::uint64_t>(nnz), fit)));

  const bool pattern = data.pattern;
  const auto is_entry = [](std::string_view line) {
    return !line.empty() && line[0] != '%';
  };
  const auto parse_line = [&](std::string_view line, Edge& edge,
                              TextChunk& chunk) {
    const char* p = line.data();
    const char* const end = p + line.size();
    long long r = 0, c = 0;
    double w = 1.0;
    if (!ReadInteger(p, end, r) || !ReadInteger(p, end, c)) {
      return chunk.Fail(ErrorCode::kParse, "bad entry line");
    }
    if (!pattern) {
      const std::string_view token = ReadToken(p, end);
      if (token.empty()) {
        return chunk.Fail(ErrorCode::kParse,
                          "missing value in non-pattern file");
      }
      if (!ParseWeightToken(token, w, chunk)) return false;
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      return chunk.Fail(ErrorCode::kInvalidValue,
                        "entry (" + std::to_string(r) + ", " +
                            std::to_string(c) + ") outside the declared " +
                            std::to_string(rows) + " x " +
                            std::to_string(cols) + " matrix");
    }
    if (!pattern && !CheckEdgeWeight(w, chunk)) return false;
    edge = {static_cast<vid_t>(r - 1), static_cast<vid_t>(c - 1), w};
    return true;
  };
  // Lines after the nnz-th entry are ignored, bad or not.
  const auto declared = static_cast<std::size_t>(nnz);
  ScanTextBody(in, lineno, data.edges, is_entry, parse_line,
               [&](const TextChunk& chunk) {
                 if (chunk.first + chunk.entries < declared) return true;
                 data.edges.resize(declared);
                 return false;
               });
  if (data.edges.size() != declared) {
    Fail(ErrorCode::kParse, "fewer entries (" +
                                std::to_string(data.edges.size()) +
                                ") than the declared " + std::to_string(nnz));
  }
  return data;
}

#if PARHDE_FAULT_INJECTION
namespace {
// io:short-read / io:corrupt-header: slurp the opened file, damage the
// bytes in memory, and hand the parser an in-memory stream — exercising the
// same typed error paths a truncated or garbled on-disk file would.
std::optional<std::istringstream> MaybeDamageStream(std::istream& in) {
  const bool short_read = resilience::FaultArm("io:short-read");
  const bool corrupt = resilience::FaultArm("io:corrupt-header");
  if (!short_read && !corrupt) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (short_read) {
    const auto keep =
        static_cast<std::size_t>(resilience::FaultParam("io:short-read", 64));
    if (bytes.size() > keep) bytes.resize(keep);
  }
  if (corrupt) {
    for (std::size_t i = 0; i < bytes.size() && i < 8; ++i) {
      bytes[i] = static_cast<char>(bytes[i] ^ 0x5a);
    }
  }
  return std::istringstream(std::move(bytes));
}
}  // namespace
#endif

MatrixMarketData ReadMatrixMarketFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail(ErrorCode::kIo, "cannot open " + path);
#if PARHDE_FAULT_INJECTION
  if (auto damaged = MaybeDamageStream(in)) return ReadMatrixMarket(*damaged);
#endif
  return ReadMatrixMarket(in);
}

void WriteMatrixMarket(const CsrGraph& graph, std::ostream& out) {
  const bool weighted = graph.HasWeights();
  // 17 significant digits round-trip any double exactly.
  out.precision(17);
  out << "%%MatrixMarket matrix coordinate "
      << (weighted ? "real" : "pattern") << " symmetric\n";
  out << "% written by parhde\n";
  out << graph.NumVertices() << ' ' << graph.NumVertices() << ' '
      << graph.NumEdges() << '\n';
  const vid_t n = graph.NumVertices();
  for (vid_t v = 0; v < n; ++v) {
    const auto nbrs = graph.Neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t u = nbrs[i];
      if (u > v) continue;  // lower triangle: row >= col, rows are v+1
      out << (v + 1) << ' ' << (u + 1);
      if (weighted) out << ' ' << graph.NeighborWeights(v)[i];
      out << '\n';
    }
  }
}

void WriteMatrixMarketFile(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) Fail(ErrorCode::kIo, "cannot open " + path);
  WriteMatrixMarket(graph, out);
}

MatrixMarketData ReadEdgeList(std::istream& in) {
  const auto is_entry = [](std::string_view line) {
    return !line.empty() && line[0] != '#' && line[0] != '%';
  };
  const auto parse_line = [](std::string_view line, Edge& edge,
                             TextChunk& chunk) {
    const char* p = line.data();
    const char* const end = p + line.size();
    long long u = 0, v = 0;
    double w = 1.0;
    if (!ReadInteger(p, end, u) || !ReadInteger(p, end, v)) {
      return chunk.Fail(ErrorCode::kParse,
                        "bad edge line: " + std::string(line));
    }
    const std::string_view token = ReadToken(p, end);
    if (!token.empty()) {
      chunk.weighted = true;
      if (!ParseWeightToken(token, w, chunk) || !CheckEdgeWeight(w, chunk)) {
        return false;
      }
    }
    if (u < 0 || v < 0) {
      return chunk.Fail(ErrorCode::kInvalidValue, "negative vertex id");
    }
    constexpr long long kMaxVid = std::numeric_limits<vid_t>::max() - 1;
    if (u > kMaxVid || v > kMaxVid) {
      return chunk.Fail(ErrorCode::kInvalidValue,
                        "vertex id exceeds the 32-bit id space");
    }
    edge = {static_cast<vid_t>(u), static_cast<vid_t>(v), w};
    chunk.max_id =
        std::max<vid_t>(chunk.max_id, static_cast<vid_t>(std::max(u, v)));
    return true;
  };
  MatrixMarketData data;
  data.pattern = true;
  data.symmetric = true;
  vid_t max_id = -1;
  ScanTextBody(in, 0, data.edges, is_entry, parse_line,
               [&](const TextChunk& chunk) {
                 if (chunk.weighted) data.pattern = false;
                 max_id = std::max(max_id, chunk.max_id);
                 return true;
               });
  data.n = max_id + 1;
  return data;
}

MatrixMarketData ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail(ErrorCode::kIo, "cannot open " + path);
#if PARHDE_FAULT_INJECTION
  if (auto damaged = MaybeDamageStream(in)) return ReadEdgeList(*damaged);
#endif
  return ReadEdgeList(in);
}

void WriteBinary(const CsrGraph& graph, std::ostream& out) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  WriteRaw<std::int64_t>(out, graph.NumVertices());
  WriteVector(out, graph.Offsets());
  WriteVector(out, graph.Adjacency());
  WriteVector(out, graph.Weights());
}

CsrGraph ReadBinary(std::istream& in) {
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    Fail(ErrorCode::kCorruptBinary, "bad binary magic");
  }
  const auto n = ReadRaw<std::int64_t>(in);
  auto offsets = ReadVector<eid_t>(in);
  auto adj = ReadVector<vid_t>(in);
  auto weights = ReadVector<weight_t>(in);
  ValidateCsrArrays(n, offsets, adj, weights);
  return CsrGraph(std::move(offsets), std::move(adj), std::move(weights));
}

void WriteBinaryFile(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) Fail(ErrorCode::kIo, "cannot open " + path);
  WriteBinary(graph, out);
}

CsrGraph ReadBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail(ErrorCode::kIo, "cannot open " + path);
#if PARHDE_FAULT_INJECTION
  if (auto damaged = MaybeDamageStream(in)) return ReadBinary(*damaged);
#endif
  return ReadBinary(in);
}

}  // namespace parhde
