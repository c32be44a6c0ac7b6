// perfbench_driver — input generator and traced in-process layout driver
// for perfbench/run.py.
//
//   perfbench_driver gen --family=kron|grid|urand --out=<file.mtx|file.bin>
//       [--scale=16 --ef=16] [--rows=N --cols=N] [--n=N --m=M]
//       [--seed=1] [--largest]
//     Generates a graph through the library generators and writes it with
//     WriteMatrixMarketFile (.mtx) or WriteBinaryFile (.bin). --largest
//     keeps only the largest connected component, so the layout input is
//     connected.
//
//   perfbench_driver trace --in=<file> --spans=<out.json> [--s=10]
//       [--pivots=kcenters|random] [--seed=1] [--coords=<out.xy>]
//       [--repeats=3]
//     Runs the `parhde_cli layout` pipeline (largest-component policy,
//     default ParHDE options) `repeats` times in this process, calling the
//     same public functions the CLI and RunHdeOnComponents call, with a span
//     around each call. RunParHde is one span; its phases are timed by its
//     own PhaseTimings. Spans stay in memory and are written to --spans at
//     exit, together with one record per repeat (energy, layout hash,
//     RunParHde phase timings, traversal counts, computed SpMM bytes,
//     recovery attempts).
//
// A span is (name, start, end, parent, request): times are seconds since
// the driver started, `parent` indexes the enclosing span (-1 at the top)
// and `request` is the repeat number. The names are <layer>.<call>, which
// is how run.py books self time to layers.
#include <omp.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "draw/coords_io.hpp"
#include "draw/layout.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hde/parhde.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "resilience/recovery_log.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/status.hpp"

namespace {

using namespace parhde;

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------- spans --

struct Span {
  const char* name;
  double start;
  double end;
  int parent;
  int request;
};

class SpanLog {
 public:
  int Open(const char* name) {
    spans_.push_back({name, Now(), 0.0, current_, request_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void Close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void SetRequest(int request) { request_ = request; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
  int request_ = 0;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto Traced(SpanLog& log, const char* name, Fn&& fn) {
  struct Closer {
    SpanLog& log;
    int id;
    ~Closer() { log.Close(id); }
  } closer{log, log.Open(name)};
  return fn();
}

// ------------------------------------------------------------------ gen --

int CmdGen(const ArgParser& args) {
  const std::string family = args.GetString("family", "");
  const std::string out = args.GetString("out", "");
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  if (out.empty()) {
    throw ParhdeError(ErrorCode::kUsage, "gen", "--out=<file> is required");
  }
  EdgeList edges;
  vid_t n = 0;
  if (family == "kron") {
    const int scale = static_cast<int>(args.GetInt("scale", 16));
    n = vid_t{1} << scale;
    edges = GenKronecker(scale, static_cast<int>(args.GetInt("ef", 16)), seed);
  } else if (family == "grid") {
    const auto rows = static_cast<vid_t>(args.GetInt("rows", 100));
    const auto cols = static_cast<vid_t>(args.GetInt("cols", 100));
    n = rows * cols;
    edges = GenGrid2d(rows, cols);
  } else if (family == "urand") {
    n = static_cast<vid_t>(args.GetInt("n", 1 << 16));
    edges = GenUniformRandom(n, args.GetInt("m", 8LL * n), seed);
  } else {
    throw ParhdeError(ErrorCode::kUsage, "gen",
                      "--family must be kron, grid or urand");
  }
  CsrGraph graph = BuildCsrGraph(n, edges);
  ComponentExtraction largest = LargestComponent(graph);
  const vid_t largest_n = largest.graph.NumVertices();
  if (args.Has("largest")) graph = std::move(largest.graph);
  if (HasSuffix(out, ".bin")) {
    WriteBinaryFile(graph, out);
  } else {
    WriteMatrixMarketFile(graph, out);
  }
  // The largest component is what `parhde_cli layout` lays out by default,
  // so its size is what the run report and coordinates file must show.
  std::printf("{\"vertices\": %d, \"edges\": %lld, \"largest_vertices\": %d}\n",
              graph.NumVertices(), static_cast<long long>(graph.NumEdges()),
              largest_n);
  return 0;
}

// ---------------------------------------------------------------- trace --

struct RepeatRecord {
  double energy = 0.0;
  std::uint64_t layout_hash = 0;
  std::int64_t raw_vertices = 0;
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::int64_t effective_pivots = 0;
  std::int64_t kept_columns = 0;
  BfsStats bfs;
  std::int64_t bfs_searches = 0;
  /// RunParHde's phase timings, in its own phase names.
  std::vector<std::pair<std::string, double>> phases;
  double spmm_bytes = 0.0;
  std::int64_t recovery_attempts = 0;
};

std::uint64_t LayoutHash(const Layout& layout) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  auto mix = [&h](const std::vector<double>& values) {
    for (const double v : values) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &v, sizeof(double));
      for (const unsigned char b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
      }
    }
  };
  mix(layout.x);
  mix(layout.y);
  return h;
}

/// Bytes the TripleProd SpMM must move at minimum, computed from the CSR and
/// matrix sizes: one CSR sweep (offsets, adjacency, weights) per traversal
/// the kernel counted, the degree vector, reading S and writing P once.
/// Cache misses are not counted, so this is a computed figure, not a
/// measured one.
double SpmmBytesComputed(const CsrGraph& graph, std::size_t k,
                         std::int64_t sweeps) {
  const auto n = static_cast<double>(graph.NumVertices());
  const auto passes = static_cast<double>(sweeps);
  const double csr =
      static_cast<double>(graph.Offsets().size() * sizeof(eid_t) +
                          graph.Adjacency().size() * sizeof(vid_t) +
                          graph.Weights().size() * sizeof(weight_t));
  return passes * csr + n * sizeof(double) +
         2.0 * n * static_cast<double>(k) * sizeof(double);
}

/// RunParHde itself, in one span. Its inside is timed by the program's own
/// phase timings (HdeResult::timings, the figures `parhde_cli --report`
/// prints), which run.py books to the bfs and linalg layers; the rest of the
/// span is hde glue.
Layout TracedParHde(SpanLog& log, const CsrGraph& graph,
                    const HdeOptions& options, RepeatRecord& rec) {
  const std::int64_t sweeps_before =
      obs::CounterValue(obs::Counter::kSpmmEdgeSweeps);
  HdeResult result =
      Traced(log, "hde.parhde", [&] { return RunParHde(graph, options); });
  for (const std::string& name : result.timings.Names()) {
    rec.phases.emplace_back(name, result.timings.Get(name));
  }
  rec.bfs = result.bfs_stats;
  rec.effective_pivots = static_cast<std::int64_t>(result.pivots.size());
  rec.kept_columns = result.kept_columns;
  // Every traversal the distance phase ran, probes included: single-source
  // BFS runs plus one MS-BFS lane per batched source.
  rec.bfs_searches = obs::CounterValue(obs::Counter::kBfsSearches) +
                     obs::CounterValue(obs::Counter::kSerialBfsSearches) +
                     obs::CounterValue(obs::Counter::kMsBfsLanesActive);
  rec.spmm_bytes = SpmmBytesComputed(
      graph, static_cast<std::size_t>(result.kept_columns),
      obs::CounterValue(obs::Counter::kSpmmEdgeSweeps) - sweeps_before);
  return std::move(result.layout);
}

/// One `parhde_cli layout` run: load, largest-component layout, energy,
/// optional coordinates file.
RepeatRecord TracedLayout(SpanLog& log, const ArgParser& args,
                          const HdeOptions& options) {
  RepeatRecord rec;
  const std::string in = args.GetString("in", "");
  const std::string coords = args.GetString("coords", "");
  Traced(log, "run", [&] {
    const CsrGraph raw = HasSuffix(in, ".bin")
        ? Traced(log, "graph.read_bin", [&] { return ReadBinaryFile(in); })
        : [&] {
            const MatrixMarketData data = Traced(
                log, "graph.parse", [&] { return ReadMatrixMarketFile(in); });
            BuildOptions bopts;
            bopts.keep_weights = !data.pattern;
            return Traced(log, "graph.build", [&] {
              return BuildCsrGraph(data.n, data.edges, bopts);
            });
          }();
    rec.raw_vertices = raw.NumVertices();

    // RunHdeOnComponents under the Largest policy.
    ComponentExtraction part;
    bool used_subgraph = false;
    Layout layout;
    Traced(log, "hde.components_layout", [&] {
      const std::vector<vid_t> labels = Traced(
          log, "graph.components", [&] { return ConnectedComponents(raw); });
      if (CountComponents(labels) > 1) {
        std::unordered_map<vid_t, vid_t> size_of;
        for (const vid_t l : labels) ++size_of[l];
        // Largest component, ties toward the smaller label, as
        // RunHdeOnComponents picks it.
        vid_t best = labels.front();
        for (const auto& [label, size] : size_of) {
          const vid_t best_size = size_of.at(best);
          if (size > best_size || (size == best_size && label < best)) {
            best = label;
          }
        }
        part = Traced(log, "graph.extract",
                      [&] { return ExtractComponent(raw, labels, best); });
        used_subgraph = true;
      }
      const CsrGraph& g = used_subgraph ? part.graph : raw;
      layout = TracedParHde(log, g, options, rec);
    });

    const CsrGraph& laid = used_subgraph ? part.graph : raw;
    rec.vertices = laid.NumVertices();
    rec.edges = laid.NumEdges();
    rec.energy = Traced(log, "draw.energy", [&] {
      return NormalizedEdgeLengthEnergy(laid, layout);
    });
    if (!coords.empty()) {
      Traced(log, "draw.write_coords",
             [&] { WriteCoordinatesFile(layout, coords); });
    }
    rec.layout_hash = LayoutHash(layout);
  });
  rec.recovery_attempts =
      static_cast<std::int64_t>(resilience::RecoveryAttempts().size());
  return rec;
}

int CmdTrace(const ArgParser& args) {
  const std::string spans_path = args.GetString("spans", "");
  if (args.GetString("in", "").empty() || spans_path.empty()) {
    throw ParhdeError(ErrorCode::kUsage, "trace",
                      "--in=<graph> and --spans=<file> are required");
  }
  HdeOptions options;
  options.subspace_dim = static_cast<int>(args.GetInt("s", 10));
  options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  if (args.GetChoice("pivots", {"kcenters", "random"}, "kcenters") ==
      "random") {
    options.pivots = PivotStrategy::Random;
  }
  const int repeats = static_cast<int>(args.GetInt("repeats", 3));

  SpanLog log;
  std::vector<RepeatRecord> records;
  for (int r = 0; r < repeats; ++r) {
    obs::ResetObservability();
    log.SetRequest(r);
    records.push_back(TracedLayout(log, args, options));
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("threads");
  w.Int(omp_get_max_threads());
  w.Key("spans");
  w.BeginArray();
  for (const Span& s : log.spans()) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("start");
    w.Double(s.start);
    w.Key("end");
    w.Double(s.end);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("request");
    w.Int(s.request);
    w.EndObject();
  }
  w.EndArray();
  w.Key("repeats");
  w.BeginArray();
  for (const RepeatRecord& rec : records) {
    w.BeginObject();
    w.Key("energy");
    w.Double(rec.energy);
    w.Key("layout_hash");
    w.String(std::to_string(rec.layout_hash));
    w.Key("raw_vertices");
    w.Int(rec.raw_vertices);
    w.Key("vertices");
    w.Int(rec.vertices);
    w.Key("edges");
    w.Int(rec.edges);
    w.Key("effective_pivots");
    w.Int(rec.effective_pivots);
    w.Key("kept_columns");
    w.Int(rec.kept_columns);
    w.Key("bfs_searches");
    w.Int(rec.bfs_searches);
    w.Key("bfs_levels");
    w.Int(rec.bfs.levels);
    w.Key("bfs_edges_examined");
    w.Int(rec.bfs.edges_examined);
    w.Key("spmm_bytes_computed");
    w.Double(rec.spmm_bytes);
    w.Key("recovery_attempts");
    w.Int(rec.recovery_attempts);
    w.Key("phases");
    w.BeginObject();
    for (const auto& [name, seconds] : rec.phases) {
      w.Key(name);
      w.Double(seconds);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(spans_path);
  out << w.Str() << '\n';
  if (!out) {
    throw ParhdeError(ErrorCode::kIo, "trace", "cannot write " + spans_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver <gen|trace> [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  parhde::ArgParser args(argc - 1, argv + 1);
  try {
    if (command == "gen") return CmdGen(args);
    if (command == "trace") return CmdTrace(args);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const parhde::ParhdeError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return parhde::ExitCodeFor(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
