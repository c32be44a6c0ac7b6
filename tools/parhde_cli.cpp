// parhde_cli — the production command-line front end to the library.
//
// Subcommands:
//   generate  --family=<urand|kron|grid|grid3d|road|plate|chain|ring>
//             [--n/--scale/--rows/--cols/--ef/--seed]
//             --out=<file.mtx|file.bin>  (.bin writes the binary CSR)
//   stats     --in=<file.mtx|file.el>   (sizes, degrees, diameter, gaps)
//   layout    --in=<...> [--algo=parhde|phde|pivotmds|prior|multilevel]
//             [--s=10] [--axes=2] [--pivots=kcenters|random]
//             [--dortho=mgs|cgs|blocked] [--gs-block=8]  (orthogonalizer)
//             [--spmm-block=0|1|4|8|16]  (TripleProd SpMM column block;
//             0 auto-tunes, 1 forces the per-column reference kernel)
//             [--metric=degree|unit] [--basis=b|s] [--seed=1]
//             [--kernel=parbfs|serialbfs|msbfs|sssp] [--delta=<w>]
//             [--sssp-engine=auto|parallel|concurrent]
//             [--disconnected=pack|largest|reject]  (default: largest)
//             [--coords=out.xy] [--png=out.png] [--svg=out.svg]
//             [--report=run.json]  (machine-readable run report)
//             [--trace=trace.json] (Chrome trace-event span timeline)
//             [--timeout=<sec>]       (whole-run deadline)
//             [--phase-timeout=<sec>] (per-phase budget: distance, DOrtho,
//             eigensolve each get this much before their ladder retries)
//             [--recovery=ladder|strict]  (downgrade failed kernels, or
//             surface the first typed error; default ladder)
//
// Every subcommand accepts --threads=N (caps the OpenMP thread count),
// --report=<file> (machine-readable run report, schema parhde-run-report/2),
// --hw-counters[=off|phase|thread] (perf_event_open counter attribution in
// the report; bare --hw-counters means "phase"; requires a build with
// -DPARHDE_HWPERF=ON — on hosts where perf_event_open is denied the run
// still succeeds and the report says hw.available=false plus the reason),
// and --fault-plan=<plan> (deterministic fault injection; requires a build
// with -DPARHDE_FAULT_INJECTION=ON — see src/resilience/fault_injection.hpp
// for the site catalog and plan grammar). The PARHDE_FAULT_PLAN environment
// variable is the flag's fallback spelling for harnesses that cannot edit
// argv.
//   partition --in=<...> [--parts=4] [--refine] [--svg=out.svg]
//   draw      --in=<graph> --coords=<file.xy> [--png=out.png]
//             [--svg=out.svg] [--canvas=800] [--aa]   (render saved coords)
//
// Inputs ending in .mtx parse as MatrixMarket, .bin as the binary CSR
// snapshot, anything else as an edge list. Graphs are preprocessed like the
// paper (§4.1): symmetrize, dedup, drop self loops. The layout subcommand
// handles disconnected inputs per --disconnected; the other subcommands
// extract the largest connected component as before.
//
// Exit codes (see src/util/status.hpp): 0 success, 1 internal error,
// 2 usage, 3 I/O, 4 parse, 5 corrupt binary, 6 invalid value, 7 graph too
// small, 8 disconnected input rejected, 9 numerical failure,
// 10 eigensolver did not converge, 11 deadline exceeded, 12 resources
// exhausted (allocation failure).
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <string>

#include "draw/coords_io.hpp"
#include "draw/layout.hpp"
#include "draw/png_writer.hpp"
#include "draw/raster.hpp"
#include "draw/svg_writer.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/gap_stats.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "bfs/serial_bfs.hpp"
#include "hde/components_layout.hpp"
#include "hde/parhde.hpp"
#include "hde/partition.hpp"
#include "hde/partition_refine.hpp"
#include "hde/phde.hpp"
#include "hde/pivot_mds.hpp"
#include "hde/prior_baseline.hpp"
#include "multilevel/multilevel_hde.hpp"
#include "obs/hwperf.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace {

using namespace parhde;

int Usage() {
  std::fprintf(stderr,
               "usage: parhde_cli <generate|stats|layout|partition> [flags]\n"
               "see the header comment of tools/parhde_cli.cpp for flags\n");
  return 2;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads --in without dropping any component. MatrixMarket / edge-list
/// inputs go through the usual preprocessing (symmetrize, dedup, drop self
/// loops); .bin snapshots are already CSR.
CsrGraph LoadRawGraph(const ArgParser& args) {
  const std::string path = args.GetString("in", "");
  if (path.empty()) {
    throw ParhdeError(ErrorCode::kUsage, "cli",
                      "--in=<graph file> is required");
  }
  if (HasSuffix(path, ".bin")) return ReadBinaryFile(path);
  MatrixMarketData data;
  if (HasSuffix(path, ".mtx")) {
    data = ReadMatrixMarketFile(path);
  } else {
    data = ReadEdgeListFile(path);
  }
  BuildOptions opts;
  opts.keep_weights = !data.pattern;
  return BuildCsrGraph(data.n, data.edges, opts);
}

CsrGraph LoadGraph(const ArgParser& args) {
  CsrGraph raw = LoadRawGraph(args);
  auto extraction = LargestComponent(raw);
  std::printf("loaded %s: n=%d m=%lld (largest component of %d vertices)\n",
              args.GetString("in", "").c_str(),
              extraction.graph.NumVertices(),
              static_cast<long long>(extraction.graph.NumEdges()),
              raw.NumVertices());
  return std::move(extraction.graph);
}

/// --report=<file> for the subcommands that do not hand-build their own
/// RunReport: snapshots the observability registries (counters, thread
/// stats, hw counters, peak RSS) into `report` and writes it. The caller
/// fills identity, graph shape, config, and total_seconds.
void MaybeWriteReport(const ArgParser& args, obs::RunReport report) {
  const std::string path = args.GetString("report", "");
  if (path.empty()) return;
  report.CollectObservability();
  obs::WriteReportFile(report, path);
  std::printf("wrote %s\n", path.c_str());
}

int CmdGenerate(const ArgParser& args) {
  WallTimer timer;
  const std::string family = args.GetString("family", "kron");
  const std::string out = args.GetString("out", "graph.mtx");
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  EdgeList edges;
  vid_t n = 0;
  if (family == "urand") {
    n = static_cast<vid_t>(args.GetInt("n", 1 << 16));
    edges = GenUniformRandom(n, args.GetInt("m", 8LL * n), seed);
  } else if (family == "kron") {
    const int scale = static_cast<int>(args.GetInt("scale", 15));
    n = vid_t{1} << scale;
    edges = GenKronecker(scale, static_cast<int>(args.GetInt("ef", 16)), seed);
  } else if (family == "grid") {
    const auto rows = static_cast<vid_t>(args.GetInt("rows", 300));
    const auto cols = static_cast<vid_t>(args.GetInt("cols", 300));
    n = rows * cols;
    edges = GenGrid2d(rows, cols);
  } else if (family == "grid3d") {
    const auto side = static_cast<vid_t>(args.GetInt("side", 30));
    n = side * side * side;
    edges = GenGrid3d(side, side, side);
  } else if (family == "road") {
    const auto rows = static_cast<vid_t>(args.GetInt("rows", 300));
    const auto cols = static_cast<vid_t>(args.GetInt("cols", 300));
    n = rows * cols;
    edges = GenRoad(rows, cols, args.GetDouble("diag", 0.05), seed);
  } else if (family == "plate") {
    const auto rows = static_cast<vid_t>(args.GetInt("rows", 128));
    const auto cols = static_cast<vid_t>(args.GetInt("cols", 128));
    n = PlateNumVertices(rows, cols);
    edges = GenPlateWithHoles(rows, cols);
  } else if (family == "chain") {
    n = static_cast<vid_t>(args.GetInt("n", 1000));
    edges = GenChain(n);
  } else if (family == "ring") {
    n = static_cast<vid_t>(args.GetInt("n", 1000));
    edges = GenRing(n);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }

  const CsrGraph graph = BuildCsrGraph(n, edges);
  if (HasSuffix(out, ".bin")) {
    WriteBinaryFile(graph, out);
  } else {
    WriteMatrixMarketFile(graph, out);
  }
  std::printf("wrote %s: n=%d m=%lld\n", out.c_str(), graph.NumVertices(),
              static_cast<long long>(graph.NumEdges()));

  obs::RunReport report;
  report.tool = "parhde_cli generate";
  report.graph = "gen:" + family;
  report.algo = family;
  report.vertices = graph.NumVertices();
  report.edges = graph.NumEdges();
  report.config = {{"family", family},
                   {"seed", std::to_string(seed)},
                   {"out", out}};
  report.total_seconds = timer.Seconds();
  MaybeWriteReport(args, std::move(report));
  return 0;
}

int CmdStats(const ArgParser& args) {
  WallTimer timer;
  const CsrGraph graph = LoadGraph(args);
  const GapSummary gaps = ComputeGapSummary(graph);
  const auto diameter = PseudoDiameter(graph);

  TextTable table({"metric", "value"});
  table.AddRow({"vertices", TextTable::Int(graph.NumVertices())});
  table.AddRow({"edges", TextTable::Int(graph.NumEdges())});
  table.AddRow({"max degree", TextTable::Int(graph.MaxDegree())});
  table.AddRow({"avg degree",
                TextTable::Num(2.0 * static_cast<double>(graph.NumEdges()) /
                                   std::max<vid_t>(graph.NumVertices(), 1),
                               2)});
  table.AddRow({"pseudo-diameter", TextTable::Int(diameter)});
  table.AddRow({"mean adjacency gap", TextTable::Num(gaps.mean_gap, 1)});
  table.AddRow({"gaps within cache line",
                TextTable::Num(100.0 * gaps.cache_line_fraction, 1) + "%"});
  std::printf("%s", table.Render().c_str());

  obs::RunReport report;
  report.tool = "parhde_cli stats";
  report.graph = args.GetString("in", "");
  report.algo = "stats";
  report.vertices = graph.NumVertices();
  report.edges = graph.NumEdges();
  report.metrics.emplace_back("pseudo_diameter",
                              static_cast<double>(diameter));
  report.metrics.emplace_back("mean_adjacency_gap", gaps.mean_gap);
  report.metrics.emplace_back("cache_line_gap_fraction",
                              gaps.cache_line_fraction);
  report.total_seconds = timer.Seconds();
  MaybeWriteReport(args, std::move(report));
  return 0;
}

HdeOptions OptionsFromFlags(const ArgParser& args) {
  HdeOptions options;
  options.subspace_dim = static_cast<int>(args.GetInt("s", 10));
  options.num_axes = static_cast<int>(args.GetInt("axes", 2));
  options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  if (args.GetChoice("pivots", {"kcenters", "random"}, "kcenters") ==
      "random") {
    options.pivots = PivotStrategy::Random;
  }
  const std::string dortho =
      args.GetChoice("dortho", {"mgs", "cgs", "blocked"}, "mgs");
  if (dortho == "cgs") {
    options.gs_kind = GramSchmidtKind::Classical;
  } else if (dortho == "blocked") {
    options.gs_kind = GramSchmidtKind::Blocked;
  }
  options.gs_block = static_cast<int>(args.GetInt("gs-block", 8));
  if (options.gs_block < 1) {
    throw ParhdeError(ErrorCode::kInvalidValue, "cli",
                      "--gs-block must be a positive integer");
  }
  const auto spmm_block = static_cast<int>(args.GetInt("spmm-block", 0));
  if (spmm_block != 0 && spmm_block != 1 && spmm_block != 4 &&
      spmm_block != 8 && spmm_block != 16) {
    throw ParhdeError(ErrorCode::kInvalidValue, "cli",
                      "--spmm-block must be one of 0 (auto), 1, 4, 8, 16");
  }
  options.spmm_block = spmm_block;
  if (args.GetChoice("metric", {"degree", "unit"}, "degree") == "unit") {
    options.metric = OrthoMetric::Unweighted;
  }
  if (args.GetChoice("basis", {"b", "s"}, "b") == "s") {
    options.basis = CoordBasis::Subspace;
  }
  // --kernel selects the distance traversal; `parbfs` keeps the automatic
  // upgrade to the batched multi-source engine for random pivots with
  // s >= kMsBfsAutoThreshold, while `msbfs`/`serialbfs` force one engine.
  const std::string kernel = args.GetChoice(
      "kernel", {"parbfs", "serialbfs", "msbfs", "sssp"}, "parbfs");
  if (kernel == "serialbfs") {
    options.kernel = DistanceKernel::SerialBfs;
  } else if (kernel == "msbfs") {
    options.kernel = DistanceKernel::MultiSourceBfs;
  } else if (kernel == "sssp") {
    options.kernel = DistanceKernel::DeltaStepping;
  }
  // --delta overrides the Δ heuristic (average edge weight); --sssp-engine
  // pins the weighted random-pivot scheduling instead of the s-vs-threads
  // auto split.
  const double delta = args.GetDouble("delta", 0.0);
  if (delta < 0.0) {
    throw ParhdeError(ErrorCode::kInvalidValue, "cli",
                      "--delta must be positive");
  }
  options.sssp.delta = delta;
  const std::string engine = args.GetChoice(
      "sssp-engine", {"auto", "parallel", "concurrent"}, "auto");
  if (engine == "parallel") {
    options.sssp_engine = SsspEngine::Parallel;
  } else if (engine == "concurrent") {
    options.sssp_engine = SsspEngine::Concurrent;
  }
  // Resilience: --recovery selects strict (surface the first typed error)
  // or ladder (downgrade and retry); --phase-timeout gives each of the
  // three recoverable phases the same per-attempt budget.
  if (args.GetChoice("recovery", {"ladder", "strict"}, "ladder") == "strict") {
    options.resilience.recovery = resilience::RecoveryPolicy::Strict;
  }
  const double phase_timeout = args.GetDouble("phase-timeout", 0.0);
  if (phase_timeout < 0.0) {
    throw ParhdeError(ErrorCode::kInvalidValue, "cli",
                      "--phase-timeout must be positive");
  }
  options.resilience.distance_budget_seconds = phase_timeout;
  options.resilience.dortho_budget_seconds = phase_timeout;
  options.resilience.eigensolve_budget_seconds = phase_timeout;
  return options;
}

void EmitOutputs(const ArgParser& args, const CsrGraph& graph,
                 const Layout& layout) {
  const std::string coords = args.GetString("coords", "");
  if (!coords.empty()) {
    WriteCoordinatesFile(layout, coords);
    std::printf("wrote %s\n", coords.c_str());
  }
  const std::string png = args.GetString("png", "");
  const std::string svg = args.GetString("svg", "");
  if (!png.empty() || !svg.empty()) {
    const int size = static_cast<int>(args.GetInt("canvas", 800));
    const PixelLayout px = NormalizeToCanvas(layout, size, size);
    if (!png.empty()) {
      WritePngFile(DrawGraph(graph, px), png);
      std::printf("wrote %s\n", png.c_str());
    }
    if (!svg.empty()) {
      WriteSvgFile(graph, px, svg);
      std::printf("wrote %s\n", svg.c_str());
    }
  }
}

int CmdLayout(const ArgParser& args) {
  // Fresh registries so the report covers exactly this run.
  obs::ResetObservability();
  const std::string trace_path = args.GetString("trace", "");
  if (!trace_path.empty()) obs::Tracer::SetEnabled(true);

  const CsrGraph graph = LoadRawGraph(args);
  if (graph.NumVertices() == 0) {
    throw ParhdeError(ErrorCode::kTooSmall, "layout",
                      "input graph has no vertices");
  }
  const HdeOptions options = OptionsFromFlags(args);
  const std::string algo = args.GetChoice(
      "algo", {"parhde", "phde", "pivotmds", "prior", "multilevel"},
      "parhde");
  const std::string policy = args.GetChoice(
      "disconnected", {"pack", "largest", "reject"}, "largest");

  ComponentsLayoutOptions copts;
  copts.policy = policy == "pack"     ? DisconnectedPolicy::Pack
                 : policy == "reject" ? DisconnectedPolicy::Reject
                                      : DisconnectedPolicy::Largest;

  HdeDriver driver;
  if (algo == "parhde") {
    driver = HdeDriver(&RunParHde);
  } else if (algo == "phde") {
    driver = HdeDriver(&RunPhde);
  } else if (algo == "pivotmds") {
    driver = HdeDriver(&RunPivotMds);
  } else if (algo == "prior") {
    driver = HdeDriver(&RunPriorHde);
  } else {  // multilevel
    driver = [](const CsrGraph& g, const HdeOptions& o) {
      MultilevelOptions ml;
      ml.hde = o;
      MultilevelResult r = RunMultilevelHde(g, ml);
      HdeResult out;
      out.layout = std::move(r.layout);
      out.timings = r.timings;
      return out;
    };
  }

  // --timeout arms the whole-run deadline for the layout computation only
  // (loading already happened; report/render work is not under the gun).
  const double timeout = args.GetDouble("timeout", 0.0);
  if (timeout < 0.0) {
    throw ParhdeError(ErrorCode::kInvalidValue, "cli",
                      "--timeout must be positive");
  }
  WallTimer timer;
  std::optional<resilience::DeadlineGuard> run_deadline;
  if (timeout > 0.0) run_deadline.emplace("run", timeout);
  const ComponentsLayoutResult res =
      RunHdeOnComponents(graph, options, copts, driver);
  run_deadline.reset();
  const double total_seconds = timer.Seconds();
  // The layout indexes the largest component when that policy dropped
  // vertices; every downstream consumer must use the matching graph.
  const CsrGraph& laid =
      res.used_subgraph ? res.subgraph.graph : graph;
  std::printf("loaded %s: n=%d m=%lld (%d component%s, policy=%s)\n",
              args.GetString("in", "").c_str(), laid.NumVertices(),
              static_cast<long long>(laid.NumEdges()),
              res.num_components, res.num_components == 1 ? "" : "s",
              policy.c_str());

  // One RunReport backs both the human summary and --report JSON, so the
  // two outputs cannot disagree.
  obs::RunReport report;
  report.tool = "parhde_cli layout";
  report.graph = args.GetString("in", "");
  report.algo = algo;
  report.vertices = laid.NumVertices();
  report.edges = laid.NumEdges();
  report.components = res.num_components;
  report.config = {
      {"algo", algo},
      {"s", std::to_string(options.subspace_dim)},
      {"axes", std::to_string(options.num_axes)},
      {"pivots", args.GetString("pivots", "kcenters")},
      {"dortho", options.gs_kind == GramSchmidtKind::Blocked    ? "blocked"
                 : options.gs_kind == GramSchmidtKind::Classical ? "cgs"
                                                                 : "mgs"},
      {"gs_block", std::to_string(options.gs_block)},
      {"spmm_block", std::to_string(options.spmm_block)},
      {"metric", args.GetString("metric", "degree")},
      {"basis", args.GetString("basis", "b")},
      {"kernel", args.GetString("kernel", "parbfs")},
      {"delta", std::to_string(options.sssp.delta)},
      {"sssp_engine", args.GetString("sssp-engine", "auto")},
      {"disconnected", policy},
      {"seed", std::to_string(options.seed)},
      {"recovery", args.GetString("recovery", "ladder")},
      {"timeout", std::to_string(timeout)},
      {"phase_timeout", args.GetString("phase-timeout", "0")},
      {"hw_counters", obs::HwCounterModeName(obs::HwCountersMode())},
  };
  if (resilience::FaultPlanActive()) {
    report.config.emplace_back("fault_plan",
                               args.GetString("fault-plan", "(env)"));
  }
  report.total_seconds = total_seconds;
  report.timings = res.hde.timings;
  report.metrics.emplace_back(
      "edge_length_energy", NormalizedEdgeLengthEnergy(laid, res.hde.layout));
  // The requested subspace dimension is in config["s"]; the k-centers
  // phase may stop early at saturation (every reachable vertex already a
  // pivot), so the count actually used is a separate, observed metric.
  report.metrics.emplace_back("effective_pivots",
                              static_cast<double>(res.hde.pivots.size()));
  report.CollectObservability();

  std::printf("%s", obs::ReportToText(report).c_str());
  if (res.hde.components.size() > 1) {
    for (std::size_t c = 0; c < res.hde.components.size(); ++c) {
      const ComponentStat& st = res.hde.components[c];
      std::printf(
          "  component %zu: n=%d m=%lld box=[%.3g,%.3g]x[%.3g,%.3g]\n", c,
          st.vertices, static_cast<long long>(st.edges), st.min_x, st.max_x,
          st.min_y, st.max_y);
    }
  }

  const std::string report_path = args.GetString("report", "");
  if (!report_path.empty()) {
    obs::WriteReportFile(report, report_path);
    std::printf("wrote %s\n", report_path.c_str());
  }
  if (!trace_path.empty()) {
    obs::Tracer::SetEnabled(false);
    obs::Tracer::WriteJsonFile(trace_path);
    std::printf("wrote %s (%lld events, %lld dropped)\n", trace_path.c_str(),
                static_cast<long long>(obs::Tracer::EventCount()),
                static_cast<long long>(obs::Tracer::DroppedCount()));
  }

  EmitOutputs(args, laid, res.hde.layout);
  return 0;
}

int CmdPartition(const ArgParser& args) {
  WallTimer timer;
  const CsrGraph graph = LoadGraph(args);
  const int parts = static_cast<int>(args.GetInt("parts", 4));

  obs::RunReport report;
  report.tool = "parhde_cli partition";
  report.graph = args.GetString("in", "");
  report.algo = "partition";
  report.vertices = graph.NumVertices();
  report.edges = graph.NumEdges();
  report.config = {{"parts", std::to_string(parts)},
                   {"refine", args.Has("refine") ? "true" : "false"}};

  const HdeResult hde = RunParHde(graph, OptionsFromFlags(args));
  std::vector<int> labels = CoordinateBisection(hde.layout, parts);
  const auto cut = EdgeCut(graph, labels);
  std::printf("geometric partition: cut=%lld boundary=%d\n",
              static_cast<long long>(cut), BoundarySize(graph, labels));
  report.timings = hde.timings;
  report.metrics.emplace_back("edge_cut", static_cast<double>(cut));

  if (args.Has("refine")) {
    const RefinePartitionResult r = RefinePartition(graph, labels, parts);
    std::printf("after refinement:    cut=%lld (moves=%d, passes=%d)\n",
                static_cast<long long>(r.final_cut), r.moves, r.passes);
    report.metrics.emplace_back("refined_cut",
                                static_cast<double>(r.final_cut));
  }

  const std::string svg = args.GetString("svg", "");
  if (!svg.empty()) {
    const int size = static_cast<int>(args.GetInt("canvas", 800));
    const PixelLayout px = NormalizeToCanvas(hde.layout, size, size);
    std::vector<Rgb> colors;
    for (vid_t v = 0; v < graph.NumVertices(); ++v) {
      for (const vid_t u : graph.Neighbors(v)) {
        if (u <= v) continue;
        const int lv = labels[static_cast<std::size_t>(v)];
        const int lu = labels[static_cast<std::size_t>(u)];
        colors.push_back(lv == lu ? PartColor(lv) : color::kRed);
      }
    }
    WriteSvgFile(graph, px, svg, {}, colors);
    std::printf("wrote %s\n", svg.c_str());
  }
  report.total_seconds = timer.Seconds();
  MaybeWriteReport(args, std::move(report));
  return 0;
}

int CmdDraw(const ArgParser& args) {
  WallTimer timer;
  const CsrGraph graph = LoadGraph(args);
  const std::string coords = args.GetString("coords", "");
  if (coords.empty()) {
    std::fprintf(stderr, "draw requires --coords=<file.xy>\n");
    return 2;
  }
  const Layout layout = ReadCoordinatesFile(coords);
  if (layout.x.size() != static_cast<std::size_t>(graph.NumVertices())) {
    std::fprintf(stderr,
                 "coordinate count (%zu) does not match graph vertices (%d)\n",
                 layout.x.size(), graph.NumVertices());
    return 1;
  }
  const int size = static_cast<int>(args.GetInt("canvas", 800));
  const PixelLayout px = NormalizeToCanvas(layout, size, size);
  const std::string png = args.GetString("png", "");
  const std::string svg = args.GetString("svg", "");
  if (png.empty() && svg.empty()) {
    std::fprintf(stderr, "draw requires --png and/or --svg\n");
    return 2;
  }
  if (!png.empty()) {
    WritePngFile(
        DrawGraph(graph, px, nullptr, nullptr, false, args.Has("aa")), png);
    std::printf("wrote %s\n", png.c_str());
  }
  if (!svg.empty()) {
    WriteSvgFile(graph, px, svg);
    std::printf("wrote %s\n", svg.c_str());
  }

  obs::RunReport report;
  report.tool = "parhde_cli draw";
  report.graph = args.GetString("in", "");
  report.algo = "draw";
  report.vertices = graph.NumVertices();
  report.edges = graph.NumEdges();
  report.config = {{"canvas", std::to_string(size)},
                   {"aa", args.Has("aa") ? "true" : "false"}};
  report.total_seconds = timer.Seconds();
  MaybeWriteReport(args, std::move(report));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  parhde::ArgParser args(argc - 1, argv + 1);
  try {
    if (args.Has("threads")) {
      const auto threads = static_cast<int>(args.GetInt("threads", 0));
      if (threads < 1) {
        throw parhde::ParhdeError(parhde::ErrorCode::kInvalidValue, "cli",
                                  "--threads must be a positive integer");
      }
      omp_set_num_threads(threads);
    }
    // Hardware counters: enabled before dispatch so every subcommand's
    // ScopedRegionTimer regions get counter attribution. A bare
    // --hw-counters means --hw-counters=phase. On denied hosts the run
    // proceeds with a warning and the report records hw.available=false —
    // never a hard failure.
    if (args.Has("hw-counters")) {
      std::string mode_name = args.GetString("hw-counters", "off");
      if (mode_name.empty()) mode_name = "phase";
      parhde::obs::HwCounterMode mode;
      if (mode_name == "off") {
        mode = parhde::obs::HwCounterMode::kOff;
      } else if (mode_name == "phase") {
        mode = parhde::obs::HwCounterMode::kPhase;
      } else if (mode_name == "thread") {
        mode = parhde::obs::HwCounterMode::kThread;
      } else {
        throw parhde::ParhdeError(
            parhde::ErrorCode::kUsage, "cli",
            "--hw-counters must be off, phase, or thread (got '" + mode_name +
                "')");
      }
      if (!parhde::obs::EnableHwCounters(mode) &&
          mode != parhde::obs::HwCounterMode::kOff) {
        std::fprintf(stderr, "warning: hw counters unavailable: %s\n",
                     parhde::obs::HwCountersUnavailableReason().c_str());
      }
    }
    // Fault plan: --fault-plan wins; PARHDE_FAULT_PLAN is the env fallback.
    // Loading before dispatch means every subcommand honors it.
    std::string fault_plan = args.GetString("fault-plan", "");
    if (fault_plan.empty()) {
      if (const char* env = std::getenv("PARHDE_FAULT_PLAN")) fault_plan = env;
    }
    if (!fault_plan.empty()) {
      if (!parhde::resilience::kFaultInjectionCompiled) {
        throw parhde::ParhdeError(
            parhde::ErrorCode::kUsage, "cli",
            "fault plan given but this binary was built without "
            "-DPARHDE_FAULT_INJECTION=ON");
      }
      parhde::resilience::LoadFaultPlan(fault_plan);
    }
    if (command == "generate") return CmdGenerate(args);
    if (command == "stats") return CmdStats(args);
    if (command == "layout") return CmdLayout(args);
    if (command == "partition") return CmdPartition(args);
    if (command == "draw") return CmdDraw(args);
  } catch (const parhde::ParhdeError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return parhde::ExitCodeFor(e.code());
  } catch (const std::bad_alloc&) {
    // Allocation failure anywhere in a run maps to the documented
    // resource-exhaustion exit code, not a generic internal error.
    std::fprintf(stderr, "error: out of memory\n");
    return parhde::ExitCodeFor(parhde::ErrorCode::kResourceExhausted);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
