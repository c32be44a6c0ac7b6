// Parallel level-synchronous BFS kernel (§3.1).
//
// The default is the direction-optimizing BFS of Beamer et al. as shipped in
// the GAP Benchmark Suite, modified as the paper describes to record hop
// distances only. A vertex is claimed by the one write of its distance:
// compare-and-swap on dist in a parallel top-down step, plain stores in a
// serial one, single-writer ownership in bottom-up. No parent array exists.
//
// The engine adapts per level. The alpha/beta heuristic first picks
// top-down or bottom-up; a top-down level whose frontier has few out-arcs
// then runs as a serial queue step with no team and no atomics, which is
// what keeps high-diameter graphs (thousands of tiny levels) at serial-BFS
// speed. Each step also sums the out-degrees of the frontier it builds, the
// m_f term the heuristic reads next.
//
// Pure top-down and pure bottom-up modes are exposed for the ablation
// benchmarks and tests.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"

namespace parhde {

/// Direction-switch heuristics; defaults follow GAP (alpha=15, beta=18).
struct BfsOptions {
  /// Switch top-down -> bottom-up when frontier out-edges exceed
  /// (unexplored edges) / alpha.
  double alpha = 15.0;
  /// Switch bottom-up -> top-down when frontier size drops below n / beta.
  double beta = 18.0;
  /// Force a single strategy (for ablation); Auto is direction-optimizing.
  enum class Mode { Auto, TopDownOnly, BottomUpOnly } mode = Mode::Auto;
};

/// Counters for the traversal analysis in Fig. 5 (middle).
struct BfsStats {
  std::int64_t levels = 0;
  std::int64_t top_down_steps = 0;  // serial steps included
  std::int64_t serial_steps = 0;    // top-down steps run on one thread
  std::int64_t bottom_up_steps = 0;
  std::int64_t edges_examined = 0;  // arcs touched across all steps
};

/// Result of one BFS: distances (kInfDist if unreachable) and step
/// statistics.
struct BfsResult {
  std::vector<dist_t> dist;
  BfsStats stats;
};

/// Runs a parallel BFS from `source`.
BfsResult ParallelBfs(const CsrGraph& graph, vid_t source,
                      const BfsOptions& options = {});

/// Distances only, for callers that do not read the step statistics.
std::vector<dist_t> ParallelBfsDistances(const CsrGraph& graph, vid_t source,
                                         const BfsOptions& options = {});

}  // namespace parhde
