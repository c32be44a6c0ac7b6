// Edge-list → CSR assembly with the paper's preprocessing semantics (§4.1):
// drop self loops, merge parallel edges, ignore direction (symmetrize).
#pragma once

#include "graph/csr_graph.hpp"

namespace parhde {

/// Options controlling edge-list cleanup during CSR assembly.
struct BuildOptions {
  /// Keep the weight array. When false the result is unweighted even if the
  /// edge list carried weights.
  bool keep_weights = false;

  /// How to merge the weights of parallel edges (ignored when unweighted).
  /// Duplicates merge in ascending weight order, so a Sum is the same at
  /// any thread count.
  enum class MergePolicy { Sum, Min, Max } merge = MergePolicy::Sum;
};

/// Builds a clean undirected CSR graph from an arbitrary edge list.
///
/// `n` is the vertex-id domain size; every edge endpoint must be in [0, n).
/// Self loops are dropped; duplicate {u,v} pairs (in either orientation)
/// are merged according to `opts.merge`. Runs the counting, placement, and
/// per-vertex sort/dedupe steps in parallel.
CsrGraph BuildCsrGraph(vid_t n, const EdgeList& edges,
                       const BuildOptions& opts = {});

}  // namespace parhde
