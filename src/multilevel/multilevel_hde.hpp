// Multilevel ParHDE — the paper's future-work direction (§5) and the
// setting of its prior work [27, 33]: coarsen with heavy-edge matching
// until the graph is small, lay out the coarsest graph with ParHDE, then
// prolong the coordinates level by level, smoothing with weighted-centroid
// sweeps (the same lazy-walk refinement used by the §4.5.3 extension).
#pragma once

#include "hde/parhde.hpp"
#include "multilevel/coarsen.hpp"

namespace parhde {

struct MultilevelOptions {
  /// Stop coarsening when the graph has this few vertices...
  vid_t coarsest_size = 256;
  /// ...or when one contraction shrinks the vertex count by less than this
  /// factor (matching stalls on star-like graphs).
  double min_shrink = 0.9;
  /// Safety cap on hierarchy depth.
  int max_levels = 40;
  /// Weighted-centroid smoothing sweeps after each prolongation.
  int smoothing_sweeps = 3;
  /// ParHDE settings for the coarsest-level solve.
  HdeOptions hde;
};

struct MultilevelResult {
  Layout layout;            // for the original (finest) graph
  int levels = 0;           // contractions performed
  vid_t coarsest_vertices = 0;
  HdeResult coarse_hde;     // the coarsest-level solve, for inspection
  /// "Coarsen", "CoarseSolve" (its glue) and "Prolong", plus the coarse
  /// solve's own ParHDE phases.
  PhaseTimings timings;
};

/// Runs multilevel ParHDE on a connected graph (n >= 3).
MultilevelResult RunMultilevelHde(const CsrGraph& graph,
                                  const MultilevelOptions& options = {});

}  // namespace parhde
