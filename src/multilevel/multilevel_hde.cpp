#include "multilevel/multilevel_hde.hpp"

#include "hde/refine.hpp"
#include "multilevel/matching.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace parhde {

MultilevelResult RunMultilevelHde(const CsrGraph& graph,
                                  const MultilevelOptions& options) {
  PARHDE_TRACE_SPAN("hde.multilevel");
  if (graph.NumVertices() < 3) {
    // Too small for a distance subspace: skip the hierarchy and return the
    // coarse solver's trivial finite layout directly.
    MultilevelResult tiny;
    tiny.coarsest_vertices = graph.NumVertices();
    tiny.coarse_hde = RunParHde(graph, options.hde);
    tiny.layout = tiny.coarse_hde.layout;
    return tiny;
  }
  MultilevelResult result;

  // ---- Coarsening: build the hierarchy. ----
  std::vector<CoarseLevel> hierarchy;
  {
    obs::Phase coarsen(result.timings, "Coarsen");
    const CsrGraph* current = &graph;
    std::vector<double> weights;  // empty = unit masses at the finest level
    while (static_cast<int>(hierarchy.size()) < options.max_levels &&
           current->NumVertices() > options.coarsest_size) {
      const std::vector<vid_t> match = HeavyEdgeMatching(*current);
      CoarseLevel level = Contract(*current, match, weights);
      if (level.graph.NumVertices() >=
          static_cast<vid_t>(options.min_shrink * current->NumVertices())) {
        break;  // matching stalled; deeper levels would not help
      }
      hierarchy.push_back(std::move(level));
      current = &hierarchy.back().graph;
      weights = hierarchy.back().vertex_weight;
    }
  }
  result.levels = static_cast<int>(hierarchy.size());
  const CsrGraph& coarsest =
      hierarchy.empty() ? graph : hierarchy.back().graph;
  result.coarsest_vertices = coarsest.NumVertices();

  // ---- Coarsest solve with ParHDE. Coarse graphs carry merged edge
  // weights, which the D-orthogonalization uses as similarities. Its
  // phases nest inside CoarseSolve, which keeps only the glue around them;
  // merging them makes this result's phases cover the whole run. ----
  {
    obs::Phase coarse_solve(result.timings, "CoarseSolve");
    HdeOptions hde = options.hde;
    hde.subspace_dim =
        std::min<int>(hde.subspace_dim,
                      std::max<int>(2, coarsest.NumVertices() / 4));
    result.coarse_hde = RunParHde(coarsest, hde);
  }
  result.timings.Merge(result.coarse_hde.timings);

  // ---- Prolongation: push coordinates down the hierarchy, smoothing each
  // level with weighted-centroid sweeps. ----
  {
    obs::Phase prolong(result.timings, "Prolong");
    Layout coords = result.coarse_hde.layout;
    for (int l = result.levels - 1; l >= 0; --l) {
      const CoarseLevel& level = hierarchy[static_cast<std::size_t>(l)];
      const CsrGraph& finer =
          l == 0 ? graph : hierarchy[static_cast<std::size_t>(l) - 1].graph;
      Layout fine;
      const auto fine_n = level.fine_to_coarse.size();
      fine.x.resize(fine_n);
      fine.y.resize(fine_n);
      for (std::size_t v = 0; v < fine_n; ++v) {
        const auto cv = static_cast<std::size_t>(level.fine_to_coarse[v]);
        fine.x[v] = coords.x[cv];
        fine.y[v] = coords.y[cv];
      }
      if (options.smoothing_sweeps > 0) {
        WeightedCentroidRefine(finer, fine, options.smoothing_sweeps);
      }
      coords = std::move(fine);
    }
    result.layout = std::move(coords);
  }
  return result;
}

}  // namespace parhde
