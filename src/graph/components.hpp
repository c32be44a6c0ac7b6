// Connected components and the paper's largest-component extraction (§4.1):
// remove vertices outside the largest component and renumber contiguously
// while preserving the original implied ordering.
#pragma once

#include "graph/csr_graph.hpp"

namespace parhde {

/// Component label per vertex. Labels are the smallest vertex id in the
/// component, so they are canonical and deterministic.
std::vector<vid_t> ConnectedComponents(const CsrGraph& graph);

/// Number of distinct components given labels from ConnectedComponents.
vid_t CountComponents(const std::vector<vid_t>& labels);

/// Result of extracting the largest connected component.
struct ComponentExtraction {
  CsrGraph graph;                 // the induced subgraph, ids renumbered
  std::vector<vid_t> old_to_new;  // kInvalidVid for removed vertices
  std::vector<vid_t> new_to_old;  // size = extracted n
};

/// Extracts the induced subgraph of the vertices carrying `label` (as
/// produced by ConnectedComponents; any labeling works, edges to other
/// labels are dropped). New ids are assigned in increasing old-id order,
/// preserving relative vertex order. A label with no members yields an
/// empty graph. The result equals BuildCsrGraph of the filtered, renumbered
/// edge list, but is filtered out of `graph`'s CSR without a rebuild.
ComponentExtraction ExtractComponent(const CsrGraph& graph,
                                     const std::vector<vid_t>& labels,
                                     vid_t label);

/// Extracts the largest connected component (ties broken toward the
/// component with the smallest canonical label). New ids are assigned in
/// increasing old-id order, preserving relative vertex order as the paper
/// requires for its locality analysis.
ComponentExtraction LargestComponent(const CsrGraph& graph);

/// True if the whole graph is one connected component (n == 0 counts as
/// connected).
bool IsConnected(const CsrGraph& graph);

}  // namespace parhde
