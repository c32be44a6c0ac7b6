// Disconnected-graph driver: HDE assumes a connected graph (unreachable
// distances distort the embedding), so this layer decides what to do when
// the input has more than one connected component.
//
//   * Pack (default for the CLI's --disconnected=pack): lay out every
//     component independently with the wrapped HDE driver, then shelf-pack
//     the per-component bounding boxes into a grid whose cell sides scale
//     with sqrt(component size). Components never overlap, singletons cost
//     O(1), and HdeResult::components reports each box.
//   * Largest: the paper's preprocessing (§4.1) — extract the largest
//     component, lay out only that, and report the extraction so callers
//     can map coordinates back to original vertex ids.
//   * Reject: refuse disconnected inputs with a typed kDisconnected error
//     (for pipelines that treat disconnection as data corruption).
#pragma once

#include <functional>

#include "graph/components.hpp"
#include "graph/csr_graph.hpp"
#include "hde/parhde.hpp"

namespace parhde {

/// What RunHdeOnComponents does with a disconnected input.
enum class DisconnectedPolicy {
  Pack,     // lay out every component, pack boxes into a grid
  Largest,  // extract + lay out only the largest component
  Reject,   // throw ParhdeError(kDisconnected)
};

struct ComponentsLayoutOptions {
  DisconnectedPolicy policy = DisconnectedPolicy::Pack;
  /// Gap between packed component cells, in cell units (cell sides are
  /// sqrt(component size), so 0.5 is half a singleton cell). Must be > 0
  /// for the non-overlap guarantee.
  double pad = 0.5;
};

/// Signature of the per-component layout engine: any of RunParHde, RunPhde,
/// RunPivotMds, RunPriorHde, or an adapter around RunMultilevelHde.
using HdeDriver = std::function<HdeResult(const CsrGraph&, const HdeOptions&)>;

/// Result of the disconnected-aware layout. When `used_subgraph` is true
/// (Largest policy on a disconnected input), `hde.layout` indexes the
/// vertices of `subgraph.graph`; `subgraph.new_to_old` maps them back.
/// Otherwise `hde.layout` indexes the input graph directly.
struct ComponentsLayoutResult {
  HdeResult hde;
  vid_t num_components = 1;
  bool used_subgraph = false;
  ComponentExtraction subgraph;  // populated iff used_subgraph
};

/// Lays out a possibly disconnected graph. Connected inputs (including
/// n < 3) go straight to `driver`, with a single ComponentStat recorded.
/// Disconnected inputs follow `copts.policy`. Pivot ids in the result are
/// remapped to input-graph ids (Pack) or left in subgraph ids (Largest,
/// where `subgraph` carries the mapping). Per-component phase timings are
/// merged phase-wise; the label pass, census, extraction and packing are
/// booked under "Components" for every policy.
/// Throws ParhdeError(kDisconnected) under the Reject policy, and
/// propagates any ParhdeError from the wrapped driver.
ComponentsLayoutResult RunHdeOnComponents(const CsrGraph& graph,
                                          const HdeOptions& options = {},
                                          const ComponentsLayoutOptions& copts = {},
                                          const HdeDriver& driver = {});

}  // namespace parhde
