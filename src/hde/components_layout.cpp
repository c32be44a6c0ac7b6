#include "hde/components_layout.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "draw/layout.hpp"
#include "obs/phase.hpp"
#include "util/status.hpp"

namespace parhde {
namespace {

ComponentStat StatFor(const CsrGraph& graph, const BoundingBox& box) {
  ComponentStat stat;
  stat.vertices = graph.NumVertices();
  stat.edges = graph.NumEdges();
  stat.min_x = box.min_x;
  stat.max_x = box.max_x;
  stat.min_y = box.min_y;
  stat.max_y = box.max_y;
  return stat;
}

void MergeBfsStats(BfsStats& into, const BfsStats& other) {
  into.levels += other.levels;
  into.top_down_steps += other.top_down_steps;
  into.serial_steps += other.serial_steps;
  into.bottom_up_steps += other.bottom_up_steps;
  into.edges_examined += other.edges_examined;
}

}  // namespace

ComponentsLayoutResult RunHdeOnComponents(const CsrGraph& graph,
                                          const HdeOptions& options,
                                          const ComponentsLayoutOptions& copts,
                                          const HdeDriver& driver) {
  const HdeDriver run = driver ? driver : HdeDriver(&RunParHde);
  const vid_t n = graph.NumVertices();

  ComponentsLayoutResult result;
  // The Components phase: the label pass, the census, extraction and
  // packing, never the sub-runs. Merged after the sub-runs' phases.
  PhaseTimings components;
  std::vector<vid_t> labels;
  {
    obs::Phase label_pass(components, phase::kComponents);
    labels = ConnectedComponents(graph);
    result.num_components = CountComponents(labels);
  }
  const bool disconnected = result.num_components > 1;

  if (disconnected && copts.policy == DisconnectedPolicy::Reject) {
    throw ParhdeError(
        ErrorCode::kDisconnected, phase::kComponents,
        "graph has " + std::to_string(result.num_components) +
            " connected components; rerun with --disconnected=pack or "
            "--disconnected=largest");
  }

  // Component census: size per canonical label, processed largest-first
  // (ties toward the smaller label) so both the Largest policy and the
  // shelf packing below are deterministic.
  struct Comp {
    vid_t label;
    vid_t size;
  };
  std::vector<Comp> comps;
  if (disconnected) {
    obs::Phase census(components, phase::kComponents);
    std::unordered_map<vid_t, vid_t> size_of;
    for (const vid_t l : labels) ++size_of[l];
    comps.reserve(size_of.size());
    for (const auto& [label, size] : size_of) comps.push_back({label, size});
    std::sort(comps.begin(), comps.end(), [](const Comp& a, const Comp& b) {
      return a.size != b.size ? a.size > b.size : a.label < b.label;
    });
    if (copts.policy == DisconnectedPolicy::Largest) {
      result.used_subgraph = true;
      result.subgraph = ExtractComponent(graph, labels, comps.front().label);
    }
  }

  if (!disconnected || result.used_subgraph) {
    const CsrGraph& laid = result.used_subgraph ? result.subgraph.graph : graph;
    result.hde = run(laid, options);
    result.hde.components.assign(
        1, StatFor(laid, ComputeBoundingBox(result.hde.layout)));
    result.hde.timings.Merge(components);
    return result;
  }

  // ---- Pack: independent layouts shelf-packed into a grid. Cell sides
  // scale with sqrt(|V_c|) so drawing area tracks component size; the pad
  // keeps every pair of bounding boxes strictly disjoint. The packed
  // coordinates are mirrored into the axes matrix so downstream consumers
  // that read axes instead of layout see the same picture. ----
  const double pad = std::max(copts.pad, 1e-3);
  std::vector<double> sides(comps.size());
  double shelf_width = 0.0;
  {
    obs::Phase pack(components, phase::kComponents);
    double area = 0.0;
    double max_side = 0.0;
    for (std::size_t i = 0; i < comps.size(); ++i) {
      sides[i] = std::max(1.0, std::sqrt(static_cast<double>(comps[i].size)));
      area += (sides[i] + pad) * (sides[i] + pad);
      max_side = std::max(max_side, sides[i]);
    }
    shelf_width = std::max(max_side, 1.1 * std::sqrt(area));

    result.hde.layout.x.assign(static_cast<std::size_t>(n), 0.0);
    result.hde.layout.y.assign(static_cast<std::size_t>(n), 0.0);
    result.hde.axes = DenseMatrix(static_cast<std::size_t>(n), 2);
    result.hde.components.reserve(comps.size());
  }

  double cur_x = 0.0;
  double cur_y = 0.0;
  double row_height = 0.0;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const ComponentExtraction part = [&] {
      obs::Phase extract(components, phase::kComponents);
      return ExtractComponent(graph, labels, comps[i].label);
    }();

    const HdeResult sub = run(part.graph, options);

    obs::Phase pack(components, phase::kComponents);
    const double side = sides[i];
    if (cur_x > 0.0 && cur_x + side > shelf_width) {
      cur_x = 0.0;
      cur_y += row_height + pad;
      row_height = 0.0;
    }
    const double cell_x = cur_x;
    const double cell_y = cur_y;
    row_height = std::max(row_height, side);
    cur_x += side + pad;

    // Fit the component's layout into its [cell, cell+side]^2 cell,
    // preserving aspect and centering the slack. Zero-extent layouts
    // (singletons, collinear degenerate cases) land at the cell center.
    const BoundingBox box = ComputeBoundingBox(sub.layout);
    const double extent = std::max(box.Width(), box.Height());
    const double scale = extent > 0.0 ? side / extent : 0.0;
    const double off_x = cell_x + (side - box.Width() * scale) / 2.0;
    const double off_y = cell_y + (side - box.Height() * scale) / 2.0;
    Layout placed;
    placed.x.reserve(part.new_to_old.size());
    placed.y.reserve(part.new_to_old.size());
    for (std::size_t v = 0; v < part.new_to_old.size(); ++v) {
      const auto old_v = static_cast<std::size_t>(part.new_to_old[v]);
      placed.x.push_back(off_x + (sub.layout.x[v] - box.min_x) * scale);
      placed.y.push_back(off_y + (sub.layout.y[v] - box.min_y) * scale);
      result.hde.layout.x[old_v] = result.hde.axes.At(old_v, 0) = placed.x[v];
      result.hde.layout.y[old_v] = result.hde.axes.At(old_v, 1) = placed.y[v];
    }

    // Bookkeeping: stats in packed coordinates, pivots in input-graph ids,
    // phase timings summed across components. The eigen data of the
    // largest component (processed first) represents the run.
    result.hde.components.push_back(
        StatFor(part.graph, ComputeBoundingBox(placed)));
    for (const vid_t p : sub.pivots) {
      result.hde.pivots.push_back(part.new_to_old[static_cast<std::size_t>(p)]);
    }
    result.hde.timings.Merge(sub.timings);
    MergeBfsStats(result.hde.bfs_stats, sub.bfs_stats);
    if (i == 0) {
      result.hde.kept_columns = sub.kept_columns;
      result.hde.axis_eigenvalue[0] = sub.axis_eigenvalue[0];
      result.hde.axis_eigenvalue[1] = sub.axis_eigenvalue[1];
      result.hde.eigenvalues = sub.eigenvalues;
    }
  }
  result.hde.timings.Merge(components);
  return result;
}

}  // namespace parhde
