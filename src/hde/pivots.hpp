// Pivot selection and the BFS phase shared by ParHDE, PHDE, and PivotMDS.
//
// The k-centers strategy interleaves selection with traversal: after each
// search, d(j) = min(d(j), b_i(j)) is updated in parallel and the farthest
// vertex becomes the next source (Alg. 1 lines 13-15; counted as the
// "BFS: Other" time in Table 1 and Fig. 5 middle). The random strategy
// draws all pivots up front and runs the searches concurrently: the batched
// multi-source BFS engine (bfs/ms_bfs.hpp) when s >= kMsBfsAutoThreshold or
// DistanceKernel::MultiSourceBfs is requested, otherwise one serial BFS per
// thread (§4.4, Table 6). The weighted kernel mirrors that split with its
// own engine pair (SsspEngine): one parallel Δ-stepping search at a time,
// or one sequential Δ-stepping per thread (sssp/multi_sssp.hpp) when s
// reaches the thread count.
#pragma once

#include "hde/parhde.hpp"

namespace parhde {

/// Output of the distance phase: the n x s column-major distance matrix and
/// bookkeeping for the phase-breakdown figures.
struct DistancePhase {
  DenseMatrix B;               // n x s, column i = distances from pivot i
  std::vector<vid_t> pivots;   // selection order
  BfsStats stats;              // aggregate over all searches
  PhaseTimings timings;        // BFS:Other (k-centers selection) phases
};

/// Runs the full distance phase per `options` (strategy x kernel).
DistancePhase RunDistancePhase(const CsrGraph& graph,
                               const HdeOptions& options);

/// The BFS phase of a driver: RunDistancePhase wrapped in the distance
/// recovery ladder, inside one obs::Phase(kBfs). Each attempt runs under
/// the per-phase deadline budget and its B matrix is checked finite; on a
/// retryable failure (kNumerical / kNoConvergence / kDeadlineExceeded)
/// under RecoveryPolicy::Ladder the kernel is downgraded — MS-BFS to
/// direction-optimizing BFS, concurrent Δ-stepping to parallel Δ-stepping
/// to serial Dijkstra — and the phase rerun. Every attempt is recorded in
/// the recovery log. Books BFS and BFS:Other into result.timings, fills
/// result.pivots and result.bfs_stats, and returns B. The shared BFS-phase
/// entry point of the ParHDE, PHDE, and PivotMDS drivers.
DenseMatrix RunDistancePhaseWithRecovery(const CsrGraph& graph,
                                         const HdeOptions& options,
                                         HdeResult& result);

/// `count` distinct pivots drawn uniformly without repetition.
std::vector<vid_t> RandomPivots(vid_t n, int count, std::uint64_t seed);

}  // namespace parhde
