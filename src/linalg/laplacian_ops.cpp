#include "linalg/laplacian_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <limits>

#include "obs/counters.hpp"
#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Vertex-chunk width of the SpMM kernels' parallel blocks: small enough
/// that a chunk's CSR slice plus its output columns stay L2-resident while
/// the tile gathers stream through.
constexpr std::int64_t kSpmmVertexChunk = 2048;

/// Vertices per block for the single-vector and explicit-matrix kernels.
constexpr std::int64_t kVertexGrain = 1024;

/// Fold-expression lane helpers: fully unroll the CB-wide updates so the
/// accumulators stay in vector registers across the whole neighbor loop.
/// A runtime `for (c = 0; c < CB; ++c)` body compiles (at the project's
/// -O2) to an *inner loop* that spills acc[] to the stack and reloads it
/// once per edge — the spill traffic and loop control cost more than the
/// gather being amortized. The unrolled straight-line form SLP-vectorizes.
template <std::size_t... I>
inline void LanesInit(double* acc, const double* self, double dv,
                      std::index_sequence<I...>) {
  ((acc[I] = dv * self[I]), ...);
}
template <std::size_t... I>
inline void LanesSub(double* acc, const double* nb,
                     std::index_sequence<I...>) {
  ((acc[I] -= nb[I]), ...);
}
template <std::size_t... I>
inline void LanesSubWeighted(double* acc, const double* nb, double w,
                             std::index_sequence<I...>) {
  ((acc[I] -= w * nb[I]), ...);
}
template <std::size_t... I>
inline void LanesStore(double* const* y, const double* acc, std::size_t vi,
                       std::index_sequence<I...>) {
  ((y[I][vi] = acc[I]), ...);
}

/// Edge look-ahead for the blocked kernel's tile gathers. The CSR
/// adjacency is contiguous across vertices, so the gather address
/// `kSpmmPrefetchDist` edges ahead is known while the current edge is
/// still in flight — far enough to cover an L3 hit, near enough that the
/// prefetched line is still resident when its edge arrives.
constexpr std::size_t kSpmmPrefetchDist = 16;

inline void PrefetchRead(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Compile-time-width micro-kernel over the packed row-major tile: rows
/// [lo, hi) of the output for CB columns. `tile` holds the block's S values
/// vertex-contiguous (row v is the CB-vector S(v, b..b+CB)), so each
/// neighbor gather reads CB consecutive doubles — one or two cache lines —
/// instead of CB lines scattered across CB separate column arrays. That
/// packing is what makes blocking pay: without it each edge still costs CB
/// random cache lines and only the (cheap, streamed) CSR index loads are
/// amortized. The tile outgrows L2 by construction (blocking is only
/// selected once a single column does), so the gathers are L3-latency
/// loads; walking the raw CSR arrays with a flat edge cursor lets each
/// iteration software-prefetch the tile row of the edge
/// kSpmmPrefetchDist ahead — across vertex boundaries, so short
/// adjacency lists don't truncate the look-ahead window.
template <int CB>
void SpmmChunkFixed(const CsrGraph& graph, const double* tile,
                    double* const* y, const double* degrees, vid_t lo,
                    vid_t hi, bool weighted) {
  constexpr auto kLanes = std::make_index_sequence<CB>{};
  const eid_t* const offsets = graph.Offsets().data();
  const vid_t* const adj = graph.Adjacency().data();
  const weight_t* const wts = weighted ? graph.Weights().data() : nullptr;
  const std::size_t arcs_end = graph.Adjacency().size();
  for (vid_t v = lo; v < hi; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    double acc[CB];
    LanesInit(acc, tile + vi * CB, degrees[vi], kLanes);
    const auto e_lo = static_cast<std::size_t>(offsets[vi]);
    const auto e_hi = static_cast<std::size_t>(offsets[vi + 1]);
    if (weighted) {
      for (std::size_t e = e_lo; e < e_hi; ++e) {
        const std::size_t pf = e + kSpmmPrefetchDist;
        if (pf < arcs_end) {
          const double* row = tile + static_cast<std::size_t>(adj[pf]) * CB;
          PrefetchRead(row);
          if constexpr (CB * sizeof(double) > 64) PrefetchRead(row + 8);
        }
        LanesSubWeighted(acc, tile + static_cast<std::size_t>(adj[e]) * CB,
                         wts[e], kLanes);
      }
    } else {
      for (std::size_t e = e_lo; e < e_hi; ++e) {
        const std::size_t pf = e + kSpmmPrefetchDist;
        if (pf < arcs_end) {
          const double* row = tile + static_cast<std::size_t>(adj[pf]) * CB;
          PrefetchRead(row);
          if constexpr (CB * sizeof(double) > 64) PrefetchRead(row + 8);
        }
        LanesSub(acc, tile + static_cast<std::size_t>(adj[e]) * CB, kLanes);
      }
    }
    LanesStore(y, acc, vi, kLanes);
  }
}

/// Runtime-width remainder kernel (width < 4, or tail of a block sweep).
/// The tile stride equals the runtime width.
void SpmmChunkVar(const CsrGraph& graph, const double* tile,
                  double* const* y, const double* degrees, vid_t lo, vid_t hi,
                  bool weighted, int width) {
  assert(width >= 1 && width <= kMaxSpmmBlock);
  const auto stride = static_cast<std::size_t>(width);
  for (vid_t v = lo; v < hi; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    double acc[kMaxSpmmBlock];
    const double dv = degrees[vi];
    const double* self = tile + vi * stride;
    for (int c = 0; c < width; ++c) acc[c] = dv * self[c];
    const auto nbrs = graph.Neighbors(v);
    if (weighted) {
      const auto wts = graph.NeighborWeights(v);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const double* nb =
            tile + static_cast<std::size_t>(nbrs[e]) * stride;
        const double w = wts[e];
        for (int c = 0; c < width; ++c) acc[c] -= w * nb[c];
      }
    } else {
      for (const vid_t un : nbrs) {
        const double* nb = tile + static_cast<std::size_t>(un) * stride;
        for (int c = 0; c < width; ++c) acc[c] -= nb[c];
      }
    }
    for (int c = 0; c < width; ++c) y[c][vi] = acc[c];
  }
}

void SpmmChunk(const CsrGraph& graph, const double* tile, double* const* y,
               const double* degrees, vid_t lo, vid_t hi, bool weighted,
               int width) {
  switch (width) {
    case 16:
      SpmmChunkFixed<16>(graph, tile, y, degrees, lo, hi, weighted);
      return;
    case 8:
      SpmmChunkFixed<8>(graph, tile, y, degrees, lo, hi, weighted);
      return;
    case 4:
      SpmmChunkFixed<4>(graph, tile, y, degrees, lo, hi, weighted);
      return;
    default:
      SpmmChunkVar(graph, tile, y, degrees, lo, hi, weighted, width);
      return;
  }
}

/// Runs fn(c, lo, hi) over row ranges of the flattened column-major index
/// space c * rows + row, cut into grain-sized blocks and split again at
/// column boundaries — the per-column kernels' "loop collapse" over
/// (column, vertex chunk) pairs.
template <class Fn>
void ForEachColumnRange(std::size_t k, std::int64_t rows, std::int64_t grain,
                        Fn&& fn) {
  ParallelFor(static_cast<std::int64_t>(k) * rows, grain,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi;) {
                  const std::int64_t c = i / rows;
                  const std::int64_t end = std::min(hi, (c + 1) * rows);
                  fn(static_cast<std::size_t>(c), i - c * rows, end - c * rows);
                  i = end;
                }
              });
}

}  // namespace

int ResolveSpmmBlockWidth(int requested, std::size_t k, std::size_t rows) {
  if (requested != 0) return std::clamp(requested, 1, kMaxSpmmBlock);
  if (rows < kSpmmBlockAutoMinVertices) return 1;
  if (k >= 8) return 8;
  if (k >= 4) return 4;
  return 1;
}

void LaplacianTimesMatrixFused(const CsrGraph& graph, const DenseMatrix& S,
                               DenseMatrix& P) {
  const vid_t n = graph.NumVertices();
  const std::size_t k = S.Cols();
  assert(S.Rows() == static_cast<std::size_t>(n));
  assert(P.Rows() == S.Rows() && P.Cols() == k);
  const bool weighted = graph.HasWeights();
  const auto& degrees = graph.WeightedDegrees();

  // Parallelize over (column, vertex-chunk) pairs, matching the paper's
  // "OpenMP code with loop collapse pragmas". Chunking the vertex dimension
  // lets the column base pointers hoist out of the per-vertex loop.
  ForEachColumnRange(k, n, kSpmmVertexChunk, [&](std::size_t c,
                                                 std::int64_t lo,
                                                 std::int64_t hi) {
    const double* x = S.Col(c).data();
    double* out = P.Col(c).data();
    for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const auto nbrs = graph.Neighbors(v);
      double acc = degrees[vi] * x[vi];
      if (weighted) {
        const auto wts = graph.NeighborWeights(v);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          acc -= wts[e] * x[static_cast<std::size_t>(nbrs[e])];
        }
      } else {
        for (const vid_t u : nbrs) acc -= x[static_cast<std::size_t>(u)];
      }
      out[vi] = acc;
    }
  });
  obs::CounterAdd(obs::Counter::kSpmmCalls, 1);
  obs::CounterAdd(obs::Counter::kSpmmEdgeSweeps,
                  static_cast<std::int64_t>(k));
}

void LaplacianTimesMatrixBlocked(const CsrGraph& graph, const DenseMatrix& S,
                                 DenseMatrix& P, int block_width) {
  const vid_t n = graph.NumVertices();
  const std::size_t k = S.Cols();
  assert(S.Rows() == static_cast<std::size_t>(n));
  assert(P.Rows() == S.Rows() && P.Cols() == k);
  if (k == 0) return;
  const int cb = std::clamp(block_width, 1, kMaxSpmmBlock);
  const bool weighted = graph.HasWeights();
  const auto& degrees = graph.WeightedDegrees();
  const double* deg = degrees.data();

  // Column base pointers, hoisted once for the whole product.
  std::vector<const double*> xs(k);
  std::vector<double*> ys(k);
  for (std::size_t c = 0; c < k; ++c) {
    xs[c] = S.Col(c).data();
    ys[c] = P.Col(c).data();
  }

  // Per block: (1) pack the CB columns into a vertex-contiguous row-major
  // tile (one streaming transpose), (2) traverse the CSR once, gathering
  // CB contiguous doubles per neighbor into CB register accumulators. The
  // compute pass is tiled over vertex chunks for load balance; the edge
  // structure is read ceil(k/CB) times total instead of k times, and the
  // random-access side of the gather touches 1-2 cache lines per edge
  // instead of CB.
  const auto n_sz = static_cast<std::size_t>(n);
  // 64-byte-align the tile so a CB=8 row is exactly one cache line and a
  // CB=16 row exactly two — unaligned rows straddle an extra line per
  // gather, which erases most of the blocking win.
  std::vector<double> tile(n_sz * static_cast<std::size_t>(cb) + 8);
  auto* tp = reinterpret_cast<double*>(
      (reinterpret_cast<std::uintptr_t>(tile.data()) + 63) &
      ~std::uintptr_t{63});
#if defined(__linux__)
  // Back the tile with transparent hugepages (advice only — harmless where
  // THP is off). The gathers hit the tile at random vertex offsets, so with
  // 4 KiB pages a multi-megabyte tile overflows the second-level TLB and
  // every edge pays a page walk on top of the cache miss; 2 MiB pages keep
  // the whole tile TLB-resident. Must precede the first-touch pack pass.
  {
    const auto base = reinterpret_cast<std::uintptr_t>(tile.data());
    const std::uintptr_t page = 4096;
    const auto lo_addr = base & ~(page - 1);
    const auto len =
        (base + tile.size() * sizeof(double)) - lo_addr;
    madvise(reinterpret_cast<void*>(lo_addr), len, MADV_HUGEPAGE);
  }
#endif
  for (std::size_t b = 0; b < k; b += static_cast<std::size_t>(cb)) {
    const int width = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(cb), k - b));
    const double* const* x = xs.data() + b;
    ParallelFor(n, kSpmmVertexChunk, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t v = lo; v < hi; ++v) {
        double* row = tp + static_cast<std::size_t>(v) *
                               static_cast<std::size_t>(width);
        for (int c = 0; c < width; ++c) {
          row[c] = x[c][static_cast<std::size_t>(v)];
        }
      }
    });
    ParallelFor(n, kSpmmVertexChunk, [&](std::int64_t lo, std::int64_t hi) {
      SpmmChunk(graph, tp, ys.data() + b, deg, static_cast<vid_t>(lo),
                static_cast<vid_t>(hi), weighted, width);
    });
  }

  const auto blocks = static_cast<std::int64_t>(
      (k + static_cast<std::size_t>(cb) - 1) / static_cast<std::size_t>(cb));
  obs::CounterAdd(obs::Counter::kSpmmCalls, 1);
  obs::CounterAdd(obs::Counter::kSpmmEdgeSweeps, blocks);
  obs::CounterAdd(obs::Counter::kSpmmBlockedColumns,
                  static_cast<std::int64_t>(k));
  obs::CounterAdd(obs::Counter::kSpmmBlockWidthSum, cb);
}

void LaplacianTimesMatrix(const CsrGraph& graph, const DenseMatrix& S,
                          DenseMatrix& P, const SpmmOptions& options) {
  const int width =
      ResolveSpmmBlockWidth(options.block_width, S.Cols(), S.Rows());
  if (width <= 1) {
    LaplacianTimesMatrixFused(graph, S, P);
  } else {
    LaplacianTimesMatrixBlocked(graph, S, P, width);
  }
  if (PARHDE_FAULT_ONESHOT("spmm:nan") && P.Cols() > 0 && P.Rows() > 0) {
    P.Col(0)[0] = std::numeric_limits<double>::quiet_NaN();
  }
}

void LaplacianTimesVector(const CsrGraph& graph, std::span<const double> x,
                          std::span<double> y) {
  const vid_t n = graph.NumVertices();
  assert(x.size() == static_cast<std::size_t>(n) && y.size() == x.size());
  const bool weighted = graph.HasWeights();
  const auto& degrees = graph.WeightedDegrees();
  ParallelFor(n, kVertexGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
      const auto nbrs = graph.Neighbors(v);
      double acc = degrees[static_cast<std::size_t>(v)] *
                   x[static_cast<std::size_t>(v)];
      if (weighted) {
        const auto wts = graph.NeighborWeights(v);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          acc -= wts[e] * x[static_cast<std::size_t>(nbrs[e])];
        }
      } else {
        for (const vid_t u : nbrs) acc -= x[static_cast<std::size_t>(u)];
      }
      y[static_cast<std::size_t>(v)] = acc;
    }
  });
}

ExplicitLaplacian BuildExplicitLaplacian(const CsrGraph& graph) {
  const vid_t n = graph.NumVertices();
  ExplicitLaplacian L;
  L.offsets.resize(static_cast<std::size_t>(n) + 1);
  L.offsets[0] = 0;
  for (vid_t v = 0; v < n; ++v) {
    L.offsets[static_cast<std::size_t>(v) + 1] =
        L.offsets[static_cast<std::size_t>(v)] + graph.Degree(v) + 1;
  }
  const auto nnz = static_cast<std::size_t>(L.offsets.back());
  L.columns.resize(nnz);
  L.values.resize(nnz);
  const bool weighted = graph.HasWeights();

  ParallelFor(n, kVertexGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
      auto out =
          static_cast<std::size_t>(L.offsets[static_cast<std::size_t>(v)]);
      const auto nbrs = graph.Neighbors(v);
      bool diagonal_emitted = false;
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const vid_t u = nbrs[e];
        if (!diagonal_emitted && u > v) {
          L.columns[out] = v;
          L.values[out] = graph.WeightedDegree(v);
          ++out;
          diagonal_emitted = true;
        }
        L.columns[out] = u;
        L.values[out] = -(weighted ? graph.NeighborWeights(v)[e] : 1.0);
        ++out;
      }
      if (!diagonal_emitted) {
        L.columns[out] = v;
        L.values[out] = graph.WeightedDegree(v);
      }
    }
  });
  return L;
}

std::int64_t ExplicitLaplacianBytes(const CsrGraph& graph) {
  const std::int64_t nnz = graph.NumArcs() + graph.NumVertices();
  const std::int64_t offsets =
      (static_cast<std::int64_t>(graph.NumVertices()) + 1) *
      static_cast<std::int64_t>(sizeof(eid_t));
  return offsets + nnz * static_cast<std::int64_t>(sizeof(vid_t)) +
         nnz * static_cast<std::int64_t>(sizeof(double));
}

void LaplacianTimesMatrixExplicit(const ExplicitLaplacian& L,
                                  const DenseMatrix& S, DenseMatrix& P) {
  const auto n = static_cast<std::int64_t>(L.offsets.size()) - 1;
  const std::size_t k = S.Cols();
  assert(S.Rows() == static_cast<std::size_t>(n));
  assert(P.Rows() == S.Rows() && P.Cols() == k);

  ForEachColumnRange(k, n, kVertexGrain, [&](std::size_t c, std::int64_t lo,
                                             std::int64_t hi) {
    const double* x = S.Col(c).data();
    double* out = P.Col(c).data();
    for (std::int64_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      const auto e_lo =
          static_cast<std::size_t>(L.offsets[static_cast<std::size_t>(i)]);
      const auto e_hi = static_cast<std::size_t>(
          L.offsets[static_cast<std::size_t>(i) + 1]);
      for (std::size_t e = e_lo; e < e_hi; ++e) {
        acc += L.values[e] * x[static_cast<std::size_t>(L.columns[e])];
      }
      out[static_cast<std::size_t>(i)] = acc;
    }
  });
}

void TransitionTimesVector(const CsrGraph& graph, std::span<const double> x,
                           std::span<double> y) {
  const vid_t n = graph.NumVertices();
  assert(x.size() == static_cast<std::size_t>(n) && y.size() == x.size());
  const bool weighted = graph.HasWeights();
  ParallelFor(n, kVertexGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
      const auto nbrs = graph.Neighbors(v);
      double acc = 0.0;
      if (weighted) {
        const auto wts = graph.NeighborWeights(v);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          acc += wts[e] * x[static_cast<std::size_t>(nbrs[e])];
        }
      } else {
        for (const vid_t u : nbrs) acc += x[static_cast<std::size_t>(u)];
      }
      const double deg = graph.WeightedDegree(v);
      y[static_cast<std::size_t>(v)] = deg > 0.0 ? acc / deg : 0.0;
    }
  });
}

double LaplacianQuadraticForm(const CsrGraph& graph,
                              std::span<const double> x) {
  const vid_t n = graph.NumVertices();
  assert(x.size() == static_cast<std::size_t>(n));
  const bool weighted = graph.HasWeights();
  return ParallelReduce(
      n, kVertexGrain, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        double total = 0.0;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          const auto nbrs = graph.Neighbors(v);
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            const vid_t u = nbrs[e];
            if (u <= v) continue;  // count each undirected edge once
            const double diff = x[static_cast<std::size_t>(v)] -
                                x[static_cast<std::size_t>(u)];
            total +=
                (weighted ? graph.NeighborWeights(v)[e] : 1.0) * diff * diff;
          }
        }
        return total;
      },
      std::plus<>());
}

}  // namespace parhde
