#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/gap_stats.hpp"
#include "graph/generators.hpp"
#include "hde/force_directed.hpp"
#include "hde/parhde.hpp"
#include "hde/partition.hpp"
#include "hde/partition_refine.hpp"
#include "hde/pivot_mds.hpp"
#include "obs/counters.hpp"
#include "util/prng.hpp"
#include "util/run_context.hpp"

namespace parhde {
namespace {

TEST(ExclusivePrefixSum, EmptyInput) {
  std::vector<eid_t> counts, out;
  ExclusivePrefixSum(counts, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
}

TEST(ExclusivePrefixSum, SingleElement) {
  std::vector<eid_t> counts{5}, out;
  ExclusivePrefixSum(counts, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 5);
}

TEST(ExclusivePrefixSum, MatchesSerialReference) {
  std::vector<eid_t> counts;
  for (int i = 0; i < 10007; ++i) counts.push_back((i * 37) % 11);
  std::vector<eid_t> out;
  ExclusivePrefixSum(counts, out);
  ASSERT_EQ(out.size(), counts.size() + 1);
  eid_t running = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(out[i], running) << "at index " << i;
    running += counts[i];
  }
  EXPECT_EQ(out.back(), running);
}

TEST(ExclusivePrefixSum, AllZeros) {
  std::vector<eid_t> counts(1000, 0), out;
  ExclusivePrefixSum(counts, out);
  for (const eid_t v : out) EXPECT_EQ(v, 0);
}

class PrefixSumThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSumThreadSweep, DeterministicAcrossThreadCounts) {
  ThreadCountGuard guard(GetParam());
  std::vector<eid_t> counts;
  for (int i = 0; i < 4096; ++i) counts.push_back(i % 7);
  std::vector<eid_t> out;
  ExclusivePrefixSum(counts, out);
  eid_t running = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(out[i], running);
    running += counts[i];
  }
  EXPECT_EQ(out.back(), running);
}

INSTANTIATE_TEST_SUITE_P(Threads, PrefixSumThreadSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ArgmaxFiniteDistance, EmptyVectorReturnsInvalid) {
  std::vector<dist_t> dist;
  EXPECT_EQ(ArgmaxFiniteDistance(dist), kInvalidVid);
}

TEST(ArgmaxFiniteDistance, AllInfiniteReturnsInvalid) {
  std::vector<dist_t> dist(100, kInfDist);
  EXPECT_EQ(ArgmaxFiniteDistance(dist), kInvalidVid);
}

TEST(ArgmaxFiniteDistance, FindsUniqueMax) {
  std::vector<dist_t> dist(100, 3);
  dist[42] = 17;
  EXPECT_EQ(ArgmaxFiniteDistance(dist), 42);
}

TEST(ArgmaxFiniteDistance, TieBreaksToSmallestId) {
  std::vector<dist_t> dist(100, 1);
  dist[30] = 9;
  dist[60] = 9;
  EXPECT_EQ(ArgmaxFiniteDistance(dist), 30);
}

TEST(ArgmaxFiniteDistance, IgnoresInfiniteEntries) {
  std::vector<dist_t> dist(50, 2);
  dist[10] = kInfDist;  // would be max if counted
  dist[20] = 5;
  EXPECT_EQ(ArgmaxFiniteDistance(dist), 20);
}

TEST(MinInto, ElementwiseMinimum) {
  std::vector<dist_t> d{5, 1, kInfDist, 7};
  const std::vector<dist_t> b{3, 4, 2, kInfDist};
  MinInto(d, b);
  EXPECT_EQ(d, (std::vector<dist_t>{3, 1, 2, 7}));
}

TEST(ParallelReduce, MatchesAccumulate) {
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(0.25 * i);
  const double expected = std::accumulate(v.begin(), v.end(), 0.0);
  const double sum = ParallelReduce(
      static_cast<std::int64_t>(v.size()), 512, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        return std::accumulate(v.begin() + lo, v.begin() + hi, 0.0);
      },
      std::plus<>());
  EXPECT_DOUBLE_EQ(sum, expected);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const double sum = ParallelReduce(
      0, 64, 7.5, [](std::int64_t, std::int64_t) { return 1.0; },
      std::plus<>());
  EXPECT_EQ(sum, 7.5);
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts) {
  // Values spanning many magnitudes make the sum sensitive to grouping:
  // any thread-count-dependent combine order would change the last bits.
  constexpr std::int64_t kGrain = 1000;
  std::vector<double> v(50 * kGrain);
  Xoshiro256 rng(3);
  for (double& x : v) {
    x = (rng.NextDouble() - 0.5) *
        std::pow(10.0, static_cast<double>(rng.NextBounded(12)));
  }
  for (const std::int64_t n : {kGrain / 3, kGrain, 50 * kGrain}) {
    const auto sum_at = [&](int threads) {
      ThreadCountGuard guard(threads);
      return ParallelReduce(
          n, kGrain, 0.0,
          [&](std::int64_t lo, std::int64_t hi) {
            double s = 0.0;
            for (std::int64_t i = lo; i < hi; ++i) {
              s += v[static_cast<std::size_t>(i)];
            }
            return s;
          },
          std::plus<>());
    };
    const double one = sum_at(1);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum_at(2)),
              std::bit_cast<std::uint64_t>(one)) << "n=" << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum_at(4)),
              std::bit_cast<std::uint64_t>(one)) << "n=" << n;
  }
}

TEST(ParallelFor, VisitsEveryIndexOnceInGrainAlignedBlocks) {
  ThreadCountGuard guard(4);
  constexpr std::int64_t kN = 10007, kGrain = 100;
  std::vector<int> hits(kN, 0);
  std::atomic<bool> misaligned{false};
  ParallelFor(kN, kGrain, [&](std::int64_t lo, std::int64_t hi) {
    if (lo % kGrain != 0 || hi - lo > kGrain) misaligned = true;
    for (std::int64_t i = lo; i < hi; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  EXPECT_FALSE(misaligned.load());
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), kN);
}

TEST(ParallelFor, TeamNeverOutnumbersBlocks) {
  ThreadCountGuard guard(4);
  const auto team_for = [](std::int64_t n, std::int64_t grain) {
    std::atomic<int> team{0};
    ParallelFor(n, grain, [&](std::int64_t, std::int64_t) {
      team = std::max(team.load(), omp_get_num_threads());
    });
    return team.load();
  };
  EXPECT_EQ(team_for(64, 64), 1);    // n <= grain: serial
  EXPECT_EQ(team_for(128, 64), 2);   // two blocks, two threads at most
  EXPECT_EQ(team_for(4096, 64), 4);  // capped by the thread count
}

TEST(ParallelForDynamic, VisitsEveryIndexOnceAndStaysSerialBelowGrain) {
  ThreadCountGuard guard(4);
  constexpr std::int64_t kN = 10007, kGrain = 100;
  std::vector<int> hits(kN, 0);
  std::atomic<bool> misaligned{false};
  ParallelForDynamic(kN, kGrain, [&](std::int64_t lo, std::int64_t hi) {
    if (lo % kGrain != 0 || hi - lo > kGrain) misaligned = true;
    for (std::int64_t i = lo; i < hi; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  EXPECT_FALSE(misaligned.load());
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), kN);

  std::atomic<int> team{0};
  ParallelForDynamic(64, 64, [&](std::int64_t, std::int64_t) {
    team = omp_get_num_threads();
  });
  EXPECT_EQ(team.load(), 1);
}

TEST(ParallelFor, CounterAddLandsInCallersContext) {
  ThreadCountGuard guard(4);
  util::RunContext ctx;
  constexpr std::int64_t kN = 64 * 1024;
  {
    util::ScopedRunContext scope(ctx);
    ParallelFor(kN, 1024, [](std::int64_t lo, std::int64_t hi) {
      obs::CounterAdd(obs::Counter::kBfsEdgesExamined, hi - lo);
    });
  }
  EXPECT_EQ(ctx.counters().Value(obs::Counter::kBfsEdgesExamined), kN);
}

TEST(ParallelFor, NestedCallRunsSerially) {
  ThreadCountGuard guard(4);
  std::atomic<int> nested_team{0};
  std::atomic<int> nested_calls{0};
  ParallelFor(8, 1, [&](std::int64_t, std::int64_t) {
    ParallelFor(4096, 64, [&](std::int64_t, std::int64_t) {
      ++nested_calls;
      // Inline on the outer team's thread: no inner team is forked.
      nested_team = std::max(nested_team.load(), omp_get_level());
    });
  });
  EXPECT_EQ(nested_calls.load(), 8 * 64);
  EXPECT_EQ(nested_team.load(), 1);
}

TEST(ParHdeThreadDeterminism, BitwiseIdenticalLayoutsAt124Threads) {
  // Large enough that every kernel splits into several blocks and runs on
  // a real team: a 150x150 grid for k-centers pivots (parallel BFS), a
  // low-diameter random graph for random pivots (64-lane multi-source BFS)
  // and a weighted grid for PivotMDS on Δ-stepping distances.
  const CsrGraph grid = BuildCsrGraph(22500, GenGrid2d(150, 150));
  const CsrGraph urand =
      LargestComponent(
          BuildCsrGraph(20000, GenUniformRandom(20000, 100000, 5)))
          .graph;
  // PivotMDS on a weighted grid (Δ-stepping distances): its double
  // centering sums squared non-integral distances, which only fold
  // identically across thread counts through ParallelReduce.
  EdgeList weighted_edges = GenGrid2d(150, 150);
  AssignRandomWeights(weighted_edges, 0.5, 2.0, 7);
  BuildOptions keep_weights;
  keep_weights.keep_weights = true;
  const CsrGraph weighted = BuildCsrGraph(22500, weighted_edges, keep_weights);
  HdeOptions kcenters;
  kcenters.subspace_dim = 10;
  kcenters.seed = 3;
  HdeOptions random = kcenters;
  random.pivots = PivotStrategy::Random;
  random.kernel = DistanceKernel::MultiSourceBfs;
  random.subspace_dim = 20;
  HdeOptions sssp = kcenters;
  sssp.kernel = DistanceKernel::DeltaStepping;
  struct Case {
    const CsrGraph* graph;
    HdeOptions options;
    HdeResult (*driver)(const CsrGraph&, const HdeOptions&);
  };
  const Case cases[] = {{&grid, kcenters, &RunParHde},
                        {&urand, random, &RunParHde},
                        {&weighted, sssp, &RunPivotMds}};
  for (const auto& [graph, options, driver] : cases) {
    const auto layout_at = [&](int threads) {
      ThreadCountGuard guard(threads);
      return driver(*graph, options).layout;
    };
    const auto bits = [](const std::vector<double>& axis) {
      std::vector<std::uint64_t> out(axis.size());
      std::transform(axis.begin(), axis.end(), out.begin(),
                     [](double x) { return std::bit_cast<std::uint64_t>(x); });
      return out;
    };
    const Layout one = layout_at(1);
    for (const int threads : {2, 4}) {
      const Layout many = layout_at(threads);
      EXPECT_TRUE(bits(many.x) == bits(one.x)) << "threads=" << threads;
      EXPECT_TRUE(bits(many.y) == bits(one.y)) << "threads=" << threads;
    }
  }
}

TEST(LoopThreadDeterminism, GraphStatsGeneratorsAndPartitionsAt124Threads) {
  // The generators, gap statistics, partition metrics and force-directed
  // refinement all run on ParallelFor / ParallelReduce; each input spans
  // several blocks so 2 and 4 threads fork a real team.
  struct Outputs {
    EdgeList urand;
    EdgeList kron;
    std::vector<std::int64_t> gap_bins;
    GapSummary gaps;
    eid_t cut = 0;
    vid_t boundary = 0;
    ForceDirectedResult fr;
  };
  const auto run_at = [](int threads) {
    ThreadCountGuard guard(threads);
    Outputs out;
    out.urand = GenUniformRandom(5000, 60000, 11);
    out.kron = GenKronecker(13, 8, 12);
    const CsrGraph g = BuildCsrGraph(vid_t{1} << 13, out.kron);
    const FibonacciBinner bins = ComputeGapHistogram(g);
    for (int b = 0; b < bins.NumBins(); ++b) {
      out.gap_bins.push_back(bins.Count(b));
    }
    out.gaps = ComputeGapSummary(g);
    std::vector<int> labels(static_cast<std::size_t>(g.NumVertices()));
    for (std::size_t v = 0; v < labels.size(); ++v) {
      labels[v] = static_cast<int>((v * 7) % 4);
    }
    out.cut = EdgeCut(g, labels);
    out.boundary = BoundarySize(g, labels);
    ForceDirectedOptions fr;
    fr.iterations = 5;
    out.fr = FruchtermanReingold(BuildCsrGraph(4900, GenGrid2d(70, 70)), fr);
    return out;
  };
  const auto same_edges = [](const EdgeList& a, const EdgeList& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const Edge& x, const Edge& y) {
                        return x.u == y.u && x.v == y.v && x.w == y.w;
                      });
  };
  const auto bits = [](const std::vector<double>& axis) {
    std::vector<std::uint64_t> out(axis.size());
    std::transform(axis.begin(), axis.end(), out.begin(),
                   [](double x) { return std::bit_cast<std::uint64_t>(x); });
    return out;
  };
  const Outputs one = run_at(1);
  ASSERT_GT(one.gaps.total_gaps, 0);
  ASSERT_GT(one.cut, 0);
  for (const int threads : {2, 4}) {
    const Outputs many = run_at(threads);
    EXPECT_TRUE(same_edges(many.urand, one.urand)) << threads;
    EXPECT_TRUE(same_edges(many.kron, one.kron)) << threads;
    EXPECT_EQ(many.gap_bins, one.gap_bins) << threads;
    EXPECT_EQ(many.gaps.total_gaps, one.gaps.total_gaps) << threads;
    EXPECT_EQ(many.gaps.max_gap, one.gaps.max_gap) << threads;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(many.gaps.mean_gap),
              std::bit_cast<std::uint64_t>(one.gaps.mean_gap))
        << threads;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(many.gaps.cache_line_fraction),
              std::bit_cast<std::uint64_t>(one.gaps.cache_line_fraction))
        << threads;
    EXPECT_EQ(many.cut, one.cut) << threads;
    EXPECT_EQ(many.boundary, one.boundary) << threads;
    EXPECT_EQ(many.fr.interactions, one.fr.interactions) << threads;
    EXPECT_TRUE(bits(many.fr.layout.x) == bits(one.fr.layout.x)) << threads;
    EXPECT_TRUE(bits(many.fr.layout.y) == bits(one.fr.layout.y)) << threads;
  }
}

TEST(ThreadCountGuard, RestoresPreviousValue) {
  const int before = NumThreads();
  {
    ThreadCountGuard guard(2);
    EXPECT_EQ(NumThreads(), 2);
  }
  EXPECT_EQ(NumThreads(), before);
}

TEST(SetNumThreads, ClampsToAtLeastOne) {
  const int before = NumThreads();
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
  SetNumThreads(before);
}

}  // namespace
}  // namespace parhde
