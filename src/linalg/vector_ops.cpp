#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>

#include "util/parallel.hpp"

// Each block body copies the span bases and scalars it reads into locals
// and annotates the inner loop with `omp simd` / `simd reduction`: the
// pragma grants the compiler the reassociation license -O2 withholds from
// plain loops, so the reductions vectorize without -ffast-math. The copies
// matter: GCC does not hoist loads of lambda captures out of an `omp simd`
// loop and falls back to element-wise loads, halving the kernels'
// throughput. Sums fold kStreamGrain-sized block partials in block order
// (util/parallel.hpp), so every result is bitwise identical at any thread
// count.

namespace parhde {

double Dot(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  return ParallelReduce(
      static_cast<std::int64_t>(x.size()), kStreamGrain, 0.0,
      [x, y](std::int64_t lo, std::int64_t hi) {
        const double* px = x.data();
        const double* py = y.data();
        double total = 0.0;
#pragma omp simd reduction(+ : total)
        for (std::int64_t i = lo; i < hi; ++i) total += px[i] * py[i];
        return total;
      },
      std::plus<>());
}

double WeightedDot(std::span<const double> x, std::span<const double> y,
                   std::span<const double> d) {
  assert(x.size() == y.size() && x.size() == d.size());
  return ParallelReduce(
      static_cast<std::int64_t>(x.size()), kStreamGrain, 0.0,
      [x, y, d](std::int64_t lo, std::int64_t hi) {
        const double* px = x.data();
        const double* py = y.data();
        const double* pd = d.data();
        double total = 0.0;
#pragma omp simd reduction(+ : total)
        for (std::int64_t i = lo; i < hi; ++i) total += px[i] * pd[i] * py[i];
        return total;
      },
      std::plus<>());
}

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  ParallelFor(static_cast<std::int64_t>(x.size()), kStreamGrain,
              [alpha, x, y](std::int64_t lo, std::int64_t hi) {
                const double* px = x.data();
                double* py = y.data();
                const double a = alpha;
#pragma omp simd
                for (std::int64_t i = lo; i < hi; ++i) py[i] += a * px[i];
              });
}

void Scale(std::span<double> x, double alpha) {
  ParallelFor(static_cast<std::int64_t>(x.size()), kStreamGrain,
              [x, alpha](std::int64_t lo, std::int64_t hi) {
                double* px = x.data();
                const double a = alpha;
#pragma omp simd
                for (std::int64_t i = lo; i < hi; ++i) px[i] *= a;
              });
}

double Norm2(std::span<const double> x) { return std::sqrt(Dot(x, x)); }

double WeightedNorm2(std::span<const double> x, std::span<const double> d) {
  return std::sqrt(WeightedDot(x, x, d));
}

void Fill(std::span<double> x, double value) {
  ParallelFor(static_cast<std::int64_t>(x.size()), kStreamGrain,
              [x, value](std::int64_t lo, std::int64_t hi) {
                std::fill(x.begin() + lo, x.begin() + hi, value);
              });
}

void Copy(std::span<const double> src, std::span<double> dst) {
  assert(src.size() == dst.size());
  ParallelFor(static_cast<std::int64_t>(src.size()), kStreamGrain,
              [src, dst](std::int64_t lo, std::int64_t hi) {
                std::copy(src.begin() + lo, src.begin() + hi,
                          dst.begin() + lo);
              });
}

double Mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  const double total = ParallelReduce(
      static_cast<std::int64_t>(x.size()), kStreamGrain, 0.0,
      [x](std::int64_t lo, std::int64_t hi) {
        const double* px = x.data();
        double sum = 0.0;
#pragma omp simd reduction(+ : sum)
        for (std::int64_t i = lo; i < hi; ++i) sum += px[i];
        return sum;
      },
      std::plus<>());
  return total / static_cast<double>(x.size());
}

void CenterInPlace(std::span<double> x) {
  const double mu = Mean(x);
  ParallelFor(static_cast<std::int64_t>(x.size()), kStreamGrain,
              [x, mu](std::int64_t lo, std::int64_t hi) {
                double* px = x.data();
                const double m = mu;
#pragma omp simd
                for (std::int64_t i = lo; i < hi; ++i) px[i] -= m;
              });
}

double MaxAbs(std::span<const double> x) {
  return ParallelReduce(
      static_cast<std::int64_t>(x.size()), kStreamGrain, 0.0,
      [x](std::int64_t lo, std::int64_t hi) {
        const double* px = x.data();
        double best = 0.0;
#pragma omp simd reduction(max : best)
        for (std::int64_t i = lo; i < hi; ++i) {
          best = std::max(best, std::abs(px[i]));
        }
        return best;
      },
      [](double a, double b) { return std::max(a, b); });
}

}  // namespace parhde
