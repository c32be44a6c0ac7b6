#include "linalg/dense_matrix.hpp"

#include <algorithm>
#include <cstdint>
#include <new>

#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Elements per block of the zero and copy sweeps. Below this count the
/// fork/join costs more than the fill, so small matrices (eigen blocks,
/// test fixtures) stay on the calling thread.
constexpr std::int64_t kTouchGrain = std::int64_t{1} << 15;

/// Allocates without value-initialization so the zero sweep below performs
/// the *first* write to every page (the write that decides NUMA placement).
std::unique_ptr<double[]> AllocateUninitialized(std::size_t count) {
  if (count == 0) return nullptr;
  // The "Nth tracked allocation" site: every dense-matrix buffer in the
  // pipeline funnels through here.
  if (PARHDE_FAULT_ONESHOT("alloc:bad-alloc")) throw std::bad_alloc();
  return std::unique_ptr<double[]>(new double[count]);
}

void FirstTouchZero(double* data, std::size_t count) {
  ParallelFor(static_cast<std::int64_t>(count), kTouchGrain,
              [=](std::int64_t lo, std::int64_t hi) {
                std::fill(data + lo, data + hi, 0.0);
              });
}

void ParallelCopy(const double* src, double* dst, std::size_t count) {
  ParallelFor(static_cast<std::int64_t>(count), kTouchGrain,
              [=](std::int64_t lo, std::int64_t hi) {
                std::copy(src + lo, src + hi, dst + lo);
              });
}

}  // namespace

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(AllocateUninitialized(rows * cols)) {
  FirstTouchZero(data_.get(), rows_ * cols_);
}

DenseMatrix::DenseMatrix(const DenseMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(AllocateUninitialized(other.rows_ * other.cols_)) {
  ParallelCopy(other.data_.get(), data_.get(), rows_ * cols_);
}

DenseMatrix& DenseMatrix::operator=(const DenseMatrix& other) {
  if (this == &other) return *this;
  const std::size_t count = other.rows_ * other.cols_;
  if (count != rows_ * cols_) data_ = AllocateUninitialized(count);
  rows_ = other.rows_;
  cols_ = other.cols_;
  ParallelCopy(other.data_.get(), data_.get(), count);
  return *this;
}

void DenseMatrix::KeepColumns(const std::vector<std::size_t>& keep) {
  std::size_t out = 0;
  for (const std::size_t c : keep) {
    assert(c < cols_ && c >= out);
    if (c != out) {
      std::copy_n(data_.get() + c * rows_, rows_, data_.get() + out * rows_);
    }
    ++out;
  }
  cols_ = out;
}

}  // namespace parhde
