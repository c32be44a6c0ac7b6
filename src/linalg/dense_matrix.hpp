// Column-major dense matrix. The paper stores the distance matrix B in
// column-major format (Alg. 3 line 2) so each BFS writes one contiguous
// column and the Gram-Schmidt vector ops stream over contiguous memory.
//
// Storage is a manually managed buffer, zero-filled by a parallel
// first-touch sweep instead of std::vector's serial value-initialization:
// on NUMA machines the OS backs each page on the node of the thread that
// first writes it, so a parallel first touch places the distance matrix's
// pages on the threads that later stream them: the loop primitive
// (util/parallel.hpp) gives every thread the same contiguous row range in
// the sweep and in the kernels, up to one block at the range edges.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace parhde {

class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows x cols matrix, zero-initialized (parallel first touch).
  DenseMatrix(std::size_t rows, std::size_t cols);

  DenseMatrix(const DenseMatrix& other);
  DenseMatrix& operator=(const DenseMatrix& other);
  DenseMatrix(DenseMatrix&& other) noexcept = default;
  DenseMatrix& operator=(DenseMatrix&& other) noexcept = default;

  [[nodiscard]] std::size_t Rows() const { return rows_; }
  [[nodiscard]] std::size_t Cols() const { return cols_; }

  [[nodiscard]] double& At(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[c * rows_ + r];
  }
  [[nodiscard]] double At(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[c * rows_ + r];
  }

  /// Contiguous column view.
  [[nodiscard]] std::span<double> Col(std::size_t c) {
    assert(c < cols_);
    return {data_.get() + c * rows_, rows_};
  }
  [[nodiscard]] std::span<const double> Col(std::size_t c) const {
    assert(c < cols_);
    return {data_.get() + c * rows_, rows_};
  }

  [[nodiscard]] double* Data() { return data_.get(); }
  [[nodiscard]] const double* Data() const { return data_.get(); }

  /// Removes columns whose index is not in `keep` (ascending), compacting
  /// in place — used when Gram-Schmidt drops near-dependent vectors. The
  /// buffer is not reallocated (page placement is preserved).
  void KeepColumns(const std::vector<std::size_t>& keep);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::unique_ptr<double[]> data_;
};

}  // namespace parhde
