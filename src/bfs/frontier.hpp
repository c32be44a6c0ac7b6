// Frontier data structures for the level-synchronous BFS kernels: a compact
// vertex queue for top-down steps and an atomic bitmap for bottom-up steps,
// with conversions between the two (the representation switch is part of the
// direction-optimizing heuristic).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace parhde {

/// Fixed-size concurrent bitmap over vertex ids.
class Bitmap {
 public:
  explicit Bitmap(vid_t n);

  /// Clears every bit (parallel).
  void Reset();

  /// Sets bit v; safe to call concurrently.
  void Set(vid_t v) {
    words_[Word(v)].fetch_or(Mask(v), std::memory_order_relaxed);
  }

  /// Non-atomic set for single-writer phases (bottom-up owns each v).
  void SetUnsynced(vid_t v) {
    words_[Word(v)].store(
        words_[Word(v)].load(std::memory_order_relaxed) | Mask(v),
        std::memory_order_relaxed);
  }

  [[nodiscard]] bool Get(vid_t v) const {
    return (words_[Word(v)].load(std::memory_order_relaxed) & Mask(v)) != 0;
  }

  /// Calls fn(v) for every set bit in ascending order, skipping empty
  /// words (serial).
  template <class Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w].load(std::memory_order_relaxed);
           bits != 0; bits &= bits - 1) {
        fn(static_cast<vid_t>(w * 64 + static_cast<std::size_t>(
                                           __builtin_ctzll(bits))));
      }
    }
  }

  /// Population count (parallel reduction).
  [[nodiscard]] std::int64_t Count() const;

  [[nodiscard]] vid_t Size() const { return n_; }

  void Swap(Bitmap& other) {
    words_.swap(other.words_);
    std::swap(n_, other.n_);
  }

 private:
  static std::size_t Word(vid_t v) { return static_cast<std::size_t>(v) >> 6; }
  static std::uint64_t Mask(vid_t v) { return 1ULL << (v & 63); }

  vid_t n_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

/// Frontier queue over two capacity-sized buffers, the current frontier and
/// the next one, which Advance swaps. Each block of a parallel step appends
/// to the next frontier through a private FrontierStage and flushes in bulk,
/// avoiding a shared atomic cursor on every push (GAP's SlidingQueue idea).
/// Neither buffer is zero-filled: a search touches only the pages its
/// frontiers reach, so a high-diameter search on a large graph stays cheap
/// to set up.
class FrontierQueue {
 public:
  explicit FrontierQueue(vid_t capacity);

  /// Current frontier contents.
  [[nodiscard]] std::span<const vid_t> Vertices() const {
    return {current_.get(), current_size_};
  }
  [[nodiscard]] std::int64_t Size() const {
    return static_cast<std::int64_t>(current_size_);
  }
  [[nodiscard]] bool Empty() const { return current_size_ == 0; }

  /// Replaces the frontier with a single seed vertex.
  void InitWith(vid_t v);

  /// Appends `staged` to the *next* frontier; safe to call concurrently.
  void Flush(std::span<const vid_t> staged);

  /// Flush that consumes a staging vector: publishes, then clears it.
  void Flush(std::vector<vid_t>& staged) {
    Flush(std::span<const vid_t>(staged));
    staged.clear();
  }

  /// Makes the accumulated next frontier current (a buffer swap) and
  /// starts an empty next frontier.
  void Advance();

  /// Rebuilds the current frontier from a bitmap (bottom-up -> top-down
  /// switch). Vertex order is ascending, keeping runs cache-friendly.
  void LoadFromBitmap(const Bitmap& bitmap);

  /// Fills a bitmap from the current frontier (top-down -> bottom-up switch).
  void StoreToBitmap(Bitmap& bitmap) const;

 private:
  std::unique_ptr<vid_t[]> current_;
  std::unique_ptr<vid_t[]> next_;
  std::size_t current_size_ = 0;
  std::atomic<std::size_t> next_size_{0};
};

/// Fixed-capacity staging buffer for one block of a parallel step: Push
/// publishes to the queue's next frontier whenever the buffer fills, and
/// the destructor publishes the remainder.
class FrontierStage {
 public:
  explicit FrontierStage(FrontierQueue& queue) : queue_(queue) {}
  ~FrontierStage() { queue_.Flush({buffer_, size_}); }

  FrontierStage(const FrontierStage&) = delete;
  FrontierStage& operator=(const FrontierStage&) = delete;

  void Push(vid_t v) {
    buffer_[size_++] = v;
    if (size_ == kCapacity) {
      queue_.Flush({buffer_, size_});
      size_ = 0;
    }
  }

 private:
  static constexpr std::size_t kCapacity = 1024;
  FrontierQueue& queue_;
  vid_t buffer_[kCapacity];
  std::size_t size_ = 0;
};

}  // namespace parhde
