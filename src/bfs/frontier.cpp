#include "bfs/frontier.hpp"

#include <algorithm>
#include <functional>

#include "util/parallel.hpp"

namespace parhde {

Bitmap::Bitmap(vid_t n)
    : n_(n), words_((static_cast<std::size_t>(n) + 63) / 64) {
  Reset();
}

void Bitmap::Reset() {
  ParallelFor(static_cast<std::int64_t>(words_.size()), kStreamGrain,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                  words_[static_cast<std::size_t>(i)].store(
                      0, std::memory_order_relaxed);
                }
              });
}

std::int64_t Bitmap::Count() const {
  return ParallelReduce(
      static_cast<std::int64_t>(words_.size()), kStreamGrain, std::int64_t{0},
      [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t total = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          total += __builtin_popcountll(words_[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed));
        }
        return total;
      },
      std::plus<>());
}

FrontierQueue::FrontierQueue(vid_t capacity)
    : current_(std::make_unique_for_overwrite<vid_t[]>(
          static_cast<std::size_t>(capacity))),
      next_(std::make_unique_for_overwrite<vid_t[]>(
          static_cast<std::size_t>(capacity))) {}

void FrontierQueue::InitWith(vid_t v) {
  current_[0] = v;
  current_size_ = 1;
  next_size_.store(0, std::memory_order_relaxed);
}

void FrontierQueue::Flush(std::span<const vid_t> staged) {
  if (staged.empty()) return;
  const std::size_t at =
      next_size_.fetch_add(staged.size(), std::memory_order_relaxed);
  std::copy(staged.begin(), staged.end(), next_.get() + at);
}

void FrontierQueue::Advance() {
  current_.swap(next_);
  current_size_ = next_size_.exchange(0, std::memory_order_relaxed);
}

void FrontierQueue::LoadFromBitmap(const Bitmap& bitmap) {
  current_size_ = 0;
  bitmap.ForEachSet([&](vid_t v) { current_[current_size_++] = v; });
  next_size_.store(0, std::memory_order_relaxed);
}

void FrontierQueue::StoreToBitmap(Bitmap& bitmap) const {
  bitmap.Reset();
  ParallelFor(Size(), kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      bitmap.Set(current_[static_cast<std::size_t>(i)]);
    }
  });
}

}  // namespace parhde
