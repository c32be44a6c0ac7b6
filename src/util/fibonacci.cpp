#include "util/fibonacci.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace parhde {

std::vector<std::int64_t> FibonacciSequence(int k) {
  k = std::min(k, 91);  // F(91) is the last term kept; F(93) overflows int64
  std::vector<std::int64_t> fib;
  fib.reserve(static_cast<std::size_t>(k) + 1);
  std::int64_t a = 0, b = 1;
  for (int i = 0; i <= k; ++i) {
    fib.push_back(a);
    if (i == k) break;  // the add below would compute F(k + 2)
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return fib;
}

FibonacciBinner::FibonacciBinner(std::int64_t max_value) {
  assert(max_value >= 0);
  // Grow boundaries until the last bin's upper bound exceeds max_value.
  bounds_ = {0, 1};
  while (bounds_.back() <= max_value) {
    const std::size_t k = bounds_.size();
    const std::int64_t next = bounds_[k - 1] + bounds_[k - 2];
    // After {0,1} the recurrence would repeat 1; force strictly increasing
    // boundaries 0,1,2,3,5,8,... (the paper's x_i with x_1=1, x_2=2).
    bounds_.push_back(next > bounds_.back() ? next : bounds_.back() + 1);
  }
  counts_.assign(bounds_.size() - 1, 0);
}

int FibonacciBinner::BinIndex(std::int64_t value) const {
  assert(value >= 0);
  // Find smallest i with value < bounds_[i+1]; bins are [bounds_[i], bounds_[i+1]).
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
  int idx = static_cast<int>(it - bounds_.begin()) - 1;
  return std::min(idx, NumBins() - 1);
}

void FibonacciBinner::Add(std::int64_t value, std::int64_t count) {
  counts_[static_cast<std::size_t>(BinIndex(value))] += count;
}

std::int64_t FibonacciBinner::UpperBound(int bin) const {
  return bounds_[static_cast<std::size_t>(bin) + 1];
}

std::int64_t FibonacciBinner::Count(int bin) const {
  return counts_[static_cast<std::size_t>(bin)];
}

std::int64_t FibonacciBinner::TotalCount() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::int64_t{0});
}

}  // namespace parhde
