#include "stream/window.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>

namespace ldpids {

SlidingWindowSum::SlidingWindowSum(std::size_t w) : buffer_(w, 0.0) {
  if (w == 0) throw std::invalid_argument("window size must be >= 1");
}

void SlidingWindowSum::Push(double value) {
  sum_ -= buffer_[next_];
  buffer_[next_] = value;
  sum_ += value;
  next_ = (next_ + 1) % buffer_.size();
  if (next_ == 0) {
    // Re-sum the ring once per w pushes: the running update's rounding
    // error then stays bounded instead of growing with the stream.
    sum_ = std::accumulate(buffer_.begin(), buffer_.end(), 0.0);
  }
  ++pushes_;
}

double SlidingWindowSum::SumLastWMinus1() const {
  if (pushes_ < buffer_.size()) return sum_;
  // Exclude the oldest in-window value (the one about to be evicted).
  return sum_ - buffer_[next_];
}

double SlidingWindowSum::ValueAgo(std::size_t age) const {
  const std::size_t filled = std::min(pushes_, buffer_.size());
  if (age >= filled) throw std::out_of_range("age beyond window contents");
  const std::size_t idx =
      (next_ + buffer_.size() - 1 - age) % buffer_.size();
  return buffer_[idx];
}

}  // namespace ldpids
