// Sliding-window accumulator over the last w timestamps.
//
// Both framework families need "sum of X over the current window": LBD/LBA
// sum spent publication budget (Alg. 1 line 7), LPD/LPA sum used publication
// users (Alg. 3 line 7). `SlidingWindowSum` keeps the last w values in a
// ring buffer with an O(1) running sum, re-summed from the ring every w
// pushes so its rounding error cannot grow over an infinite stream.
#ifndef LDPIDS_STREAM_WINDOW_H_
#define LDPIDS_STREAM_WINDOW_H_

#include <cstddef>
#include <vector>

namespace ldpids {

class SlidingWindowSum {
 public:
  // `w` must be >= 1.
  explicit SlidingWindowSum(std::size_t w);

  // Appends the value for the next timestamp, evicting the value that falls
  // out of the window.
  void Push(double value);

  // Sum of the last min(w, pushes) values.
  double Sum() const { return sum_; }

  // Sum of the last min(w-1, pushes) values, i.e. the window excluding a
  // value about to be pushed — this is what Alg. 1/3 line 7 needs at time t
  // (budget/users spent in timestamps t-w+1 .. t-1).
  double SumLastWMinus1() const;

  std::size_t window() const { return buffer_.size(); }
  std::size_t pushes() const { return pushes_; }

  // Value pushed `age` steps ago (age = 0 is the most recent). Requires
  // age < min(w, pushes).
  double ValueAgo(std::size_t age) const;

 private:
  std::vector<double> buffer_;
  std::size_t next_ = 0;
  std::size_t pushes_ = 0;
  double sum_ = 0.0;
};

}  // namespace ldpids

#endif  // LDPIDS_STREAM_WINDOW_H_
