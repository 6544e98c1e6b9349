#include "stream/window.h"

#include <gtest/gtest.h>

namespace ldpids {
namespace {

TEST(SlidingWindowSumTest, RejectsZeroWindow) {
  EXPECT_THROW(SlidingWindowSum(0), std::invalid_argument);
}

TEST(SlidingWindowSumTest, SumBeforeWindowFills) {
  SlidingWindowSum w(4);
  EXPECT_DOUBLE_EQ(w.Sum(), 0.0);
  w.Push(1.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 1.0);
  w.Push(2.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 3.0);
}

TEST(SlidingWindowSumTest, EvictsOldValues) {
  SlidingWindowSum w(3);
  w.Push(1.0);
  w.Push(2.0);
  w.Push(3.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 6.0);
  w.Push(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.Sum(), 15.0);
  w.Push(0.0);  // evicts 2.0
  EXPECT_DOUBLE_EQ(w.Sum(), 13.0);
}

TEST(SlidingWindowSumTest, WindowOfOneTracksLastValue) {
  SlidingWindowSum w(1);
  w.Push(5.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 5.0);
  w.Push(7.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 7.0);
  EXPECT_DOUBLE_EQ(w.SumLastWMinus1(), 0.0);
}

TEST(SlidingWindowSumTest, SumLastWMinus1ExcludesOldest) {
  SlidingWindowSum w(3);
  w.Push(1.0);
  w.Push(2.0);
  // Window not full yet: everything counts.
  EXPECT_DOUBLE_EQ(w.SumLastWMinus1(), 3.0);
  w.Push(4.0);
  // Full: drop the oldest (1.0).
  EXPECT_DOUBLE_EQ(w.SumLastWMinus1(), 6.0);
  w.Push(8.0);  // window {2,4,8}
  EXPECT_DOUBLE_EQ(w.SumLastWMinus1(), 12.0);
}

TEST(SlidingWindowSumTest, ValueAgo) {
  SlidingWindowSum w(3);
  w.Push(1.0);
  w.Push(2.0);
  w.Push(3.0);
  EXPECT_DOUBLE_EQ(w.ValueAgo(0), 3.0);
  EXPECT_DOUBLE_EQ(w.ValueAgo(1), 2.0);
  EXPECT_DOUBLE_EQ(w.ValueAgo(2), 1.0);
  EXPECT_THROW(w.ValueAgo(3), std::out_of_range);
  w.Push(9.0);
  EXPECT_DOUBLE_EQ(w.ValueAgo(0), 9.0);
  EXPECT_DOUBLE_EQ(w.ValueAgo(2), 2.0);
}

TEST(SlidingWindowSumTest, ValueAgoBeforeFull) {
  SlidingWindowSum w(5);
  w.Push(4.0);
  EXPECT_DOUBLE_EQ(w.ValueAgo(0), 4.0);
  EXPECT_THROW(w.ValueAgo(1), std::out_of_range);
}

TEST(SlidingWindowSumTest, LongRunMatchesNaiveSum) {
  SlidingWindowSum w(7);
  std::vector<double> history;
  double expected;
  for (int i = 0; i < 100; ++i) {
    const double v = (i * 37 % 11) - 5.0;
    w.Push(v);
    history.push_back(v);
    expected = 0.0;
    const std::size_t start = history.size() > 7 ? history.size() - 7 : 0;
    for (std::size_t j = start; j < history.size(); ++j) {
      expected += history[j];
    }
    ASSERT_NEAR(w.Sum(), expected, 1e-9) << "at step " << i;
  }
}

// A running sum that only adds and subtracts loses what one huge value
// absorbed: 1e17 + 1 rounds to 1e17, so once the 1e17 is evicted the sum
// misses every 1.0 added beside it. The ring itself still holds the exact
// values, and re-summing it once per w pushes recovers them.
TEST(SlidingWindowSumTest, RoundingErrorDoesNotOutliveTheWindow) {
  SlidingWindowSum w(4);
  w.Push(1e17);
  for (int i = 0; i < 7; ++i) w.Push(1.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 4.0);
  EXPECT_DOUBLE_EQ(w.SumLastWMinus1(), 3.0);
}

}  // namespace
}  // namespace ldpids
