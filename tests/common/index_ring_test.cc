#include "common/index_ring.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"

namespace nbraft {
namespace {

std::vector<int64_t> Keys(const IndexRing<int>& ring) {
  std::vector<int64_t> keys;
  ring.ForEach([&](int64_t index, const int&) { keys.push_back(index); });
  return keys;
}

TEST(IndexRingTest, StartsEmpty) {
  IndexRing<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.Find(0), nullptr);
  EXPECT_FALSE(ring.Erase(3));
}

TEST(IndexRingTest, InsertsAtBothEndsAndIteratesAscending) {
  IndexRing<int> ring;
  ring[10] = 1;
  ring[14] = 2;
  ring[7] = 3;  // Below the front: the ring extends downwards.
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.front_index(), 7);
  EXPECT_EQ(ring.back_index(), 14);
  EXPECT_EQ(Keys(ring), (std::vector<int64_t>{7, 10, 14}));
  EXPECT_EQ(*ring.Find(14), 2);
  EXPECT_EQ(ring.Find(8), nullptr) << "a hole inside the span";
  EXPECT_EQ(ring[10], 1) << "operator[] keeps an existing value";
}

TEST(IndexRingTest, ErasingAnEndTrimsTheHolesNextToIt) {
  IndexRing<int> ring;
  for (const int64_t i : {3, 5, 9, 12}) ring[i] = static_cast<int>(i);
  ring.PopFront();
  EXPECT_EQ(ring.front_index(), 5);
  EXPECT_TRUE(ring.Erase(12));
  EXPECT_EQ(ring.back_index(), 9);
  EXPECT_TRUE(ring.Erase(5));
  EXPECT_EQ(ring.front_index(), 9);
  EXPECT_EQ(ring.back_index(), 9);
  EXPECT_TRUE(ring.Erase(9));
  EXPECT_TRUE(ring.empty());
  ring[100] = 7;  // Reuse after emptying, far from the old span.
  EXPECT_EQ(ring.front_index(), 100);
  EXPECT_EQ(Keys(ring), (std::vector<int64_t>{100}));
}

TEST(IndexRingTest, EraseFromDropsTheTail) {
  IndexRing<int> ring;
  for (int64_t i = 1; i <= 6; ++i) ring[i] = 0;
  ring.EraseFrom(4);
  EXPECT_EQ(Keys(ring), (std::vector<int64_t>{1, 2, 3}));
  ring.EraseFrom(0);
  EXPECT_TRUE(ring.empty());
}

TEST(IndexRingTest, ErasedSlotsReleaseTheirValues) {
  IndexRing<std::string> ring;
  ring[1] = std::string(100, 'a');
  ring.Erase(1);
  ring[1];
  EXPECT_TRUE(ring.Find(1)->empty())
      << "a reused slot starts value-initialised";
  ring[2] = std::string(3, 'b');
  ring.Clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring[2].empty());
}

// Random inserts and erases inside a sliding range, checked against
// std::map: growth, wrap-around and trimming keep the same contents and
// order.
TEST(IndexRingTest, MatchesAnOrderedMapUnderASlidingWorkload) {
  IndexRing<int> ring;
  std::map<int64_t, int> model;
  Rng rng(7);
  int64_t base = 1000;
  for (int step = 0; step < 20000; ++step) {
    const int64_t index = base + static_cast<int64_t>(rng.NextBounded(40));
    if (rng.NextBounded(3) != 0) {
      ring[index] = step;
      model[index] = step;
    } else {
      EXPECT_EQ(ring.Erase(index), model.erase(index) == 1);
    }
    if (rng.NextBounded(4) == 0 && !model.empty()) {
      ring.PopFront();
      model.erase(model.begin());
    }
    if (step % 50 == 0) base += static_cast<int64_t>(rng.NextBounded(30));
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(ring.front_index(), model.begin()->first);
      ASSERT_EQ(ring.back_index(), model.rbegin()->first);
    }
  }
  std::vector<std::pair<int64_t, int>> contents;
  ring.ForEach([&](int64_t index, const int& value) {
    contents.emplace_back(index, value);
  });
  EXPECT_EQ(contents,
            (std::vector<std::pair<int64_t, int>>(model.begin(), model.end())));
}

}  // namespace
}  // namespace nbraft
