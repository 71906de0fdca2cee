// ShardMap placement: hash stability (pinned values — changing the hash
// is a data-placement migration, not a refactor), exact partitioning of
// the series universe, and round-robin bootstrap leader placement.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "harness/shard_map.h"

namespace nbraft::harness {
namespace {

TEST(ShardMapTest, HashStabilityPins) {
  // Frozen placements for 4 groups. If this test fails the hash function
  // changed, which silently reshuffles every deployment's data.
  const ShardMap map(4);
  EXPECT_EQ(map.GroupForSeries(0), 1);
  EXPECT_EQ(map.GroupForSeries(1), 0);
  EXPECT_EQ(map.GroupForSeries(2), 3);
  EXPECT_EQ(map.GroupForSeries(3), 2);
  EXPECT_EQ(map.GroupForSeries(7), 2);
  EXPECT_EQ(map.GroupForSeries(42), 3);
  EXPECT_EQ(map.GroupForSeries(999), 3);
}

TEST(ShardMapTest, TwoInstancesAgreeAndSingleGroupIsIdentity) {
  const ShardMap a(8);
  const ShardMap b(8);
  for (uint64_t s = 0; s < 500; ++s) {
    EXPECT_EQ(a.GroupForSeries(s), b.GroupForSeries(s));
  }
  const ShardMap one(1);
  for (uint64_t s = 0; s < 100; ++s) {
    EXPECT_EQ(one.GroupForSeries(s), 0);
  }
}

TEST(ShardMapTest, SeriesForGroupPartitionsTheUniverse) {
  const ShardMap map(4);
  const uint64_t kCount = 1000;
  std::set<uint64_t> seen;
  for (int g = 0; g < 4; ++g) {
    const std::vector<uint64_t> shard = map.SeriesForGroup(g, kCount);
    EXPECT_FALSE(shard.empty());
    uint64_t prev = 0;
    bool first = true;
    for (uint64_t s : shard) {
      EXPECT_LT(s, kCount);
      EXPECT_EQ(map.GroupForSeries(s), g);
      if (!first) {
        EXPECT_GT(s, prev);  // Ascending, no duplicates.
      }
      prev = s;
      first = false;
      EXPECT_TRUE(seen.insert(s).second) << "series " << s << " in 2 shards";
    }
  }
  EXPECT_EQ(seen.size(), kCount);  // Exact partition, nothing dropped.
}

TEST(ShardMapTest, DegenerateUniverseFallsBackToRoundRobin) {
  // Fewer series than groups: hashing leaves some groups empty, and an
  // empty group falls back to a round-robin pick — every group ingests.
  const ShardMap map(8);
  for (int g = 0; g < 8; ++g) {
    const std::vector<uint64_t> shard = map.SeriesForGroup(g, 4);
    ASSERT_FALSE(shard.empty());
    for (uint64_t s : shard) {
      EXPECT_LT(s, 4u);
      if (map.GroupForSeries(s) != g) {
        // Not hash-owned, so this must be the lone round-robin fallback.
        EXPECT_EQ(shard.size(), 1u);
        EXPECT_EQ(s, static_cast<uint64_t>(g % 4));
      }
    }
  }
}

TEST(ShardMapTest, BootstrapPlacementRoundRobins) {
  const ShardMap map(16);
  EXPECT_EQ(map.BootstrapLeaderReplica(0, 3), 0);
  EXPECT_EQ(map.BootstrapLeaderReplica(1, 3), 1);
  EXPECT_EQ(map.BootstrapLeaderReplica(2, 3), 2);
  EXPECT_EQ(map.BootstrapLeaderReplica(3, 3), 0);
}

}  // namespace
}  // namespace nbraft::harness
