#include "tsdb/memtable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"

namespace nbraft::tsdb {
namespace {

TEST(MemtableTest, StartsEmpty) {
  Memtable mt;
  EXPECT_TRUE(mt.Empty());
  EXPECT_EQ(mt.point_count(), 0u);
  EXPECT_EQ(mt.series_count(), 0u);
  EXPECT_TRUE(mt.Scan(1).empty());
}

TEST(MemtableTest, InsertAndScan) {
  Memtable mt;
  mt.Insert(1, {100, 1.0});
  mt.Insert(1, {200, 2.0});
  mt.Insert(2, {100, 9.0});
  EXPECT_EQ(mt.point_count(), 3u);
  EXPECT_EQ(mt.series_count(), 2u);
  const auto points = mt.Scan(1);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].timestamp, 100);
  EXPECT_EQ(points[1].timestamp, 200);
}

TEST(MemtableTest, ScanSortsOutOfOrderInserts) {
  Memtable mt;
  mt.Insert(1, {300, 3.0});
  mt.Insert(1, {100, 1.0});
  mt.Insert(1, {200, 2.0});
  const auto points = mt.Scan(1);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].timestamp, 100);
  EXPECT_EQ(points[1].timestamp, 200);
  EXPECT_EQ(points[2].timestamp, 300);
}

TEST(MemtableTest, DuplicateTimestampsPreservedStably) {
  Memtable mt;
  mt.Insert(1, {100, 1.0});
  mt.Insert(1, {100, 2.0});
  const auto points = mt.Scan(1);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].value, 1.0);
  EXPECT_EQ(points[1].value, 2.0);
}

TEST(MemtableTest, FlushProducesSortedChunksAndClears) {
  Memtable mt;
  mt.Insert(2, {50, 5.0});
  mt.Insert(1, {300, 3.0});
  mt.Insert(1, {100, 1.0});
  const auto chunks = mt.FlushAll();
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].series_id, 1u);
  EXPECT_EQ(chunks[1].series_id, 2u);
  EXPECT_EQ(chunks[0].point_count, 2u);
  EXPECT_EQ(chunks[0].min_timestamp, 100);
  EXPECT_EQ(chunks[0].max_timestamp, 300);
  EXPECT_TRUE(mt.Empty());

  auto decoded = chunks[0].Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].timestamp, 100);
  EXPECT_EQ((*decoded)[1].timestamp, 300);
}

TEST(MemtableTest, QuietSeriesEmitNoChunkAndAreDropped) {
  Memtable mt;
  mt.Insert(1, {100, 1.0});
  mt.Insert(2, {100, 2.0});
  ASSERT_EQ(mt.FlushAll().size(), 2u);
  // Neither flushed series holds a point any more.
  EXPECT_EQ(mt.series_count(), 0u);
  EXPECT_EQ(mt.ApproximateBytes(), 0u);
  EXPECT_TRUE(mt.Scan(2).empty());
  EXPECT_TRUE(mt.AllPoints().empty());

  // Series 2 stays quiet: the next flush emits no (empty) chunk for it.
  mt.Insert(1, {200, 3.0});
  EXPECT_EQ(mt.series_count(), 1u);
  EXPECT_EQ(mt.ApproximateBytes(), sizeof(Point) + 64);
  const auto chunks = mt.FlushAll();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].series_id, 1u);
  EXPECT_EQ(chunks[0].point_count, 1u);
  EXPECT_EQ(chunks[0].min_timestamp, 200);

  EXPECT_TRUE(mt.FlushAll().empty());
  EXPECT_TRUE(mt.Empty());
  EXPECT_EQ(mt.series_count(), 0u);

  // A dropped series that reports again starts a fresh run.
  mt.Insert(2, {300, 4.0});
  const auto again = mt.FlushAll();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].series_id, 2u);
  EXPECT_EQ(again[0].point_count, 1u);
  EXPECT_EQ(again[0].min_timestamp, 300);
}

TEST(MemtableTest, FlushEmptyYieldsNothing) {
  Memtable mt;
  EXPECT_TRUE(mt.FlushAll().empty());
}

TEST(MemtableTest, ApproximateBytesGrows) {
  Memtable mt;
  const size_t before = mt.ApproximateBytes();
  for (int i = 0; i < 100; ++i) mt.Insert(1, {i, 0.0});
  EXPECT_GT(mt.ApproximateBytes(), before + 100 * sizeof(Point) - 1);
}

// Runs of about a thousand points, shuffled in bounded steps and full of
// equal timestamps with distinct values: the flushed order must be exactly
// std::stable_sort's, across repeated flushes that reuse the buffers.
TEST(MemtableTest, FlushOrdersOutOfOrderRunsExactlyAsStableSort) {
  Memtable mt;
  Rng rng(11);
  for (int flush = 0; flush < 3; ++flush) {
    std::map<uint64_t, std::vector<Point>> inserted;
    for (int i = 0; i < 4000; ++i) {
      const uint64_t series = rng.NextBounded(4);
      const Point p{static_cast<int64_t>(i / 8 + rng.NextBounded(20)),
                    static_cast<double>(flush * 10000 + i)};
      mt.Insert(series, p);
      inserted[series].push_back(p);
    }
    mt.Insert(9, {5, 1.0});  // A run of one.
    inserted[9].push_back({5, 1.0});

    const auto chunks = mt.FlushAll();
    ASSERT_EQ(chunks.size(), inserted.size());
    size_t c = 0;
    for (auto& [series, points] : inserted) {
      std::stable_sort(points.begin(), points.end(),
                       [](const Point& a, const Point& b) {
                         return a.timestamp < b.timestamp;
                       });
      ASSERT_EQ(chunks[c].series_id, series);
      auto decoded = chunks[c].Decode();
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value(), points) << "series " << series;
      ++c;
    }
  }
}

TEST(MemtableTest, FlushedChunksHoldNoSpareCapacity) {
  Memtable mt;
  for (int i = 0; i < 1000; ++i) {
    mt.Insert(1, {i * 1000 + (i % 7) * 13, 20.0 + 0.37 * (i % 11)});
  }
  const auto chunks = mt.FlushAll();
  ASSERT_EQ(chunks.size(), 1u);
  ASSERT_GT(chunks[0].encoded_timestamps.size(), 100u);
  EXPECT_EQ(chunks[0].encoded_timestamps.capacity(),
            chunks[0].encoded_timestamps.size());
  ASSERT_GT(chunks[0].encoded_values.size(), 100u);
  EXPECT_EQ(chunks[0].encoded_values.capacity(),
            chunks[0].encoded_values.size());
}

}  // namespace
}  // namespace nbraft::tsdb
