#include "tsdb/state_machine.h"

#include <gtest/gtest.h>

#include "storage/log_entry.h"
#include "tsdb/ingest_record.h"

namespace nbraft::tsdb {
namespace {

storage::LogEntry IngestEntry(storage::LogIndex index,
                              const std::vector<Measurement>& batch,
                              size_t target_size = 0) {
  storage::LogEntry e;
  e.index = index;
  e.term = 1;
  e.prev_term = 1;
  std::string bytes;
  EncodeIngestBatch(batch, &bytes);
  e.payload = Buffer(std::move(bytes), target_size);
  return e;
}

TEST(TsdbStateMachineTest, AppliesAndQueries) {
  TsdbStateMachine sm;
  sm.Apply(IngestEntry(1, {{7, {100, 1.5}}, {7, {200, 2.5}}}));
  sm.Apply(IngestEntry(2, {{7, {300, 3.5}}, {9, {100, 9.0}}}));
  EXPECT_EQ(sm.applied_entries(), 2u);
  EXPECT_EQ(sm.ingested_points(), 4u);
  auto points = sm.Query(7);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[2].value, 3.5);
  EXPECT_EQ(sm.PointCount(7), 3u);
  EXPECT_EQ(sm.PointCount(9), 1u);
  EXPECT_EQ(sm.PointCount(12345), 0u);
}

TEST(TsdbStateMachineTest, ApplyCostPositiveAndGrowsWithBatch) {
  TsdbStateMachine sm;
  const SimDuration small =
      sm.Apply(IngestEntry(1, {{1, {1, 1.0}}}));
  std::vector<Measurement> big;
  for (int i = 0; i < 100; ++i) big.push_back({1, {i + 10, 1.0}});
  const SimDuration large = sm.Apply(IngestEntry(2, big));
  EXPECT_GT(small, 0);
  EXPECT_GT(large, small);
}

TEST(TsdbStateMachineTest, FlushAtThreshold) {
  TsdbStateMachine::Options options;
  options.flush_threshold_points = 10;
  TsdbStateMachine sm(options);
  std::vector<Measurement> batch;
  for (int i = 0; i < 10; ++i) batch.push_back({1, {i * 100, 1.0}});
  EXPECT_EQ(sm.flushed_chunks(), 0u);
  sm.Apply(IngestEntry(1, batch));
  EXPECT_EQ(sm.flushed_chunks(), 1u);
  EXPECT_TRUE(sm.memtable().Empty());
  // Data remains queryable across the flush boundary.
  EXPECT_EQ(sm.PointCount(1), 10u);
  auto points = sm.Query(1);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 10u);
}

TEST(TsdbStateMachineTest, QueryMergesChunksAndMemtable) {
  TsdbStateMachine::Options options;
  options.flush_threshold_points = 2;
  TsdbStateMachine sm(options);
  sm.Apply(IngestEntry(1, {{5, {100, 1.0}}, {5, {200, 2.0}}}));  // Flushes.
  sm.Apply(IngestEntry(2, {{5, {300, 3.0}}}));  // Stays in memtable.
  auto points = sm.Query(5);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[0].timestamp, 100);
  EXPECT_EQ((*points)[2].timestamp, 300);
}

TEST(TsdbStateMachineTest, CorruptPayloadCountedNotFatal) {
  TsdbStateMachine sm;
  storage::LogEntry bad;
  bad.index = 1;
  bad.payload = "\x50 garbage that is not an ingest batch";
  sm.Apply(bad);
  EXPECT_EQ(sm.corrupt_batches(), 1u);
  EXPECT_EQ(sm.ingested_points(), 0u);
  EXPECT_EQ(sm.applied_entries(), 1u);
}

TEST(TsdbStateMachineTest, CorruptBatchAfterGoodBatchInsertsNothing) {
  TsdbStateMachine sm;
  sm.Apply(IngestEntry(1, {{7, {100, 1.5}}, {8, {100, 2.5}}}));
  // Three well-formed measurements, then the record is cut inside the
  // fourth: the parse fails after filling the reused buffer partway.
  const std::vector<Measurement> batch = {
      {7, {200, 3.5}}, {8, {200, 4.5}}, {9, {200, 5.5}}, {9, {300, 6.5}}};
  storage::LogEntry bad = IngestEntry(2, batch);
  bad.payload = std::string(bad.payload.view().substr(
      0, bad.payload.size() - 3));
  sm.Apply(bad);
  EXPECT_EQ(sm.corrupt_batches(), 1u);
  EXPECT_EQ(sm.applied_entries(), 2u);
  EXPECT_EQ(sm.ingested_points(), 2u);
  EXPECT_EQ(sm.memtable().point_count(), 2u);
  EXPECT_EQ(sm.PointCount(7), 1u);
  EXPECT_EQ(sm.PointCount(9), 0u);

  // The next good batch inserts exactly its own points.
  sm.Apply(IngestEntry(3, {{9, {400, 7.5}}}));
  EXPECT_EQ(sm.ingested_points(), 3u);
  EXPECT_EQ(sm.PointCount(9), 1u);
}

TEST(TsdbStateMachineTest, ParseCostScalesWithBytes) {
  TsdbStateMachine sm;
  EXPECT_GT(sm.ParseCost(64 * 1024), sm.ParseCost(1024));
}

TEST(TsdbStateMachineTest, NameIsStable) {
  TsdbStateMachine sm;
  EXPECT_EQ(sm.name(), "tsdb");
}

TEST(FileStoreStateMachineTest, PaysIoPerRequest) {
  FileStoreStateMachine sm;
  storage::LogEntry e;
  e.index = 1;
  e.payload = std::string(4096, 'x');
  const SimDuration cost = sm.Apply(e);
  EXPECT_GE(cost, Micros(100));  // Synchronous I/O dominates.
  EXPECT_EQ(sm.applied_entries(), 1u);
  EXPECT_EQ(sm.bytes_written(), 4096u);
}

TEST(FileStoreStateMachineTest, CostGrowsWithPayload) {
  FileStoreStateMachine sm;
  storage::LogEntry small;
  small.payload = std::string(1024, 'x');
  storage::LogEntry large;
  large.payload = std::string(1024 * 1024, 'x');
  EXPECT_GT(sm.Apply(large), sm.Apply(small));
}

TEST(FileStoreStateMachineTest, ApplyCostExceedsTsdbProfile) {
  // The Fig. 4 contrast: Ratis FileStore pays I/O per request while IoTDB
  // batches in memory.
  FileStoreStateMachine filestore;
  TsdbStateMachine tsdb;
  const auto entry = IngestEntry(1, {{1, {1, 1.0}}}, 4096);
  EXPECT_GT(filestore.Apply(entry), tsdb.Apply(entry));
}

TEST(FileStoreStateMachineTest, PointCountUnsupported) {
  FileStoreStateMachine sm;
  EXPECT_EQ(sm.PointCount(1), 0u);
}

}  // namespace
}  // namespace nbraft::tsdb
