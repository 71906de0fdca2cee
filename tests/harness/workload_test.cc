#include "harness/workload.h"

#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "tsdb/ingest_record.h"

namespace nbraft::harness {
namespace {

TEST(WorkloadTest, PayloadMeetsTargetSize) {
  IngestWorkload workload({}, 1);
  for (size_t target : {256u, 1024u, 4096u, 65536u}) {
    const Buffer payload = workload.MakePayload(target);
    EXPECT_EQ(payload.size(), target);
  }
}

TEST(WorkloadTest, PaddingIsAZeroTailNotStoredBytes) {
  IngestWorkload workload({}, 1);
  const Buffer payload = workload.MakePayload(128 * 1024);
  EXPECT_EQ(payload.size(), 128u * 1024);
  EXPECT_LT(payload.view().size(), 1024u);  // Only the encoded batch.
  std::vector<tsdb::Measurement> batch;
  ASSERT_TRUE(tsdb::ParseIngestBatch(payload, &batch).ok());
  EXPECT_EQ(batch.size(), 16u);
}

// The logical bytes are those of the fully padded records the workload
// built before padding became a zero tail: sizes and FNV-1a digests pinned
// from that encoding, first payload of a seed-1 workload per target.
TEST(WorkloadTest, LogicalBytesMatchThePaddedEncoding) {
  const struct {
    size_t target;
    uint64_t fnv;
  } kPinned[] = {{256, 0x740fad465e43c949ull},
                 {4096, 0xee6c04f319cfe549ull},
                 {131072, 0xb61df539fd35a549ull}};
  for (const auto& pin : kPinned) {
    IngestWorkload workload({}, 1);
    const std::string bytes = workload.MakePayload(pin.target).str();
    EXPECT_EQ(bytes.size(), pin.target);
    EXPECT_EQ(Fnv1a64(bytes), pin.fnv) << "target " << pin.target;
  }
}

TEST(WorkloadTest, PayloadParsesAsIngestBatch) {
  IngestWorkload::Options options;
  options.measurements_per_request = 8;
  IngestWorkload workload(options, 2);
  const Buffer payload = workload.MakePayload(1024);
  std::vector<tsdb::Measurement> batch;
  ASSERT_TRUE(tsdb::ParseIngestBatch(payload, &batch).ok());
  EXPECT_EQ(batch.size(), 8u);
}

TEST(WorkloadTest, SeriesIdsWithinFleet) {
  IngestWorkload::Options options;
  options.series_count = 10;
  options.measurements_per_request = 32;
  IngestWorkload workload(options, 3);
  std::vector<tsdb::Measurement> batch;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        tsdb::ParseIngestBatch(workload.MakePayload(2048), &batch).ok());
    for (const auto& m : batch) EXPECT_LT(m.series_id, 10u);
  }
}

TEST(WorkloadTest, TimestampsAdvance) {
  IngestWorkload workload({}, 4);
  std::vector<tsdb::Measurement> first;
  std::vector<tsdb::Measurement> later;
  ASSERT_TRUE(tsdb::ParseIngestBatch(workload.MakePayload(512), &first).ok());
  for (int i = 0; i < 50; ++i) workload.MakePayload(512);
  ASSERT_TRUE(tsdb::ParseIngestBatch(workload.MakePayload(512), &later).ok());
  EXPECT_GT(later[0].point.timestamp, first[0].point.timestamp);
}

TEST(WorkloadTest, DeterministicPerSeed) {
  IngestWorkload a({}, 7);
  IngestWorkload b({}, 7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.MakePayload(1024), b.MakePayload(1024));
  }
  IngestWorkload c({}, 8);
  EXPECT_NE(a.MakePayload(1024), c.MakePayload(1024));
}

TEST(WorkloadTest, ZipfSkewConcentratesSeries) {
  IngestWorkload::Options options;
  options.series_count = 100;
  options.zipf_skew = 1.2;
  options.measurements_per_request = 64;
  IngestWorkload workload(options, 9);
  std::map<uint64_t, int> counts;
  std::vector<tsdb::Measurement> batch;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tsdb::ParseIngestBatch(workload.MakePayload(4096), &batch).ok());
    for (const auto& m : batch) ++counts[m.series_id];
  }
  // The most popular series dominates under skew.
  int max_count = 0;
  int total = 0;
  for (const auto& [id, c] : counts) {
    max_count = std::max(max_count, c);
    total += c;
  }
  EXPECT_GT(max_count, total / 20);
}

TEST(WorkloadTest, CountsRequests) {
  IngestWorkload workload({}, 10);
  EXPECT_EQ(workload.requests_generated(), 0u);
  workload.MakePayload(100);
  workload.MakePayload(100);
  EXPECT_EQ(workload.requests_generated(), 2u);
}

}  // namespace
}  // namespace nbraft::harness
