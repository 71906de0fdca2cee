#include "tsdb/ingest_record.h"

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/random.h"

namespace nbraft::tsdb {
namespace {

std::vector<Measurement> SampleBatch() {
  return {
      {1, {1000, 20.5}},
      {2, {1001, -3.25}},
      {1, {2000, 20.6}},
  };
}

TEST(IngestRecordTest, RoundTrip) {
  std::string buf;
  EncodeIngestBatch(SampleBatch(), &buf);
  std::vector<Measurement> parsed;
  const Status status = ParseIngestBatch(buf, &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(parsed, SampleBatch());
}

/// The record padded to `target_size` the way the workload pads it: as a
/// Buffer zero tail.
Buffer Padded(const std::vector<Measurement>& batch, size_t target_size) {
  std::string buf;
  EncodeIngestBatch(batch, &buf);
  return Buffer(std::move(buf), target_size);
}

TEST(IngestRecordTest, PaddingToTargetSize) {
  const Buffer buf = Padded(SampleBatch(), 4096);
  EXPECT_EQ(buf.size(), 4096u);
  std::vector<Measurement> parsed;
  ASSERT_TRUE(ParseIngestBatch(buf.str(), &parsed).ok());
  EXPECT_EQ(parsed, SampleBatch());
}

TEST(IngestRecordTest, TargetSmallerThanNaturalKeepsNatural) {
  const Buffer buf = Padded(SampleBatch(), 1);
  std::vector<Measurement> parsed;
  ASSERT_TRUE(ParseIngestBatch(buf.str(), &parsed).ok());
  EXPECT_EQ(parsed.size(), 3u);
}

TEST(IngestRecordTest, EmptyBatch) {
  const Buffer buf = Padded({}, 64);
  EXPECT_EQ(buf.size(), 64u);
  std::vector<Measurement> parsed;
  ASSERT_TRUE(ParseIngestBatch(buf.str(), &parsed).ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(IngestRecordTest, AppendsToExistingBuffer) {
  std::string buf = "prefix";
  EncodeIngestBatch(SampleBatch(), &buf);
  EXPECT_EQ(buf.substr(0, 6), "prefix");
  std::vector<Measurement> parsed;
  ASSERT_TRUE(ParseIngestBatch(std::string_view(buf).substr(6), &parsed).ok());
  EXPECT_EQ(parsed.size(), 3u);
}

TEST(IngestRecordTest, TruncatedFails) {
  std::string buf;
  EncodeIngestBatch(SampleBatch(), &buf);
  std::vector<Measurement> parsed;
  for (size_t keep = 0; keep + 10 < buf.size(); keep += 7) {
    EXPECT_FALSE(
        ParseIngestBatch(std::string_view(buf).substr(0, keep), &parsed).ok())
        << "kept " << keep;
  }
}

TEST(IngestRecordTest, ImplausibleCountRejected) {
  // A count claiming more measurements than bytes available.
  std::string buf;
  buf.push_back('\x7f');  // count = 127, no data.
  std::vector<Measurement> parsed;
  EXPECT_FALSE(ParseIngestBatch(buf, &parsed).ok());
}

TEST(IngestRecordTest, CountJustOverTheTenBytesPerMeasurementBound) {
  // Two measurements need at least 20 bytes after the count.
  std::string at_bound(1, '\x02');
  at_bound.append(20, '\0');  // Two all-zero minimal measurements.
  std::vector<Measurement> parsed;
  ASSERT_TRUE(ParseIngestBatch(at_bound, &parsed).ok());
  EXPECT_EQ(parsed.size(), 2u);

  const std::string over = at_bound.substr(0, at_bound.size() - 1);
  const Status status = ParseIngestBatch(over, &parsed);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("implausible count"), std::string::npos)
      << status.ToString();
}

TEST(IngestRecordTest, GarbageRejectedOrEmpty) {
  std::vector<Measurement> parsed;
  EXPECT_FALSE(ParseIngestBatch("", &parsed).ok());
}

TEST(IngestRecordTest, RandomizedRoundTrip) {
  Rng rng(21);
  for (int round = 0; round < 100; ++round) {
    std::vector<Measurement> batch;
    const size_t n = rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      Measurement m;
      m.series_id = rng.Next() >> rng.NextBounded(60);
      m.point.timestamp = rng.NextInRange(-1'000'000, 2'000'000'000);
      m.point.value = rng.NextGaussian(0, 1e4);
      batch.push_back(m);
    }
    const Buffer buf = Padded(batch, rng.NextBounded(2048));
    std::vector<Measurement> parsed;
    ASSERT_TRUE(ParseIngestBatch(buf.str(), &parsed).ok());
    ASSERT_EQ(parsed, batch);
  }
}

}  // namespace
}  // namespace nbraft::tsdb
