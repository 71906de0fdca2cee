#include "tsdb/encoding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "tsdb/bitstream.h"

namespace nbraft::tsdb {
namespace {

// ---- Bitstream ----

TEST(BitstreamTest, RoundTripMixedWidths) {
  std::string buf;
  BitWriter w(&buf);
  w.Write(0b101, 3);
  w.Write(0xdeadbeef, 32);
  w.WriteBit(true);
  w.Write(0x0123456789abcdefULL, 64);
  w.Finish();

  BitReader r(buf);
  uint64_t v = 0;
  ASSERT_TRUE(r.Read(&v, 3));
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(r.Read(&v, 32));
  EXPECT_EQ(v, 0xdeadbeefu);
  bool bit = false;
  ASSERT_TRUE(r.ReadBit(&bit));
  EXPECT_TRUE(bit);
  ASSERT_TRUE(r.Read(&v, 64));
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(BitstreamTest, ReadPastEndFails) {
  std::string buf;
  BitWriter w(&buf);
  w.Write(0xff, 8);
  w.Finish();
  BitReader r(buf);
  uint64_t v = 0;
  ASSERT_TRUE(r.Read(&v, 8));
  EXPECT_FALSE(r.Read(&v, 1));
}

TEST(BitstreamTest, ZeroBitsReadsNothing) {
  std::string buf;
  BitWriter w(&buf);
  w.Write(0, 0);
  w.Finish();
  EXPECT_TRUE(buf.empty());
  BitReader r(buf);
  uint64_t v = 99;
  EXPECT_TRUE(r.Read(&v, 0));
  EXPECT_EQ(v, 0u);
}

TEST(BitstreamTest, MatchesBitAtATimeReference) {
  // Reference: the simplest MSB-first writer, one bit per step.
  struct Reference {
    std::string out;
    uint8_t current = 0;
    int filled = 0;
    size_t bits = 0;
    void Put(bool bit) {
      current = static_cast<uint8_t>((current << 1) | (bit ? 1 : 0));
      ++bits;
      if (++filled == 8) {
        out.push_back(static_cast<char>(current));
        current = 0;
        filled = 0;
      }
    }
    void Write(uint64_t value, int width) {
      for (int i = width - 1; i >= 0; --i) Put(((value >> i) & 1) != 0);
    }
    void Finish() {
      if (filled > 0) {
        out.push_back(static_cast<char>(current << (8 - filled)));
      }
    }
  };

  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    std::string buf = "prefix";  // The writer appends after existing bytes.
    BitWriter w(&buf);
    Reference ref;
    ref.out = buf;
    const size_t writes = rng.NextBounded(100);
    for (size_t i = 0; i < writes; ++i) {
      const int width = static_cast<int>(rng.NextBounded(65));
      // Bits above `width` must be ignored.
      const uint64_t value = rng.Next();
      w.Write(value, width);
      ref.Write(value, width);
      ASSERT_EQ(w.bit_count(), ref.bits);
    }
    w.Finish();
    ref.Finish();
    ASSERT_EQ(w.bit_count(), ref.bits);
    ASSERT_EQ(buf, ref.out) << "round " << round;
  }
}

// ---- Timestamp encoding ----

class TimestampCodecTest
    : public ::testing::TestWithParam<std::vector<int64_t>> {};

TEST_P(TimestampCodecTest, RoundTrip) {
  const std::vector<int64_t>& ts = GetParam();
  std::string buf;
  EncodeTimestamps(ts, &buf);
  auto decoded = DecodeTimestamps(buf, ts.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), ts);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, TimestampCodecTest,
    ::testing::Values(
        std::vector<int64_t>{},
        std::vector<int64_t>{1600000000000},
        // Perfectly regular 1 Hz sampling: the common IoT case.
        std::vector<int64_t>{1000, 2000, 3000, 4000, 5000, 6000},
        // Small jitter around the interval.
        std::vector<int64_t>{1000, 2003, 2995, 4001, 5000, 6010},
        // Negative and decreasing values.
        std::vector<int64_t>{-50, -100, -20, 0, 7},
        // Large jumps requiring the 64-bit escape.
        std::vector<int64_t>{0, 1, int64_t{1} << 40, (int64_t{1} << 40) + 1},
        // Boundary deltas of each bucket.
        std::vector<int64_t>{0, 64, 64 + 64 + 65, 500, 1000, 5000}));

TEST(TimestampCodecTest, RegularSeriesCompressesToOneBitPerPoint) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 1000; ++i) ts.push_back(1600000000000 + i * 1000);
  std::string buf;
  EncodeTimestamps(ts, &buf);
  // Header 8B + ~7 bits for the first delta + 1 bit each after.
  EXPECT_LT(buf.size(), 8 + 2 + 1000 / 8 + 8);
}

TEST(TimestampCodecTest, TruncatedBufferFails) {
  std::vector<int64_t> ts = {100, 200, 350, 500};
  std::string buf;
  EncodeTimestamps(ts, &buf);
  auto decoded = DecodeTimestamps(buf.substr(0, 4), ts.size());
  EXPECT_FALSE(decoded.ok());
}

TEST(TimestampCodecTest, RandomizedRoundTrip) {
  Rng rng(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int64_t> ts;
    int64_t t = static_cast<int64_t>(rng.NextBounded(1ull << 40));
    const size_t n = 1 + rng.NextBounded(200);
    for (size_t i = 0; i < n; ++i) {
      t += rng.NextInRange(-10000, 100000);
      ts.push_back(t);
    }
    std::string buf;
    EncodeTimestamps(ts, &buf);
    auto decoded = DecodeTimestamps(buf, ts.size());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value(), ts);
  }
}

// ---- Gorilla value encoding ----

class ValueCodecTest : public ::testing::TestWithParam<std::vector<double>> {
};

TEST_P(ValueCodecTest, RoundTrip) {
  const std::vector<double>& values = GetParam();
  std::string buf;
  EncodeValues(values, &buf);
  auto decoded = DecodeValues(buf, values.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan((*decoded)[i]));
    } else {
      EXPECT_EQ((*decoded)[i], values[i]) << "at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ValueCodecTest,
    ::testing::Values(
        std::vector<double>{},
        std::vector<double>{42.0},
        // Constant plateau: the best case (1 bit per repeat).
        std::vector<double>{21.5, 21.5, 21.5, 21.5, 21.5},
        // Slow sensor drift.
        std::vector<double>{20.0, 20.1, 20.2, 20.15, 20.3},
        // Sign changes and zero.
        std::vector<double>{-1.5, 0.0, 1.5, -0.0, 2.25},
        // Special values.
        std::vector<double>{std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 1.0},
        std::vector<double>{std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::min()}));

TEST(ValueCodecTest, ConstantSeriesCompressesToOneBitPerPoint) {
  std::vector<double> values(1000, 3.14159);
  std::string buf;
  EncodeValues(values, &buf);
  EXPECT_LT(buf.size(), 8 + 1000 / 8 + 2);
}

TEST(ValueCodecTest, RandomizedRoundTrip) {
  Rng rng(17);
  for (int round = 0; round < 50; ++round) {
    std::vector<double> values;
    const size_t n = 1 + rng.NextBounded(300);
    double v = rng.NextGaussian(0, 100);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.3)) v = rng.NextGaussian(0, 1e6);
      if (rng.NextBool(0.2)) v += rng.NextGaussian(0, 0.01);
      values.push_back(v);
    }
    std::string buf;
    EncodeValues(values, &buf);
    auto decoded = DecodeValues(buf, values.size());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value(), values);
  }
}

TEST(ValueCodecTest, TruncatedBufferFails) {
  std::vector<double> values = {1.0, 2.0, 3.0};
  std::string buf;
  EncodeValues(values, &buf);
  auto decoded = DecodeValues(buf.substr(0, 5), values.size());
  EXPECT_FALSE(decoded.ok());
}

// ---- Chunk ----

TEST(ChunkTest, BuildAndDecode) {
  std::vector<Point> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back(Point{1000 + i * 10, 20.0 + 0.01 * i});
  }
  Chunk chunk = BuildChunk(7, points);
  EXPECT_EQ(chunk.series_id, 7u);
  EXPECT_EQ(chunk.point_count, 100u);
  EXPECT_EQ(chunk.min_timestamp, 1000);
  EXPECT_EQ(chunk.max_timestamp, 1990);
  auto decoded = chunk.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), points);
}

TEST(ChunkTest, EmptyChunk) {
  Chunk chunk = BuildChunk(1, {});
  EXPECT_EQ(chunk.point_count, 0u);
  auto decoded = chunk.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(ChunkTest, CompressionBeatsRawForRegularData) {
  std::vector<Point> points;
  for (int i = 0; i < 1000; ++i) {
    points.push_back(Point{i * 1000, 42.0});
  }
  Chunk chunk = BuildChunk(1, points);
  EXPECT_LT(chunk.EncodedBytes(), points.size() * sizeof(Point) / 10);
}

TEST(ChunkTest, EncodedBytesArePinned) {
  // Chunk bytes size tsdb snapshots, and snapshot size sets the modelled
  // InstallSnapshot wire time, so the encoders must stay byte-identical.
  // The seeded series exercises every delta-of-delta width and both
  // Gorilla window cases; the sizes and hashes were taken from the
  // byte-at-a-time BitWriter that the word-at-a-time one replaced.
  Rng rng(2023);
  std::vector<Point> points;
  int64_t t = 1'600'000'000'000;
  double v = 20.0;
  for (int i = 0; i < 2000; ++i) {
    switch (rng.NextBounded(5)) {
      case 0: t += 1000; break;
      case 1: t += 1000 + rng.NextInRange(-60, 60); break;
      case 2: t += 1000 + rng.NextInRange(-250, 250); break;
      case 3: t += 1000 + rng.NextInRange(-2000, 2000); break;
      default: t += rng.NextInRange(0, 10'000'000); break;
    }
    if (rng.NextBool(0.3)) v += rng.NextGaussian(0.0, 0.25);
    if (rng.NextBool(0.05)) v = rng.NextGaussian(0.0, 1e6);
    points.push_back(Point{t, v});
  }
  const Chunk chunk = BuildChunk(5, points);
  EXPECT_EQ(chunk.encoded_timestamps.size(), 8258u);
  EXPECT_EQ(chunk.encoded_values.size(), 5442u);
  EXPECT_EQ(Fnv1a64(chunk.encoded_timestamps), 0x34ec7d35a5e32d98u);
  EXPECT_EQ(Fnv1a64(chunk.encoded_values), 0xd5de52308ca71594u);
  auto decoded = chunk.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), points);
}

}  // namespace
}  // namespace nbraft::tsdb
