// The compressed telemetry store: every sampled series survives the
// Gorilla encode/decode round trip bit-exactly (the system monitors itself
// with its own storage format), chunks seal on the configured boundary,
// and the Sampler's store records exactly the values its sources returned.

#include "obs/series_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "obs/sampler.h"
#include "sim/simulator.h"

namespace nbraft::obs {
namespace {

uint64_t Bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

TEST(SeriesStoreTest, RoundTripIsBitExact) {
  SeriesStore store(/*chunk_points=*/32);
  const size_t s = store.AddSeries("raft.window_occupancy");

  // Awkward doubles on an irregular (but monotone) virtual-time grid:
  // zeros and negative zero, denormals, huge magnitudes, long runs of the
  // same value (the XOR encoder's best case) and sign flips (its worst).
  std::vector<tsdb::Point> expected;
  SimTime at = 0;
  double value = 0.0;
  for (int i = 0; i < 200; ++i) {
    at += (i % 7 == 0) ? Micros(13) : Millis(1);
    switch (i % 8) {
      case 0: value = 0.0; break;
      case 1: value = -0.0; break;
      case 2: value = 5e-324; break;  // Smallest denormal.
      case 3: value = 1.7e308; break;
      case 4: value = static_cast<double>(i); break;
      case 5: value = static_cast<double>(i); break;  // Repeat.
      case 6: value = -3.14159265358979 * i; break;
      default: value = 1.0 / (i + 1); break;
    }
    store.Append(s, at, value);
    expected.push_back({at, value});
  }

  ASSERT_EQ(store.point_count(s), expected.size());
  const auto decoded = store.Decode(s);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*decoded)[i].timestamp, expected[i].timestamp) << "at " << i;
    EXPECT_EQ(Bits((*decoded)[i].value), Bits(expected[i].value))
        << "value bits diverge at " << i;
  }
}

TEST(SeriesStoreTest, SealsOnChunkBoundaryAndDecodesAcrossChunksAndTail) {
  SeriesStore store(/*chunk_points=*/4);
  const size_t s = store.AddSeries("sim.cpu_queue_depth");
  for (int i = 0; i < 10; ++i) {
    store.Append(s, Millis(i), static_cast<double>(i * i));
  }
  // 10 points at 4/chunk: 2 sealed chunks + a 2-point open tail.
  EXPECT_EQ(store.chunks(s).size(), 2u);
  EXPECT_EQ(store.point_count(s), 10u);
  EXPECT_EQ(store.raw_bytes(s), 160u);
  EXPECT_GT(store.encoded_bytes(s), 0u);

  const auto decoded = store.Decode(s);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*decoded)[static_cast<size_t>(i)].timestamp, Millis(i));
    EXPECT_EQ((*decoded)[static_cast<size_t>(i)].value,
              static_cast<double>(i * i));
  }

  store.SealAll();
  EXPECT_EQ(store.chunks(s).size(), 3u);
  const auto resealed = store.Decode(s);
  ASSERT_TRUE(resealed.ok());
  EXPECT_EQ(resealed->size(), 10u);
}

TEST(SeriesStoreTest, SeriesAreIndependent) {
  SeriesStore store(/*chunk_points=*/8);
  const size_t a = store.AddSeries("raft.apply_lag");
  const size_t b = store.AddSeries("net.bytes_sent");
  EXPECT_EQ(store.name(a), "raft.apply_lag");
  EXPECT_EQ(store.name(b), "net.bytes_sent");
  for (int i = 0; i < 20; ++i) store.Append(a, i, 1.0);
  store.Append(b, 5, 42.0);

  EXPECT_EQ(store.point_count(a), 20u);
  EXPECT_EQ(store.point_count(b), 1u);
  const auto db = store.Decode(b);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 1u);
  EXPECT_EQ((*db)[0].value, 42.0);
}

TEST(SeriesStoreTest, EmptySeriesDecodesToNothing) {
  SeriesStore store;
  const size_t s = store.AddSeries("raft.replication_lag");
  const auto decoded = store.Decode(s);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
  EXPECT_EQ(store.encoded_bytes(s), 0u);
}

TEST(SamplerMirrorTest, StoreReproducesRawSampleStreamBitExactly) {
  sim::Simulator sim(1);
  Sampler sampler(&sim, Millis(1));
  // Each source logs what it returned: the raw stream the store must hold.
  std::vector<double> raw[2];
  int tick = 0;
  sampler.AddSource("sim.cpu_queue_depth", [&]() {
    raw[0].push_back(static_cast<double>(tick++));
    return raw[0].back();
  });
  sampler.AddSource("raft.window_occupancy", [&]() {
    raw[1].push_back(0.37 * tick);
    return raw[1].back();
  });
  sampler.Start();
  // Past the store's 512-point chunk, so the decode spans a sealed chunk
  // and the open tail.
  sim.RunUntil(Millis(600));
  sampler.Stop();

  const SeriesStore& store = sampler.store();
  ASSERT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.name(0), "sim.cpu_queue_depth");
  EXPECT_EQ(store.name(1), "raft.window_occupancy");
  for (size_t series = 0; series < 2; ++series) {
    EXPECT_EQ(store.chunks(series).size(), 1u);
    const auto decoded = store.Decode(series);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), raw[series].size());
    for (size_t i = 0; i < raw[series].size(); ++i) {
      EXPECT_EQ((*decoded)[i].timestamp, Millis(static_cast<int64_t>(i)));
      EXPECT_EQ(Bits((*decoded)[i].value), Bits(raw[series][i]))
          << store.name(series) << " sample " << i;
    }
  }
}

}  // namespace
}  // namespace nbraft::obs
