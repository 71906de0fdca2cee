#include "obs/sampler.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace nbraft::obs {
namespace {

std::vector<tsdb::Point> Points(const Sampler& sampler, size_t series) {
  auto points = sampler.store().Decode(series);
  EXPECT_TRUE(points.ok()) << points.status().ToString();
  return points.ok() ? *points : std::vector<tsdb::Point>{};
}

TEST(SamplerTest, SamplesSourcesAtFixedVirtualInterval) {
  sim::Simulator sim(1);
  Sampler sampler(&sim, Millis(10));
  int64_t live = 0;
  sampler.AddSource("live", [&live]() { return static_cast<double>(live); });
  sampler.Start();
  // Bump the source between ticks so samples see distinct values.
  for (int i = 1; i <= 4; ++i) {
    sim.After(Millis(10 * i - 5), [&live]() { ++live; });
  }
  sim.RunUntil(Millis(35));
  sampler.Stop();
  sim.RunUntil(Millis(100));  // No ticks after Stop().

  ASSERT_EQ(sampler.store().series_count(), 1u);
  EXPECT_EQ(sampler.store().name(0), "live");
  const std::vector<tsdb::Point> points = Points(sampler, 0);
  // Start() samples immediately at t=0, then t=10,20,30ms.
  ASSERT_EQ(points.size(), 4u);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].timestamp, Millis(10) * static_cast<int64_t>(i));
    EXPECT_DOUBLE_EQ(points[i].value, static_cast<double>(i));
  }
}

TEST(SamplerTest, DeterministicAcrossIdenticalRuns) {
  auto run = []() {
    sim::Simulator sim(7);
    Sampler sampler(&sim, Micros(500));
    int64_t x = 0;
    sampler.AddSource("x", [&x]() { return static_cast<double>(x); });
    sampler.AddSource("2x", [&x]() { return static_cast<double>(2 * x); });
    sampler.Start();
    for (int i = 0; i < 20; ++i) {
      sim.After(Micros(130 * (i + 1)), [&x]() { x += 3; });
    }
    sim.RunUntil(Millis(5));
    return std::vector<std::vector<tsdb::Point>>{Points(sampler, 0),
                                                 Points(sampler, 1)};
  };

  const auto a = run();
  const auto b = run();
  for (size_t series = 0; series < 2; ++series) {
    ASSERT_EQ(a[series].size(), b[series].size());
    ASSERT_FALSE(a[series].empty());
    for (size_t i = 0; i < a[series].size(); ++i) {
      EXPECT_EQ(a[series][i].timestamp, b[series][i].timestamp);
      EXPECT_DOUBLE_EQ(a[series][i].value, b[series][i].value);
    }
  }
}

// A source registered after Start() would leave its series short of the
// others, so the exporters' one-point-per-tick layout would break.
TEST(SamplerDeathTest, AddSourceAfterStartDies) {
  sim::Simulator sim(1);
  Sampler sampler(&sim, Millis(1));
  sampler.AddSource("early", []() { return 1.0; });
  sampler.Start();
  EXPECT_DEATH(sampler.AddSource("late", []() { return 2.0; }),
               "AddSource after Start");
}

TEST(SamplerTest, RestartKeepsOneSeriesPerSource) {
  sim::Simulator sim(1);
  Sampler sampler(&sim, Millis(1));
  sampler.AddSource("a", []() { return 1.0; });
  sampler.AddSource("b", []() { return 2.0; });
  sampler.Start();
  sim.RunUntil(Millis(3));
  sampler.Stop();
  sim.RunUntil(Millis(10));
  sampler.Start();
  sim.RunUntil(Millis(12));

  // Both runs append to the same two series: 4 ticks (0-3 ms), a gap,
  // then 3 more (10-12 ms).
  ASSERT_EQ(sampler.store().series_count(), 2u);
  for (size_t series = 0; series < 2; ++series) {
    const std::vector<tsdb::Point> points = Points(sampler, series);
    ASSERT_EQ(points.size(), 7u);
    EXPECT_EQ(points[3].timestamp, Millis(3));
    EXPECT_EQ(points[4].timestamp, Millis(10));
  }
}

}  // namespace
}  // namespace nbraft::obs
