#include "obs/tracer.h"

#include <gtest/gtest.h>

#include "metrics/breakdown.h"

namespace nbraft::obs {
namespace {

using metrics::Phase;

TEST(TracerTest, RecordsSpansInOrder) {
  Tracer tracer;
  tracer.RecordSpan(Phase::kParse, 0, 1, 10, 7, 100, 150);
  tracer.RecordSpan(Phase::kIndex, 0, 1, 10, 7, 150, 180);
  tracer.RecordSpan(Phase::kQueue, 0, 1, 10, 7, 180, 400);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].phase, Phase::kParse);
  EXPECT_EQ(spans[1].phase, Phase::kIndex);
  EXPECT_EQ(spans[2].phase, Phase::kQueue);
  EXPECT_EQ(spans[0].start, 100);
  EXPECT_EQ(spans[0].end, 150);
  EXPECT_EQ(spans[0].duration(), 50);
  EXPECT_EQ(spans[0].node, 0);
  EXPECT_EQ(spans[0].term, 1);
  EXPECT_EQ(spans[0].index, 10);
  EXPECT_EQ(spans[0].request_id, 7u);
  EXPECT_EQ(tracer.spans_recorded(), 3u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
}

TEST(TracerTest, RingEvictsOldestAndCountsDropped) {
  Tracer tracer(/*span_capacity=*/4);

  for (int i = 0; i < 6; ++i) {
    tracer.RecordSpan(Phase::kApply, 0, 1, i, 0, i * 10, i * 10 + 5);
  }

  EXPECT_EQ(tracer.span_count(), 4u);
  EXPECT_EQ(tracer.spans_recorded(), 6u);
  EXPECT_EQ(tracer.spans_dropped(), 2u);

  // The two oldest spans (index 0, 1) were overwritten; retained events
  // still come out oldest-first.
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<size_t>(i)].index, i + 2);
  }
}

TEST(TracerTest, ClearResetsEverything) {
  Tracer tracer(/*span_capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    tracer.RecordSpan(Phase::kAck, 1, 2, 3, 4, 0, 100);
  }
  tracer.Clear();

  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
}

}  // namespace
}  // namespace nbraft::obs
