#include "raft/node_stats.h"

#include <gtest/gtest.h>

namespace nbraft::raft {
namespace {

TEST(NodeStatsTest, ToJsonCarriesEveryCounter) {
  NodeStats stats;
  stats.entries_appended = 11;
  stats.entries_committed = 7;
  stats.append_rpcs_sent = 4;
  stats.append_entries_sent = 10;
  stats.breakdown.Add(metrics::Phase::kCommit, Millis(1));
  stats.wait_hist.Record(100);

  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"entries_appended\":11"), std::string::npos);
  EXPECT_NE(json.find("\"entries_committed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"append_rpcs_sent\":4"), std::string::npos);
  EXPECT_NE(json.find("\"append_entries_sent\":10"), std::string::npos);
  EXPECT_NE(json.find("\"wait_hist\":"), std::string::npos);
  EXPECT_NE(json.find("\"append_latency\":"), std::string::npos);
  EXPECT_NE(json.find("\"breakdown\":"), std::string::npos);
  // Well-formed object: balanced braces, no trailing comma before '}'.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

}  // namespace
}  // namespace nbraft::raft
