// The automatic flight-recorder post-mortem: a deliberately induced
// safety violation (simulated memory corruption of a committed follower
// entry, injected through the mid-run hook) makes the ChaosRunner dump a
// merged, virtual-time-ordered multi-node journal the moment the oracle
// fires — and the dump is byte-identical across reruns of the same seed.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "tests/chaos/postmortem_scenario.h"
#include "tests/common/temp_path.h"

namespace nbraft::chaos {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(PostmortemTest, InducedViolationDumpsMultiNodeTimeOrderedJournal) {
  const std::string dir = test_util::TestTempPath("postmortem_run").string();
  std::filesystem::remove_all(dir);
  const ChaosReport report = RunCorruptedScenario(dir);

  ASSERT_FALSE(report.ok()) << "corruption was not detected";
  ASSERT_FALSE(report.postmortem_jsonl.empty());
  ASSERT_FALSE(report.postmortem_timeline.empty());
  ASSERT_TRUE(std::filesystem::exists(report.postmortem_jsonl));
  ASSERT_TRUE(std::filesystem::exists(report.postmortem_timeline));

  const std::string body = Slurp(report.postmortem_jsonl);
  std::istringstream lines(body);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"type\":\"meta\""), std::string::npos);

  std::set<int> nodes_seen;
  int64_t last_at = -1;
  bool saw_violation = false;
  while (std::getline(lines, line)) {
    // Events are in global record order, so virtual time never regresses.
    const size_t at_pos = line.find("\"at_ns\":");
    ASSERT_NE(at_pos, std::string::npos) << line;
    const int64_t at = std::stoll(line.substr(at_pos + 8));
    EXPECT_GE(at, last_at) << "time went backwards: " << line;
    last_at = at;

    const size_t node_pos = line.find("\"node\":");
    ASSERT_NE(node_pos, std::string::npos) << line;
    const int node = std::stoi(line.substr(node_pos + 7));
    if (node >= 0) nodes_seen.insert(node);

    if (line.find("chaos.invariant_violate") != std::string::npos) {
      saw_violation = true;
    }
  }
  // The window spans the violation and carries events from every replica.
  EXPECT_TRUE(saw_violation);
  EXPECT_GE(nodes_seen.size(), 3u) << "post-mortem covers too few nodes";

  // The human-readable timeline decoded the same story.
  const std::string timeline = Slurp(report.postmortem_timeline);
  EXPECT_NE(timeline.find("INVARIANT VIOLATION"), std::string::npos);
  EXPECT_NE(timeline.find("node 0"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(PostmortemTest, SameSeedProducesByteIdenticalDumps) {
  const std::string dir_a = test_util::TestTempPath("postmortem_a").string();
  const std::string dir_b = test_util::TestTempPath("postmortem_b").string();
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);

  const ChaosReport a = RunCorruptedScenario(dir_a);
  const ChaosReport b = RunCorruptedScenario(dir_b);
  ASSERT_FALSE(a.postmortem_jsonl.empty());
  ASSERT_FALSE(b.postmortem_jsonl.empty());

  EXPECT_EQ(Slurp(a.postmortem_jsonl), Slurp(b.postmortem_jsonl));
  EXPECT_EQ(Slurp(a.postmortem_timeline), Slurp(b.postmortem_timeline));
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(PostmortemTest, CleanRunLeavesNoDump) {
  const std::string dir =
      test_util::TestTempPath("postmortem_clean").string();
  std::filesystem::remove_all(dir);
  ChaosRunner::Options options = PostmortemOptions(dir);
  options.rounds = 2;
  ChaosRunner runner(PostmortemConfig(), QuietPlan(), options);
  const ChaosReport report = runner.Run();

  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.postmortem_jsonl.empty());
  EXPECT_TRUE(report.postmortem_timeline.empty());
  // The directory is only created on first violation.
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace nbraft::chaos
