// Whole-cluster properties: bit-identical replay for equal seeds (the
// foundation of the simulation-testing approach) and soundness of client
// acknowledgements against the replicated log.

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::harness {
namespace {

using raft::Protocol;
using raft_test::SmallConfig;

struct RunSummary {
  std::vector<std::pair<storage::LogIndex, uint64_t>> committed;
  uint64_t completed = 0;
  uint64_t weak = 0;
  uint64_t messages = 0;
  SimTime final_time = 0;
};

RunSummary RunOnce(const ClusterConfig& config, bool with_crash) {
  Cluster cluster(config);
  cluster.Start();
  EXPECT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(400));
  if (with_crash) {
    cluster.CrashLeader();
    EXPECT_TRUE(cluster.AwaitLeader(Seconds(10)));
    cluster.RunFor(Millis(400));
  }
  cluster.StopAllClients();
  cluster.RunFor(Millis(300));

  RunSummary out;
  raft::RaftNode* leader = cluster.leader();
  EXPECT_NE(leader, nullptr);
  const auto& log = leader->log();
  for (storage::LogIndex i = log.FirstIndex();
       i <= leader->commit_index() && i <= log.LastIndex(); ++i) {
    out.committed.emplace_back(i, log.AtUnchecked(i).request_id);
  }
  const ClusterStats stats = cluster.Collect();
  out.completed = stats.requests_completed;
  out.weak = stats.weak_accepts;
  out.messages = cluster.network()->messages_sent();
  out.final_time = cluster.sim()->Now();
  return out;
}

class DeterminismTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(DeterminismTest, SameSeedReplaysIdentically) {
  const ClusterConfig config = SmallConfig(GetParam(), 3, 6, 77);
  const RunSummary a = RunOnce(config, /*with_crash=*/false);
  const RunSummary b = RunOnce(config, /*with_crash=*/false);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.weak, b.weak);
  EXPECT_EQ(a.messages, b.messages) << "event-for-event replay expected";
}

TEST_P(DeterminismTest, SameSeedReplaysIdenticallyThroughCrash) {
  const ClusterConfig config = SmallConfig(GetParam(), 3, 6, 78);
  const RunSummary a = RunOnce(config, /*with_crash=*/true);
  const RunSummary b = RunOnce(config, /*with_crash=*/true);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.messages, b.messages);
}

TEST_P(DeterminismTest, DifferentSeedsDiverge) {
  const RunSummary a = RunOnce(SmallConfig(GetParam(), 3, 6, 101), false);
  const RunSummary b = RunOnce(SmallConfig(GetParam(), 3, 6, 102), false);
  EXPECT_NE(a.messages, b.messages);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DeterminismTest,
                         ::testing::Values(Protocol::kRaft,
                                           Protocol::kNbRaft,
                                           Protocol::kNbCRaft),
                         [](const auto& info) {
                           std::string name(raft::ProtocolName(info.param));
                           for (char& c : name) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return name;
                         });

TEST(AckSoundnessTest, EveryStrongAckIsInTheCommittedLog) {
  // A STRONG_ACCEPT tells the client its request is durable: the count of
  // completed requests can never exceed the distinct requests committed.
  for (Protocol protocol :
       {Protocol::kRaft, Protocol::kNbRaft, Protocol::kNbCRaft}) {
    ClusterConfig config = SmallConfig(protocol, 3, 8, 55);
    Cluster cluster(config);
    cluster.Start();
    ASSERT_TRUE(cluster.AwaitLeader());
    cluster.StartClients();
    cluster.RunFor(Seconds(1));
    cluster.StopAllClients();
    cluster.RunFor(Millis(300));

    int leader_index = -1;
    for (int i = 0; i < 3; ++i) {
      if (!cluster.node(i)->crashed() &&
          cluster.node(i)->role() == raft::Role::kLeader) {
        leader_index = i;
      }
    }
    ASSERT_GE(leader_index, 0);
    const ClusterStats stats = cluster.Collect();
    EXPECT_LE(stats.requests_completed,
              cluster.CountUniqueRequestsInLog(0, leader_index))
        << raft::ProtocolName(protocol);
  }
}

TEST(AckSoundnessTest, AcksSurviveLeaderCrash) {
  // Requests strongly acked before a leader crash must be present in the
  // new leader's log (the client was told they are durable).
  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 8, 56);
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(600));

  const uint64_t acked_before = cluster.Collect().requests_completed;
  cluster.CrashLeader();
  cluster.StopAllClients();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(10)));
  cluster.RunFor(Millis(300));

  int new_leader = -1;
  for (int i = 0; i < 3; ++i) {
    if (!cluster.node(i)->crashed() &&
        cluster.node(i)->role() == raft::Role::kLeader) {
      new_leader = i;
    }
  }
  ASSERT_GE(new_leader, 0);
  EXPECT_GE(cluster.CountUniqueRequestsInLog(0, new_leader), acked_before);
}

}  // namespace
}  // namespace nbraft::harness
