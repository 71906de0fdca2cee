// Leader-only state lifetimes: dispatcher queues, outstanding RPCs,
// fragment caches, the VoteList and per-entry commit timing must all be
// dropped when leadership is lost — by step-down or by crash — so nothing
// from one leadership leaks into the next (or holds memory while the node
// is a follower).

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::raft {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using raft_test::SmallConfig;

class LeaderLifetimeTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(LeaderLifetimeTest, StepDownDropsAllLeaderVolatileState) {
  // Sixteen clients keep the leader's pipeline busy at every instant; with
  // four, a CRaft leader can sit momentarily idle with nothing in flight.
  Cluster cluster(SmallConfig(GetParam(), 3, 16));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(300));  // Build up in-flight replication state.

  RaftNode* old_leader = cluster.leader();
  ASSERT_NE(old_leader, nullptr);
  ASSERT_GT(old_leader->OutstandingRpcCount() +
                old_leader->DispatcherQueueDepth() +
                (old_leader->vote_list().empty() ? 0u : 1u),
            0u)
      << "test vacuous: no leader state built up";

  // A follower with a bumped term forces the leader to step down via the
  // higher-term RequestVote it receives.
  RaftNode* usurper = nullptr;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(i) != old_leader && !cluster.node(i)->crashed()) {
      usurper = cluster.node(i);
      break;
    }
  }
  ASSERT_NE(usurper, nullptr);
  usurper->TriggerElection();
  cluster.RunFor(Millis(50));  // Deliver the vote request; no re-election
                               // yet (election timeout is 300ms+).

  ASSERT_NE(old_leader->role(), Role::kLeader);
  EXPECT_TRUE(old_leader->LeaderVolatileStateEmpty())
      << "leader-only caches survived step-down";
  EXPECT_EQ(old_leader->OutstandingRpcCount(), 0u);
  EXPECT_EQ(old_leader->DispatcherQueueDepth(), 0u);
  EXPECT_TRUE(old_leader->vote_list().empty());

  // The cluster recovers and stays safe.
  cluster.StopAllClients();
  cluster.RunFor(Seconds(2));
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
}

TEST_P(LeaderLifetimeTest, CrashDropsAllLeaderVolatileState) {
  Cluster cluster(SmallConfig(GetParam(), 3, 4));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(300));

  RaftNode* old_leader = cluster.leader();
  ASSERT_NE(old_leader, nullptr);
  cluster.CrashLeader();

  EXPECT_TRUE(old_leader->LeaderVolatileStateEmpty());
  EXPECT_EQ(old_leader->OutstandingRpcCount(), 0u);
  EXPECT_EQ(old_leader->DispatcherQueueDepth(), 0u);
  EXPECT_EQ(old_leader->window().size(), 0u);

  cluster.StopAllClients();
  cluster.RunFor(Seconds(2));
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, LeaderLifetimeTest,
    ::testing::Values(Protocol::kRaft, Protocol::kNbRaft, Protocol::kNbCRaft),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      std::string name(ProtocolName(info.param));
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace nbraft::raft
