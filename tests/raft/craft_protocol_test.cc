#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::raft {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using raft_test::SmallConfig;

TEST(CRaftTest, FollowersStoreFragmentsNotFullEntries) {
  Cluster cluster(SmallConfig(Protocol::kCRaft, 3, 4));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));

  RaftNode* leader = cluster.leader();
  int fragments_seen = 0;
  for (int i = 0; i < 3; ++i) {
    RaftNode* n = cluster.node(i);
    if (n == leader) continue;
    const auto& log = n->log();
    for (storage::LogIndex idx = log.FirstIndex(); idx <= log.LastIndex();
         ++idx) {
      const auto& e = log.AtUnchecked(idx);
      if (!e.IsFragment()) continue;
      ++fragments_seen;
      EXPECT_EQ(e.frag_k, 2u) << "3 replicas: k = F+1 = 2";
      EXPECT_GT(e.full_size, 0u);
      // Fragments carry roughly half the payload of the full entry.
      const auto& full = leader->log().AtUnchecked(idx);
      EXPECT_LT(e.payload.size(), full.payload.size());
    }
  }
  EXPECT_GT(fragments_seen, 50);
}

TEST(CRaftTest, LeaderKeepsFullEntriesAndApplies) {
  Cluster cluster(SmallConfig(Protocol::kCRaft, 3, 4));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));
  RaftNode* leader = cluster.leader();
  const auto& sm =
      static_cast<const tsdb::TsdbStateMachine&>(leader->state_machine());
  EXPECT_GT(sm.ingested_points(), 0u)
      << "the leader holds full entries and can apply them";
  const auto& log = leader->log();
  for (storage::LogIndex i = log.FirstIndex(); i <= log.LastIndex(); ++i) {
    EXPECT_FALSE(log.AtUnchecked(i).IsFragment());
  }
}

TEST(CRaftTest, TwoReplicaClusterFallsBackToFullReplication) {
  // Paper Fig. 15: "CRaft does not work with only one follower, as entries
  // cannot be fragmented."
  Cluster cluster(SmallConfig(Protocol::kCRaft, 2, 2));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));
  for (int i = 0; i < 2; ++i) {
    const auto& log = cluster.node(i)->log();
    for (storage::LogIndex idx = log.FirstIndex(); idx <= log.LastIndex();
         ++idx) {
      EXPECT_FALSE(log.AtUnchecked(idx).IsFragment());
    }
  }
  EXPECT_GT(cluster.Collect().requests_completed, 20u);
}

TEST(CRaftTest, DegradedModeAfterFollowerCrash) {
  // CRaft's liveness fix: with a follower down, new entries replicate as
  // full copies (no fragments) so commits keep happening.
  Cluster cluster(SmallConfig(Protocol::kCRaft, 5, 4));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(400));

  // Crash one non-leader node.
  for (int i = 0; i < 5; ++i) {
    if (cluster.node(i)->role() != Role::kLeader) {
      cluster.CrashNode(i);
      break;
    }
  }
  const uint64_t before = cluster.Collect().requests_completed;
  cluster.RunFor(Seconds(1));
  const harness::ClusterStats after = cluster.Collect();
  EXPECT_GT(after.requests_completed, before + 20)
      << "commits must continue in degraded mode";
  EXPECT_GT(after.degraded_entries, 0u);
}

TEST(CRaftTest, NbCRaftCombinationCommitsAndWeakAccepts) {
  ClusterConfig config = SmallConfig(Protocol::kNbCRaft, 3, 16);
  config.client_think = Micros(5);
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));
  const harness::ClusterStats stats = cluster.Collect();
  EXPECT_GT(stats.requests_completed, 100u);
  EXPECT_GT(stats.weak_accepts, 10u) << "NB side active";
  EXPECT_GT(stats.window_inserts, 10u);
  // CRaft side active: follower logs contain fragments.
  int fragments = 0;
  for (int i = 0; i < 3; ++i) {
    const auto& log = cluster.node(i)->log();
    for (storage::LogIndex idx = log.FirstIndex(); idx <= log.LastIndex();
         ++idx) {
      if (log.AtUnchecked(idx).IsFragment()) ++fragments;
    }
  }
  EXPECT_GT(fragments, 10);
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
}

TEST(ECRaftTest, KeepsCodingInDegradedModeWithOneFailure) {
  Cluster cluster(SmallConfig(Protocol::kECRaft, 5, 4));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(400));
  for (int i = 0; i < 5; ++i) {
    if (cluster.node(i)->role() != Role::kLeader) {
      cluster.CrashNode(i);
      break;
    }
  }
  cluster.RunFor(Seconds(1));

  // ECRaft re-encodes with k' = alive - (F - dead) = 4 - 1 = 3: degraded
  // entries on followers should still be fragments (k = 3).
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  bool saw_k3_fragment = false;
  for (int i = 0; i < 5; ++i) {
    RaftNode* n = cluster.node(i);
    if (n == leader || n->crashed()) continue;
    const auto& log = n->log();
    for (storage::LogIndex idx = log.FirstIndex(); idx <= log.LastIndex();
         ++idx) {
      if (log.AtUnchecked(idx).frag_k == 3) saw_k3_fragment = true;
    }
  }
  EXPECT_TRUE(saw_k3_fragment);
  EXPECT_GT(cluster.Collect().degraded_entries, 0u);
}

}  // namespace
}  // namespace nbraft::raft
