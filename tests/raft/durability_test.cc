// Storage-error paths: a failed fsync must surface as a leader step-down or
// a follower halt — never as a process abort. Runs on simulated disks whose
// syncs are armed to fail per node (SimDisk::ArmSyncErrors).

#include <gtest/gtest.h>

#include <memory>

#include "harness/cluster.h"
#include "raft/raft_node.h"
#include "storage/sim_disk.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::raft {
namespace {

using raft_test::SmallConfig;

std::unique_ptr<harness::Cluster> MakeCluster(uint64_t seed) {
  harness::ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 4, seed);
  config.disk.enabled = true;
  config.disk.fsync_latency = Micros(20);
  return std::make_unique<harness::Cluster>(config);
}

TEST(DurabilityFailureTest, LeaderStepsDownOnFsyncFailure) {
  auto cluster = MakeCluster(91);
  cluster->Start();
  ASSERT_TRUE(cluster->AwaitLeader());
  cluster->StartClients();
  cluster->RunFor(Millis(300));

  RaftNode* leader = cluster->leader();
  ASSERT_NE(leader, nullptr);
  const int leader_id = static_cast<int>(leader->id());
  ASSERT_GT(leader->stats().fsyncs_completed, 0u);

  // Arm: the leader's next fsync fails (the disk then heals, keeping the
  // step-down observable before any follow-on failure could crash it).
  cluster->node(leader_id)->disk()->ArmSyncErrors(1);
  for (int i = 0;
       i < 200 && cluster->node(leader_id)->stats().storage_failures == 0;
       ++i) {
    cluster->RunFor(Millis(10));
  }

  // The failure was counted and the old leader abdicated (no abort).
  ASSERT_GT(cluster->node(leader_id)->stats().storage_failures, 0u);
  cluster->RunFor(Millis(1));
  EXPECT_FALSE(cluster->node(leader_id)->crashed());
  EXPECT_NE(cluster->node(leader_id)->role(), Role::kLeader);

  // The cluster elects a working leader and proceeds.
  ASSERT_TRUE(cluster->AwaitLeader());
}

TEST(DurabilityFailureTest, FollowerHaltsOnFsyncFailure) {
  auto cluster = MakeCluster(92);
  cluster->Start();
  ASSERT_TRUE(cluster->AwaitLeader());
  cluster->StartClients();
  cluster->RunFor(Millis(300));

  RaftNode* leader = cluster->leader();
  ASSERT_NE(leader, nullptr);
  int follower = -1;
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    if (cluster->node(i) != leader) {
      follower = i;
      break;
    }
  }
  ASSERT_GE(follower, 0);

  // Arm: the follower's disk goes bad for good. It must halt (crash)
  // rather than keep acknowledging entries it cannot make durable.
  cluster->node(follower)->disk()->ArmSyncErrors(1 << 30);
  cluster->RunFor(Millis(500));
  EXPECT_GT(cluster->node(follower)->stats().storage_failures, 0u);
  EXPECT_TRUE(cluster->node(follower)->crashed());

  // The rest of the cluster keeps a quorum and keeps committing.
  RaftNode* after = cluster->leader();
  ASSERT_NE(after, nullptr);
  const storage::LogIndex commit_before = after->commit_index();
  cluster->RunFor(Millis(300));
  ASSERT_NE(cluster->leader(), nullptr);
  EXPECT_GE(cluster->leader()->commit_index(), commit_before);
}

}  // namespace
}  // namespace nbraft::raft
