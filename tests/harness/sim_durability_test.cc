// Simulated-disk durability integration: with disk.enabled, a crash wipes
// a node's memory but its disk image survives; restart replays the image,
// acknowledgements wait for covering fsyncs (group commit), snapshots and
// compaction coexist with the durable log, tail corruption heals from the
// leader under quarantine, and identical configs replay identically.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "harness/cluster.h"
#include "storage/sim_disk.h"
#include "tests/common/temp_path.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::harness {
namespace {

using raft::Protocol;
using raft_test::SmallConfig;

ClusterConfig DiskConfig(Protocol protocol, uint64_t seed) {
  ClusterConfig config = SmallConfig(protocol, 3, 4, seed);
  config.disk.enabled = true;
  config.disk.write_latency = Micros(10);
  config.disk.fsync_latency = Micros(100);
  config.disk.group_commit = true;
  config.disk.fault_seed = seed;
  return config;
}

int PickFollower(Cluster* cluster) {
  raft::RaftNode* leader = cluster->leader();
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    if (cluster->node(i) != leader) return i;
  }
  return -1;
}

TEST(SimDurabilityTest, CrashWipesMemoryAndRestartRecoversFromDisk) {
  Cluster cluster(DiskConfig(Protocol::kNbRaft, 71));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(500));

  const int victim = PickFollower(&cluster);
  ASSERT_GE(victim, 0);
  raft::RaftNode* node = cluster.node(victim);
  ASSERT_NE(node->disk(), nullptr);
  ASSERT_GT(node->stats().fsyncs_completed, 0u);
  ASSERT_GT(node->stats().disk_bytes_written, 0u);
  const storage::LogIndex before = node->log().LastIndex();
  const storage::Term term_before = node->current_term();
  ASSERT_GT(before, 10);
  const size_t durable_before = node->disk()->durable_records();

  cluster.CrashNode(victim);
  // Durable mode: the crash wipes all in-memory state...
  EXPECT_EQ(node->log().LastIndex(), 0);
  EXPECT_EQ(node->current_term(), 0);
  // ... but the disk image survives (up to its fsynced frontier).
  EXPECT_GE(node->disk()->records().size(), durable_before);

  cluster.RestartNode(victim);
  EXPECT_EQ(node->stats().recoveries, 1u);
  // Everything durably fsynced before the crash is back; nothing beyond
  // the pre-crash log was invented.
  EXPECT_GT(node->log().LastIndex(), 0);
  EXPECT_LE(node->log().LastIndex(), before);
  EXPECT_GE(node->current_term(), term_before > 0 ? term_before - 1 : 0);

  // The node rejoins replication and catches back up.
  cluster.RunFor(Millis(700));
  EXPECT_GE(node->log().LastIndex(), before);
  EXPECT_GT(node->commit_index(), 0);
}

TEST(SimDurabilityTest, GroupCommitBatchesRecordsPerFsync) {
  Cluster cluster(DiskConfig(Protocol::kNbRaft, 72));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(800));

  raft::RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  // Group commit: many persisted records amortize onto fewer barriers.
  EXPECT_GT(leader->stats().entries_appended, 0u);
  EXPECT_GT(leader->stats().fsyncs_completed, 0u);
  EXPECT_LT(leader->stats().fsyncs_completed,
            leader->stats().entries_appended);
  // And clients still complete strongly acked writes.
  EXPECT_GT(cluster.Collect().requests_completed, 0u);
}

TEST(SimDurabilityTest, SnapshotsCoexistWithSimDisk) {
  ClusterConfig config = DiskConfig(Protocol::kNbRaft, 73);
  config.snapshot_threshold = 64;
  config.snapshot_keep_tail = 16;
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));

  raft::RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_GT(leader->stats().snapshots_taken, 0u);
  ASSERT_GT(leader->log().FirstIndex(), 1);

  // Crash + restart a compacted node: recovery folds the snapshot and
  // compact markers, restoring a log that starts past the snapshot point.
  const int victim = PickFollower(&cluster);
  ASSERT_GE(victim, 0);
  raft::RaftNode* node = cluster.node(victim);
  const storage::LogIndex first_before = node->log().FirstIndex();
  cluster.CrashNode(victim);
  cluster.RestartNode(victim);
  EXPECT_GE(node->log().FirstIndex(), first_before);
  if (first_before > 1) {
    // A compacted durable log restores the snapshot into the state
    // machine: apply resumes past it, never below the first index.
    EXPECT_GE(node->applied_index(), first_before - 1);
  }
  cluster.RunFor(Millis(700));
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
  EXPECT_GT(node->commit_index(), 0);
}

TEST(SimDurabilityTest, SnapshotsCoexistWithWalDir) {
  // The formerly-rejected combination: a real WAL file plus snapshot
  // compaction. Snapshot/compact markers make the WAL self-contained.
  const auto dir = test_util::TestTempPath("sim_durability_waldir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 4, 74);
  config.wal_dir = dir.string();
  config.snapshot_threshold = 64;
  config.snapshot_keep_tail = 16;
  {
    Cluster cluster(config);
    cluster.Start();
    ASSERT_TRUE(cluster.AwaitLeader());
    cluster.StartClients();
    cluster.RunFor(Seconds(1));
    raft::RaftNode* leader = cluster.leader();
    ASSERT_NE(leader, nullptr);
    ASSERT_GT(leader->stats().snapshots_taken, 0u);

    const int victim = PickFollower(&cluster);
    ASSERT_GE(victim, 0);
    raft::RaftNode* node = cluster.node(victim);
    const storage::LogIndex commit_before = node->commit_index();
    cluster.CrashNode(victim);
    EXPECT_EQ(node->log().LastIndex(), 0);
    cluster.RestartNode(victim);
    EXPECT_GT(node->log().LastIndex(), 0);
    cluster.RunFor(Millis(700));
    EXPECT_GE(node->commit_index(), commit_before);
    EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(SimDurabilityTest, CorruptionQuarantinesUntilHealedFromLeader) {
  Cluster cluster(DiskConfig(Protocol::kNbRaft, 75));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(500));

  const int victim = PickFollower(&cluster);
  ASSERT_GE(victim, 0);
  raft::RaftNode* node = cluster.node(victim);
  ASSERT_NE(node->disk(), nullptr);

  cluster.CrashNode(victim);
  ASSERT_TRUE(node->disk()->CorruptTailRecord());
  cluster.RestartNode(victim);

  // Recovery detected the rot: the node is quarantined (no elections, no
  // vote grants) until its committed prefix catches the leader back up.
  EXPECT_TRUE(node->heal_quarantine());
  EXPECT_TRUE(node->disk()->heal_scar());

  cluster.RunFor(Seconds(1));
  EXPECT_FALSE(node->heal_quarantine()) << "quarantine never lifted";
  EXPECT_FALSE(node->disk()->heal_scar());
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
  EXPECT_GT(node->commit_index(), 0);
}

TEST(SimDurabilityTest, SoloLeaderCommitsOnlyAfterItsFsync) {
  // A one-node cluster is its own quorum: the leader's self-vote is the
  // commit. Without a disk it completes inline; on a simulated disk it
  // waits for the fsync covering the no-op.
  for (const bool disk : {false, true}) {
    ClusterConfig config = SmallConfig(Protocol::kRaft, 1, 1, 77);
    config.disk.enabled = disk;
    config.disk.fsync_latency = Micros(100);
    Cluster cluster(config);
    cluster.Start();
    raft::RaftNode* node = cluster.node(0);
    node->TriggerElection();
    ASSERT_EQ(node->role(), raft::Role::kLeader);
    const storage::LogIndex noop = node->log().LastIndex();
    if (!disk) {
      EXPECT_EQ(node->commit_index(), noop);
      EXPECT_EQ(node->strong_ack_frontier(), noop);
      continue;
    }
    EXPECT_EQ(node->commit_index(), 0);
    cluster.RunFor(Micros(50));  // The first barrier is still in flight.
    EXPECT_EQ(node->commit_index(), 0);
    EXPECT_LT(node->strong_ack_frontier(), noop);
    cluster.RunFor(Micros(400));  // The barrier covering the no-op landed.
    EXPECT_EQ(node->commit_index(), noop);
    EXPECT_EQ(node->strong_ack_frontier(), noop);
    EXPECT_GT(node->stats().fsyncs_completed, 0u);
  }
}

TEST(SimDurabilityTest, DiskRunsAreDeterministic) {
  auto run = [](uint64_t seed) {
    Cluster cluster(DiskConfig(Protocol::kNbRaft, seed));
    cluster.Start();
    EXPECT_TRUE(cluster.AwaitLeader());
    cluster.StartClients();
    cluster.RunFor(Seconds(1));
    std::string fingerprint = cluster.NodeStatsJson();
    fingerprint += std::to_string(cluster.Collect().requests_completed);
    return fingerprint;
  };
  EXPECT_EQ(run(76), run(76));
}

}  // namespace
}  // namespace nbraft::harness
