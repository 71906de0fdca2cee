// Simulated-disk durability integration: with disk.enabled, a crash wipes
// a node's memory but its disk image survives; restart replays the image
// and re-applies the state machine, votes survive crash loops, committed
// entries survive a full-cluster power cut, acknowledgements wait for
// covering fsyncs (group commit), snapshots and compaction coexist with the
// durable log, tail corruption heals from the leader under quarantine, and
// identical configs replay identically.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "storage/sim_disk.h"
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

TEST(SimDurabilityTest, StateMachineRebuiltByReapplying) {
  ClusterConfig config = DiskConfig(Protocol::kRaft, 63);
  config.workload.series_count = 5;
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(500));

  const int victim = PickFollower(&cluster);
  ASSERT_GE(victim, 0);
  cluster.CrashNode(victim);
  EXPECT_EQ(cluster.node(victim)->state_machine().PointCount(0), 0u)
      << "crash wipes the in-memory state machine";
  cluster.RestartNode(victim);
  cluster.StopAllClients();
  cluster.RunFor(Seconds(3));

  raft::RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_GT(leader->state_machine().PointCount(0), 0u);
  for (uint64_t series = 0; series < 5; ++series) {
    EXPECT_EQ(cluster.node(victim)->state_machine().PointCount(series),
              leader->state_machine().PointCount(series))
        << "series " << series;
  }
}

TEST(SimDurabilityTest, VotesSurviveCrashes) {
  // A node must not vote twice in one term across a crash: crash the
  // leader repeatedly, restarting every crashed node between rounds, and
  // no term may ever see two leaders.
  Cluster cluster(DiskConfig(Protocol::kRaft, 64));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.RunFor(Millis(200));

  std::map<storage::Term, std::set<net::NodeId>> leaders_by_term;
  for (int round = 0; round < 4; ++round) {
    raft::RaftNode* leader = cluster.leader();
    ASSERT_NE(leader, nullptr);
    const storage::Term led_term = leader->current_term();
    const int deposed = cluster.CrashLeader();
    ASSERT_GE(deposed, 0);
    cluster.RunFor(Seconds(2));
    for (int i = 0; i < 3; ++i) {
      raft::RaftNode* n = cluster.node(i);
      if (!n->crashed() && n->role() == raft::Role::kLeader) {
        leaders_by_term[n->current_term()].insert(n->id());
      }
    }
    for (int i = 0; i < 3; ++i) {
      if (cluster.node(i)->crashed()) cluster.RestartNode(i);
    }
    // The deposed leader's self-vote was fsynced before it canvassed, so
    // its recovered hard state still holds that vote.
    raft::RaftNode* recovered = cluster.node(deposed);
    ASSERT_GE(recovered->current_term(), led_term);
    if (recovered->current_term() == led_term) {
      EXPECT_EQ(recovered->core().voted_for, recovered->id());
    }
    cluster.RunFor(Millis(300));
  }
  ASSERT_FALSE(leaders_by_term.empty());
  for (const auto& [term, ids] : leaders_by_term) {
    EXPECT_LE(ids.size(), 1u) << "term " << term;
  }
}

TEST(SimDurabilityTest, CommittedEntriesSurviveFullClusterCrash) {
  Cluster cluster(DiskConfig(Protocol::kNbRaft, 65));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(600));
  cluster.StopAllClients();
  cluster.RunFor(Millis(400));

  raft::RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  const storage::LogIndex committed = leader->commit_index();
  ASSERT_GT(committed, 10);
  std::vector<uint64_t> ids;
  for (storage::LogIndex i = 1; i <= committed; ++i) {
    ids.push_back(leader->log().AtUnchecked(i).request_id);
  }

  // Power failure: every node dies, then the whole cluster restarts from
  // its disks alone.
  for (int i = 0; i < 3; ++i) cluster.CrashNode(i);
  for (int i = 0; i < 3; ++i) cluster.RestartNode(i);
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(15)));
  cluster.RunFor(Millis(300));

  raft::RaftNode* new_leader = cluster.leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_GE(new_leader->log().LastIndex(), committed);
  for (storage::LogIndex i = 1; i <= committed; ++i) {
    EXPECT_EQ(new_leader->log().AtUnchecked(i).request_id,
              ids[static_cast<size_t>(i - 1)])
        << "committed entry changed at " << i;
  }
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
