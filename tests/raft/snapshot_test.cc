// Snapshotting and log compaction: state-machine snapshots round-trip,
// leaders compact applied prefixes, and lagging followers catch up via
// InstallSnapshot with identical state.

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "tests/raft/test_cluster.h"
#include "tsdb/ingest_record.h"

namespace nbraft::raft {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using raft_test::SmallConfig;

// ---- State-machine snapshot round trips ----

storage::LogEntry IngestEntry(storage::LogIndex index,
                              const std::vector<tsdb::Measurement>& batch) {
  storage::LogEntry e;
  e.index = index;
  e.term = 1;
  std::string bytes;
  tsdb::EncodeIngestBatch(batch, &bytes);
  e.payload = std::move(bytes);
  return e;
}

TEST(StateMachineSnapshotTest, TsdbRoundTripPreservesEverything) {
  tsdb::TsdbStateMachine::Options options;
  options.flush_threshold_points = 4;  // Force chunks AND buffered points.
  tsdb::TsdbStateMachine sm(options);
  sm.Apply(IngestEntry(1, {{1, {100, 1.0}}, {1, {200, 2.0}},
                           {2, {100, 9.0}}, {2, {150, 8.5}}}));  // Flush.
  sm.Apply(IngestEntry(2, {{1, {300, 3.0}}}));  // Stays buffered.

  const std::string snapshot = sm.Snapshot();
  tsdb::TsdbStateMachine restored;
  ASSERT_TRUE(restored.Restore(snapshot).ok());

  EXPECT_EQ(restored.applied_entries(), sm.applied_entries());
  EXPECT_EQ(restored.ingested_points(), sm.ingested_points());
  EXPECT_EQ(restored.flushed_chunks(), sm.flushed_chunks());
  for (uint64_t series : {1u, 2u}) {
    auto original = sm.Query(series);
    auto copy = restored.Query(series);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(copy.ok());
    EXPECT_EQ(original.value(), copy.value()) << "series " << series;
  }
}

TEST(StateMachineSnapshotTest, TsdbRejectsCorruptSnapshot) {
  tsdb::TsdbStateMachine sm;
  sm.Apply(IngestEntry(1, {{1, {100, 1.0}}}));
  std::string snapshot = sm.Snapshot();
  snapshot[snapshot.size() / 2] ^= 0x01;
  tsdb::TsdbStateMachine other;
  EXPECT_FALSE(other.Restore(snapshot).ok());
}

TEST(StateMachineSnapshotTest, TsdbRejectsTruncatedSnapshot) {
  tsdb::TsdbStateMachine sm;
  sm.Apply(IngestEntry(1, {{1, {100, 1.0}}}));
  const std::string snapshot = sm.Snapshot();
  tsdb::TsdbStateMachine other;
  EXPECT_FALSE(other.Restore(snapshot.substr(0, 3)).ok());
  EXPECT_FALSE(other.Restore("").ok());
}

TEST(StateMachineSnapshotTest, FileStoreRoundTrip) {
  tsdb::FileStoreStateMachine sm;
  storage::LogEntry e;
  e.payload = std::string(1000, 'x');
  sm.Apply(e);
  tsdb::FileStoreStateMachine restored;
  ASSERT_TRUE(restored.Restore(sm.Snapshot()).ok());
  EXPECT_EQ(restored.applied_entries(), 1u);
  EXPECT_EQ(restored.bytes_written(), 1000u);
}

// ---- Cluster-level compaction + InstallSnapshot ----

ClusterConfig SnapshotConfig(uint64_t seed) {
  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 4, seed);
  config.snapshot_threshold = 200;
  config.snapshot_keep_tail = 32;
  return config;
}

TEST(SnapshotClusterTest, NoThresholdMeansNoCompaction) {
  ClusterConfig config = SnapshotConfig(51);
  config.snapshot_threshold = 0;
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));
  EXPECT_EQ(cluster.leader()->log().FirstIndex(), 1);
  EXPECT_EQ(cluster.leader()->stats().snapshots_taken, 0u);
}

TEST(SnapshotClusterTest, NodesCompactAppliedPrefixes) {
  Cluster cluster(SnapshotConfig(52));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));

  RaftNode* leader = cluster.leader();
  EXPECT_GT(leader->stats().snapshots_taken, 0u);
  EXPECT_GT(leader->log().FirstIndex(), 1);
  // The compacted log stays bounded near threshold + keep_tail.
  EXPECT_LT(leader->log().Size(), 200 + 32 + 512);
  // Replication keeps working across compaction.
  EXPECT_GT(cluster.Collect().requests_completed, 100u);
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
}

TEST(SnapshotClusterTest, LaggingFollowerCatchesUpViaInstallSnapshot) {
  Cluster cluster(SnapshotConfig(53));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(300));

  // Crash a follower, let the cluster run far past the snapshot point.
  int victim = -1;
  for (int i = 0; i < 3; ++i) {
    if (cluster.node(i)->role() != Role::kLeader) {
      victim = i;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  cluster.CrashNode(victim);
  cluster.RunFor(Seconds(2));

  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_GT(leader->log().FirstIndex(),
            cluster.node(victim)->log().LastIndex() + 1)
      << "precondition: the entries the victim needs must be compacted";

  cluster.RestartNode(victim);
  cluster.StopAllClients();
  cluster.RunFor(Seconds(4));

  RaftNode* restored = cluster.node(victim);
  EXPECT_GT(restored->stats().snapshots_installed, 0u)
      << "catch-up must have used InstallSnapshot";
  EXPECT_GT(leader->stats().snapshots_sent, 0u);
  EXPECT_GE(restored->log().LastIndex(), leader->commit_index() - 1);

  // The restored state machine agrees with the leader's.
  cluster.RunFor(Seconds(1));
  for (uint64_t series = 0; series < 5; ++series) {
    EXPECT_EQ(restored->state_machine().PointCount(series),
              leader->state_machine().PointCount(series))
        << "series " << series;
  }
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
}

TEST(SnapshotClusterTest, SafetyHoldsWithAggressiveCompaction) {
  ClusterConfig config = SnapshotConfig(54);
  config.snapshot_threshold = 50;
  config.snapshot_keep_tail = 8;
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  for (int round = 0; round < 4; ++round) {
    cluster.RunFor(Millis(400));
    EXPECT_TRUE(cluster.CheckLogMatching().ok());
    EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
  }
  EXPECT_GT(cluster.Collect().requests_completed, 100u);
}

TEST(SnapshotClusterTest, CRaftSkipsSnapshotting) {
  ClusterConfig config = SnapshotConfig(55);
  config.protocol = Protocol::kCRaft;
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));
  // Fragment replicas cannot produce meaningful snapshots.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.node(i)->stats().snapshots_taken, 0u);
  }
}

}  // namespace
}  // namespace nbraft::raft
