// Real-durability integration: with wal_dir set, a crash erases all of a
// node's memory and restart recovers log/term/vote from the file — the
// paper's Sec. IV durable-log assumption made concrete.

#include <gtest/gtest.h>

#include <filesystem>

#include "harness/cluster.h"
#include "tests/common/temp_path.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::harness {
namespace {

using raft::Protocol;
using raft_test::SmallConfig;

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_util::TestTempPath("wal_recovery");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ClusterConfig Config(Protocol protocol, uint64_t seed) {
    ClusterConfig config = SmallConfig(protocol, 3, 4, seed);
    config.wal_dir = dir_.string();
    return config;
  }

  std::filesystem::path dir_;
};

TEST_F(WalRecoveryTest, WalFilesAppearAndGrow) {
  Cluster cluster(Config(Protocol::kRaft, 61));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(500));
  for (int i = 0; i < 3; ++i) {
    const auto path = dir_ / ("node_" + std::to_string(i) + ".wal");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 1000u);
  }
}

TEST_F(WalRecoveryTest, CrashedNodeRecoversLogFromFile) {
  Cluster cluster(Config(Protocol::kNbRaft, 62));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(500));

  int victim = -1;
  for (int i = 0; i < 3; ++i) {
    if (cluster.node(i)->role() != raft::Role::kLeader) {
      victim = i;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  const storage::LogIndex before = cluster.node(victim)->log().LastIndex();
  const storage::Term term_before = cluster.node(victim)->current_term();
  ASSERT_GT(before, 10);

  cluster.CrashNode(victim);
  // Crash with real durability wipes memory.
  EXPECT_EQ(cluster.node(victim)->log().LastIndex(), 0);
  EXPECT_EQ(cluster.node(victim)->current_term(), 0);

  cluster.RestartNode(victim);
  // Recovery restores everything durably appended before the crash.
  EXPECT_GE(cluster.node(victim)->log().LastIndex(), before);
  EXPECT_GE(cluster.node(victim)->current_term(), term_before);

  // And the node rejoins replication.
  cluster.RunFor(Seconds(1));
  cluster.StopAllClients();
  cluster.RunFor(Seconds(2));
  raft::RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_GE(cluster.node(victim)->log().LastIndex(),
            leader->commit_index());
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
}

TEST_F(WalRecoveryTest, StateMachineRebuiltByReapplying) {
  ClusterConfig config = Config(Protocol::kRaft, 63);
  config.workload.series_count = 5;
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(500));

  int victim = -1;
  for (int i = 0; i < 3; ++i) {
    if (cluster.node(i)->role() != raft::Role::kLeader) {
      victim = i;
      break;
    }
  }
  cluster.CrashNode(victim);
  EXPECT_EQ(cluster.node(victim)->state_machine().PointCount(0), 0u)
      << "crash wipes the in-memory state machine";
  cluster.RestartNode(victim);
  cluster.StopAllClients();
  cluster.RunFor(Seconds(3));

  raft::RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  for (uint64_t series = 0; series < 5; ++series) {
    EXPECT_EQ(cluster.node(victim)->state_machine().PointCount(series),
              leader->state_machine().PointCount(series))
        << "series " << series;
  }
}

TEST_F(WalRecoveryTest, VotesSurviveCrashes) {
  // A node must not vote twice in one term across a crash.
  Cluster cluster(Config(Protocol::kRaft, 64));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.RunFor(Millis(200));

  // Crash-restart a follower repeatedly while crashing leaders: safety
  // (single leader per term) must hold throughout.
  std::map<storage::Term, std::set<net::NodeId>> leaders_by_term;
  for (int round = 0; round < 4; ++round) {
    cluster.CrashLeader();
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
    cluster.RunFor(Millis(300));
  }
  for (const auto& [term, ids] : leaders_by_term) {
    EXPECT_LE(ids.size(), 1u) << "term " << term;
  }
}

TEST_F(WalRecoveryTest, CommittedEntriesSurviveFullClusterCrash) {
  ClusterConfig config = Config(Protocol::kNbRaft, 65);
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(600));
  cluster.StopAllClients();
  cluster.RunFor(Millis(400));

  raft::RaftNode* leader = cluster.leader();
  const storage::LogIndex committed = leader->commit_index();
  ASSERT_GT(committed, 10);
  std::vector<uint64_t> ids;
  for (storage::LogIndex i = 1; i <= committed; ++i) {
    ids.push_back(leader->log().AtUnchecked(i).request_id);
  }

  // Power failure: every node dies, then the whole cluster restarts.
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

}  // namespace
}  // namespace nbraft::harness
