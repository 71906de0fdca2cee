// Persistence-loss experiments (paper Sec. IV / Sec. V-G, Fig. 19):
// committed entries are never lost; weakly accepted entries can be, but
// the loss is bounded by N_cli + w.

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::harness {
namespace {

using raft::Protocol;
using raft_test::SmallConfig;

TEST(PersistenceLossTest, CommittedEntriesSurviveLeaderCrash) {
  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 4, 31);
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));

  raft::RaftNode* old_leader = cluster.leader();
  const storage::LogIndex committed = old_leader->commit_index();
  // Remember the committed entry identities.
  std::vector<uint64_t> committed_ids;
  for (storage::LogIndex i = old_leader->log().FirstIndex(); i <= committed;
       ++i) {
    committed_ids.push_back(old_leader->log().AtUnchecked(i).request_id);
  }

  cluster.CrashLeader();
  cluster.StopAllClients();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(10)));
  cluster.RunFor(Millis(500));

  raft::RaftNode* new_leader = cluster.leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_GE(new_leader->log().LastIndex(), committed)
      << "Leader Completeness: committed prefix present on the new leader";
  for (storage::LogIndex i = new_leader->log().FirstIndex(); i <= committed;
       ++i) {
    EXPECT_EQ(new_leader->log().AtUnchecked(i).request_id,
              committed_ids[static_cast<size_t>(
                  i - new_leader->log().FirstIndex())])
        << "committed entry changed at " << i;
  }
}

TEST(PersistenceLossTest, LossBoundedByClientsPlusWindow) {
  // Paper Sec. IV: "if there are N_cli client connections when clients and
  // the leader fail, up to N_cli requests will be lost in Raft... the
  // potential loss is enlarged to N_cli + w."
  for (uint64_t seed : {1u, 5u, 9u}) {
    ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 8, seed);
    config.window_size = 16;
    const LossResult r = RunLossExperiment(config, Millis(800));
    ASSERT_TRUE(r.new_leader_elected);
    ASSERT_GT(r.requests_issued, 0u);
    const uint64_t lost = r.requests_issued - std::min(r.requests_survived,
                                                       r.requests_issued);
    EXPECT_LE(lost, 8u + 16u)
        << "seed " << seed << ": loss must be bounded by N_cli + w";
  }
}

TEST(PersistenceLossTest, RaftLossBoundedByClients) {
  for (uint64_t seed : {2u, 6u}) {
    ClusterConfig config = SmallConfig(Protocol::kRaft, 3, 8, seed);
    const LossResult r = RunLossExperiment(config, Millis(800));
    ASSERT_TRUE(r.new_leader_elected);
    const uint64_t lost = r.requests_issued - std::min(r.requests_survived,
                                                       r.requests_issued);
    EXPECT_LE(lost, 8u) << "Raft: at most one in-flight request per client";
  }
}

TEST(PersistenceLossTest, LossFractionIsTiny) {
  // Paper: ~0.00003% with a 0.5 s follower timeout. Our virtual runs are
  // shorter, so the fraction is larger, but still far below a percent.
  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 8, 3);
  const LossResult r = RunLossExperiment(config, Seconds(2));
  ASSERT_TRUE(r.new_leader_elected);
  EXPECT_LT(r.loss_fraction, 0.01);
}

TEST(PersistenceLossTest, LongerFollowerTimeoutLosesNoMore) {
  // Paper Fig. 19(b): increasing the follower timeout reduces entry loss —
  // the new leader keeps receiving the dead leader's in-flight entries
  // during the timeout.
  uint64_t lost_short_total = 0;
  uint64_t lost_long_total = 0;
  for (uint64_t seed : {11u, 13u, 17u, 19u}) {
    ClusterConfig short_config = SmallConfig(Protocol::kNbRaft, 3, 8, seed);
    short_config.election_timeout = Millis(100);
    ClusterConfig long_config = SmallConfig(Protocol::kNbRaft, 3, 8, seed);
    long_config.election_timeout = Millis(2000);

    const LossResult a = RunLossExperiment(short_config, Millis(600));
    const LossResult b = RunLossExperiment(long_config, Millis(600));
    if (!a.new_leader_elected || !b.new_leader_elected) continue;
    lost_short_total +=
        a.requests_issued - std::min(a.requests_survived, a.requests_issued);
    lost_long_total +=
        b.requests_issued - std::min(b.requests_survived, b.requests_issued);
  }
  EXPECT_LE(lost_long_total, lost_short_total)
      << "longer timeouts must not lose more entries";
}

TEST(PersistenceLossTest, NoFailureNoLoss) {
  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 4, 41);
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Seconds(1));
  cluster.StopAllClients();
  cluster.RunFor(Seconds(2));

  // Without failures, every issued request is in the leader's log.
  int leader_index = -1;
  for (int i = 0; i < 3; ++i) {
    if (cluster.node(i)->role() == raft::Role::kLeader) leader_index = i;
  }
  ASSERT_GE(leader_index, 0);
  EXPECT_EQ(cluster.CountUniqueRequestsInLog(0, leader_index),
            cluster.TotalRequestsIssued());
}

}  // namespace
}  // namespace nbraft::harness
