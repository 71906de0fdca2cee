// Storage-error paths: a failing LogBackend::Sync must surface as a leader
// step-down or a follower halt — never as a process abort. Uses the
// backend_factory hook to inject a backend whose fsyncs can be armed to
// fail per node.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

#include "harness/cluster.h"
#include "raft/raft_node.h"
#include "storage/log_backend.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::raft {
namespace {

using raft_test::SmallConfig;

/// Test switchboard shared by every injected backend: `sim` is filled in
/// after the Cluster exists (the factory only runs at node Start), and
/// `fail_budget` arms per-node fsync failures mid-run (-1 = every sync
/// fails, n > 0 = the next n syncs fail then the disk heals).
struct FailSwitch {
  sim::Simulator* sim = nullptr;
  std::map<int64_t, int> fail_budget;
};

class FlakySyncBackend : public storage::LogBackend {
 public:
  FlakySyncBackend(FailSwitch* sw, int64_t id) : switch_(sw), id_(id) {}

  Status Append(const storage::LogEntry&) override { return Status::Ok(); }
  void Sync(std::function<void(Status)> done) override {
    int& budget = switch_->fail_budget[id_];
    const bool fail = budget != 0;
    if (budget > 0) --budget;
    switch_->sim->After(Micros(20), [fail, done = std::move(done)]() {
      done(fail ? Status::IoError("injected fsync failure") : Status::Ok());
    });
  }

 private:
  FailSwitch* switch_;
  int64_t id_;
};

std::unique_ptr<harness::Cluster> MakeCluster(FailSwitch* sw, uint64_t seed) {
  harness::ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 4, seed);
  config.backend_factory =
      [sw](int64_t id) -> std::unique_ptr<storage::LogBackend> {
    return std::make_unique<FlakySyncBackend>(sw, id);
  };
  auto cluster = std::make_unique<harness::Cluster>(config);
  sw->sim = cluster->sim();
  return cluster;
}

TEST(DurabilityFailureTest, LeaderStepsDownOnFsyncFailure) {
  FailSwitch sw;
  auto cluster = MakeCluster(&sw, 91);
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
  sw.fail_budget[leader_id] = 1;
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
  FailSwitch sw;
  auto cluster = MakeCluster(&sw, 92);
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
  sw.fail_budget[follower] = -1;
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
