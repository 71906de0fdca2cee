// Bounded-recovery liveness: after the leader's host crashes (and stays
// down) under client load, the 2-of-3 survivors must make progress within
// a couple of heartbeats of electing a new leader. A leader exists, a
// quorum is reachable, so nothing but the protocol itself can stall them:
// the lagging survivor has to be refilled to the new leader's log end and
// some client request has to complete.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "harness/cluster.h"

namespace nbraft::harness {
namespace {

using raft::Protocol;

uint64_t CompletedRequests(Cluster& cluster) {
  uint64_t done = 0;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    done += cluster.client(i)->stats().requests_completed;
  }
  return done;
}

class BoundedRecoveryTest
    : public ::testing::TestWithParam<std::tuple<Protocol, uint64_t>> {};

TEST_P(BoundedRecoveryTest, SurvivorsProgressWithinTwoHeartbeatsOfElection) {
  const auto [protocol, seed] = GetParam();
  // The benchmark's failover shape: 64 clients of 4 KB requests keep the
  // followers a few hundred entries apart when the leader dies.
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = 64;
  config.protocol = protocol;
  config.seed = seed;
  config.release_payloads = true;
  Cluster cluster(config);

  // The first election after the crash: when, by whom, and how long the
  // winner's log was before its no-op.
  bool crashed = false;
  int new_leader = -1;
  SimTime elected_at = 0;
  storage::LogIndex last_at_election = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    raft::RaftNode* node = cluster.node(i);
    node->add_leader_observer([&, i, node](storage::Term, net::NodeId) {
      if (!crashed || new_leader >= 0) return;
      new_leader = i;
      elected_at = cluster.sim()->Now();
      last_at_election = node->log().LastIndex();
    });
  }

  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(800));

  const int old_leader = cluster.CrashLeader();
  ASSERT_GE(old_leader, 0);
  crashed = true;
  for (int ms = 0; ms < 5000 && new_leader < 0; ++ms) {
    cluster.RunFor(Millis(1));
  }
  ASSERT_GE(new_leader, 0) << "no leader elected within 5 s of the crash";
  ASSERT_NE(new_leader, old_leader);
  int follower = -1;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    if (i != old_leader && i != new_leader) follower = i;
  }
  ASSERT_GE(follower, 0);

  const uint64_t completed_at_election = CompletedRequests(cluster);
  const SimDuration bound = 2 * raft::kHeartbeatInterval;
  cluster.sim()->RunUntil(elected_at + bound);

  EXPECT_EQ(cluster.leader(), cluster.node(new_leader))
      << "the new leader lost its term within the bound";
  EXPECT_GE(cluster.node(follower)->log().LastIndex(), last_at_election)
      << "surviving follower " << follower << " still lags the new leader's "
      << "log at election " << ToMillis(bound) << " ms after it";
  EXPECT_GT(CompletedRequests(cluster), completed_at_election)
      << "no client request completed within " << ToMillis(bound)
      << " ms of the election";

  const Status matching = cluster.CheckLogMatching();
  EXPECT_TRUE(matching.ok()) << matching.ToString();
  const Status prefixes = cluster.CheckCommittedPrefixes();
  EXPECT_TRUE(prefixes.ok()) << prefixes.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    LeaderCrash, BoundedRecoveryTest,
    ::testing::Combine(::testing::Values(Protocol::kRaft, Protocol::kNbRaft),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<BoundedRecoveryTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) == Protocol::kRaft
                             ? "Raft"
                             : "NbRaft") +
             "Seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nbraft::harness
