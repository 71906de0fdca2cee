// Multi-Raft cluster integration: several consensus groups share one
// simulated substrate (hosts, NICs, CPU pools, disk lanes). Covers group
// bring-up and per-group commit progress, physical-host crash semantics
// (co-resident replicas die together, log matching holds after restart),
// leader routing through a host crash (the live-replica leader lookup and
// the clients' own redirects), workload sharding (each group ingests
// exactly its ShardMap slice), and group-labeled stats/observability
// output.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cluster.h"
#include "tsdb/ingest_record.h"

namespace nbraft::harness {
namespace {

ClusterConfig MultiConfig(int groups, raft::Protocol protocol,
                          uint64_t seed = 42) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_groups = groups;
  config.num_clients = 2;  // Per group.
  config.protocol = protocol;
  config.window_size = 64;
  config.payload_size = 256;
  config.client_think = Millis(1);
  config.election_timeout = Millis(150);
  config.seed = seed;
  config.workload.series_count = 64;
  // Keep the whole log inspectable: no compaction, no payload release.
  config.snapshot_threshold = 0;
  config.release_payloads = false;
  return config;
}

TEST(MultiRaftClusterTest, EveryGroupElectsAndCommits) {
  Cluster cluster(MultiConfig(4, raft::Protocol::kNbRaft));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  cluster.StartClients();
  cluster.RunFor(Millis(500));

  for (int g = 0; g < 4; ++g) {
    raft::RaftNode* leader = cluster.leader(g);
    ASSERT_NE(leader, nullptr) << "group " << g;
    EXPECT_GT(leader->commit_index(), 0) << "group " << g;
    const ClusterStats stats = cluster.CollectGroup(g);
    EXPECT_GT(stats.requests_completed, 0u) << "group " << g;
  }
  // The merged view sums the groups.
  const ClusterStats all = cluster.Collect();
  uint64_t sum = 0;
  for (int g = 0; g < 4; ++g) sum += cluster.CollectGroup(g).requests_completed;
  EXPECT_EQ(all.requests_completed, sum);
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());

  // Crashing group 1's leader host kills every co-resident replica on it.
  raft::RaftNode* victim = cluster.leader(1);
  ASSERT_NE(victim, nullptr);
  const int host = cluster.group(1)->ReplicaOf(victim->id());
  ASSERT_GE(host, 0);
  cluster.CrashNode(host);
  for (int g = 0; g < 4; ++g) {
    EXPECT_TRUE(cluster.node(g, host)->crashed()) << "group " << g;
  }

  // Every group re-elects on the surviving hosts, and the logs still
  // match once the host rejoins and catches up.
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  cluster.RestartNode(host);
  cluster.RunFor(Millis(300));
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
}

TEST(MultiRaftClusterTest, BootstrapSpreadsLeadersRoundRobin) {
  Cluster cluster(MultiConfig(3, raft::Protocol::kRaft));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  // Round-robin bootstrap: group g's first leader is replica g % N (no
  // faults have run, so the bootstrap placement is still standing).
  for (int g = 0; g < 3; ++g) {
    raft::RaftNode* leader = cluster.leader(g);
    ASSERT_NE(leader, nullptr);
    EXPECT_EQ(cluster.group(g)->ReplicaOf(leader->id()), g % 3);
  }
}

TEST(MultiRaftClusterTest, GroupsIngestDisjointSeriesSlices) {
  Cluster cluster(MultiConfig(4, raft::Protocol::kNbRaft));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  cluster.StartClients();
  cluster.RunFor(Millis(300));

  // Decode the series ids actually replicated through each group and
  // check them against the ShardMap placement.
  const ShardMap& map = cluster.shard_map();
  for (int g = 0; g < 4; ++g) {
    raft::RaftNode* leader = cluster.leader(g);
    ASSERT_NE(leader, nullptr);
    const auto& log = leader->log();
    int checked = 0;
    std::vector<tsdb::Measurement> batch;
    for (storage::LogIndex i = log.FirstIndex(); i <= log.LastIndex(); ++i) {
      const auto& e = log.AtUnchecked(i);
      if (e.client_id == net::kInvalidNode || e.payload.size() == 0) continue;
      const Status status = tsdb::ParseIngestBatch(e.payload.view(), &batch);
      ASSERT_TRUE(status.ok()) << status.ToString();
      for (const tsdb::Measurement& m : batch) {
        EXPECT_EQ(map.GroupForSeries(m.series_id), g)
            << "series " << m.series_id << " replicated through group " << g;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0) << "group " << g << " replicated nothing";
  }
}

TEST(MultiRaftClusterTest, RouterTracksLeadersAndCrashInvalidates) {
  // Leader routing has two parts: the cluster's per-group lookup, which
  // counts only live replicas, and the clients, which follow their own
  // redirects and timeouts to a new leader.
  Cluster cluster(MultiConfig(4, raft::Protocol::kNbRaft));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  cluster.StartClients();
  cluster.RunFor(Millis(300));

  std::vector<raft::RaftNode*> before(4, nullptr);
  std::vector<storage::Term> terms(4, 0);
  std::vector<uint64_t> completed(4, 0);
  for (int g = 0; g < 4; ++g) {
    before[static_cast<size_t>(g)] = cluster.leader(g);
    ASSERT_NE(before[static_cast<size_t>(g)], nullptr) << "group " << g;
    terms[static_cast<size_t>(g)] =
        before[static_cast<size_t>(g)]->current_term();
    completed[static_cast<size_t>(g)] =
        cluster.CollectGroup(g).requests_completed;
    EXPECT_GT(completed[static_cast<size_t>(g)], 0u) << "group " << g;
  }

  // Crash group 1's leader host: every group led from that host loses its
  // leader at once; the others keep theirs.
  const int host = cluster.group(1)->ReplicaOf(before[1]->id());
  ASSERT_GE(host, 0);
  cluster.CrashNode(host);
  for (int g = 0; g < 4; ++g) {
    raft::RaftNode* old = before[static_cast<size_t>(g)];
    if (cluster.group(g)->ReplicaOf(old->id()) == host) {
      EXPECT_EQ(cluster.leader(g), nullptr) << "group " << g;
    } else {
      EXPECT_EQ(cluster.leader(g), old) << "group " << g;
    }
  }

  // The deposed groups re-elect on the surviving hosts in a newer term,
  // and every group's clients find their leader and complete requests.
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  for (int g = 0; g < 4; ++g) {
    raft::RaftNode* now = cluster.leader(g);
    ASSERT_NE(now, nullptr) << "group " << g;
    EXPECT_NE(cluster.group(g)->ReplicaOf(now->id()), host) << "group " << g;
    if (now != before[static_cast<size_t>(g)]) {
      EXPECT_GT(now->current_term(), terms[static_cast<size_t>(g)])
          << "group " << g;
    }
  }
  cluster.RunFor(Seconds(3));
  for (int g = 0; g < 4; ++g) {
    EXPECT_GT(cluster.CollectGroup(g).requests_completed,
              completed[static_cast<size_t>(g)])
        << "group " << g;
  }
  cluster.RestartNode(host);
  cluster.RunFor(Millis(300));
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
}

TEST(MultiRaftClusterTest, GroupLabeledStatsAndEndpointNames) {
  ClusterConfig config = MultiConfig(2, raft::Protocol::kNbRaft);
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));

  const std::string json = cluster.NodeStatsJson();
  EXPECT_NE(json.find("\"g0.node0\""), std::string::npos);
  EXPECT_NE(json.find("\"g1.node2\""), std::string::npos);
  EXPECT_NE(json.find("\"group\""), std::string::npos);
  EXPECT_NE(json.find("\"replica\""), std::string::npos);

  EXPECT_EQ(cluster.EndpointName(0), "g0 node 0");
  EXPECT_EQ(cluster.EndpointName(4), "g1 node 1");
  EXPECT_EQ(cluster.EndpointName(net::kClientIdBase + 3), "g1 client 1");

  // Node identity lands in the per-node stats too.
  EXPECT_EQ(cluster.node(1, 2)->stats().group, 1);
  EXPECT_EQ(cluster.node(1, 2)->stats().replica, 2);
}

TEST(MultiRaftClusterTest, SingleGroupKeepsHistoricalSurface) {
  // The G=1 cluster still renders the historical names and stats keys
  // (bit-identity of the behavior itself is pinned by
  // examples/behavior_fingerprint, not here).
  Cluster cluster(MultiConfig(1, raft::Protocol::kNbRaft));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  const std::string json = cluster.NodeStatsJson();
  EXPECT_NE(json.find("\"node0\""), std::string::npos);
  EXPECT_EQ(json.find("\"g0.node0\""), std::string::npos);
  EXPECT_EQ(cluster.EndpointName(0), "node 0");
  EXPECT_EQ(cluster.EndpointName(net::kClientIdBase + 1), "client 1");
  EXPECT_EQ(cluster.num_groups(), 1);
  EXPECT_EQ(cluster.leader(), cluster.leader(0));
}

TEST(MultiRaftClusterTest, DoubleRunIsDeterministic) {
  const auto digest = [](Cluster& cluster) {
    cluster.Start();
    EXPECT_TRUE(cluster.AwaitLeader(Seconds(5)));
    cluster.StartClients();
    cluster.RunFor(Millis(400));
    std::vector<uint64_t> out;
    for (int g = 0; g < cluster.num_groups(); ++g) {
      const ClusterStats s = cluster.CollectGroup(g);
      out.push_back(s.requests_completed);
      out.push_back(s.weak_accepts);
      raft::RaftNode* leader = cluster.leader(g);
      out.push_back(leader != nullptr
                        ? static_cast<uint64_t>(leader->commit_index())
                        : 0);
    }
    out.push_back(cluster.network()->messages_sent());
    out.push_back(cluster.network()->bytes_sent());
    return out;
  };
  Cluster a(MultiConfig(4, raft::Protocol::kNbRaft, /*seed=*/7));
  Cluster b(MultiConfig(4, raft::Protocol::kNbRaft, /*seed=*/7));
  EXPECT_EQ(digest(a), digest(b));
}

}  // namespace
}  // namespace nbraft::harness
