// Every message a cluster delivers is billed exactly its own WireSize():
// each endpoint's handler is wrapped with a check on the delivered struct
// that then forwards the message. The three clusters together send every
// RPC of raft/messages.h — Raft with PreVote, snapshots and a leadership
// transfer (votes and pre-votes, InstallSnapshot, TimeoutNow), CRaft
// (fragment shards) and KRaft (relayed AppendEntries).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "harness/cluster.h"
#include "raft/messages.h"
#include "raft/raft_client.h"
#include "raft/raft_node.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::raft {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using raft_test::SmallConfig;

/// What the wrapped endpoints were delivered.
struct Audit {
  std::set<obs::JournalRpc> kinds;
  uint64_t unknown = 0;
  uint64_t pre_votes = 0;
  uint64_t shards = 0;
  uint64_t relayed = 0;  ///< AppendEntries forwarded by a follower.
};

template <typename Msg>
bool Check(const net::Message& m, Audit* audit) {
  const Msg* msg = m.payload.Get<Msg>();
  if (msg == nullptr) return false;
  audit->kinds.insert(msg->rpc());
  EXPECT_EQ(m.bytes, msg->WireSize())
      << obs::JournalRpcName(msg->rpc()) << " " << m.from << " -> " << m.to;
  return true;
}

void Inspect(const net::Message& m, Audit* audit) {
  const bool known = Check<AppendEntriesRequest>(m, audit) ||
                     Check<AppendEntriesResponse>(m, audit) ||
                     Check<RequestVoteRequest>(m, audit) ||
                     Check<RequestVoteResponse>(m, audit) ||
                     Check<InstallSnapshotRequest>(m, audit) ||
                     Check<InstallSnapshotResponse>(m, audit) ||
                     Check<ClientRequest>(m, audit) ||
                     Check<ClientResponse>(m, audit) ||
                     Check<TimeoutNowRequest>(m, audit);
  if (!known) ++audit->unknown;
  if (const auto* ae = m.payload.Get<AppendEntriesRequest>()) {
    if (ae->entry.IsFragment()) ++audit->shards;
    if (m.from != ae->leader) ++audit->relayed;
  }
  if (const auto* rv = m.payload.Get<RequestVoteRequest>()) {
    if (rv->pre_vote) ++audit->pre_votes;
  }
}

/// Re-registers each endpoint with a wrapper that audits, then forwards.
void Wrap(Cluster* cluster, const std::vector<net::NodeId>& ids,
          Audit* audit) {
  net::SimNetwork* network = cluster->network();
  for (const net::NodeId id : ids) {
    net::MessageHandler inner = network->handler(id);
    ASSERT_TRUE(inner) << "endpoint " << id << " not registered";
    network->RegisterEndpoint(
        id, [inner = std::move(inner), audit](net::Message&& m) {
          Inspect(m, audit);
          inner(std::move(m));
        });
  }
}

/// Starts `cluster` with every replica and client endpoint wrapped.
void StartAudited(Cluster* cluster, Audit* audit) {
  cluster->Start();
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    nodes.push_back(cluster->node(i)->id());
  }
  Wrap(cluster, nodes, audit);
  ASSERT_TRUE(cluster->AwaitLeader());
  cluster->StartClients();
  std::vector<net::NodeId> clients;
  for (int c = 0; c < cluster->num_clients(); ++c) {
    clients.push_back(cluster->client(c)->id());
  }
  Wrap(cluster, clients, audit);
}

int FollowerOf(Cluster* cluster) {
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    if (cluster->node(i)->role() != Role::kLeader) return i;
  }
  return -1;
}

TEST(WireSizeTest, EveryDeliveredRpcIsBilledItsOwnWireSize) {
  Audit audit;
  {
    // Raft with PreVote: a follower crashed past the compaction point
    // catches up by InstallSnapshot, leadership moves by TimeoutNow, and a
    // leader crash makes the survivors canvass pre-votes.
    ClusterConfig config = SmallConfig(Protocol::kRaft, 3, 4, 61);
    config.pre_vote = true;
    config.snapshot_threshold = 200;
    config.snapshot_keep_tail = 32;
    Cluster cluster(config);
    StartAudited(&cluster, &audit);
    cluster.RunFor(Millis(300));
    const int victim = FollowerOf(&cluster);
    ASSERT_GE(victim, 0);
    cluster.CrashNode(victim);
    cluster.RunFor(Seconds(2));
    cluster.RestartNode(victim);
    cluster.RunFor(Seconds(1));
    EXPECT_GT(cluster.node(victim)->stats().snapshots_installed, 0u);
    ASSERT_TRUE(cluster.TransferLeadership(0, FollowerOf(&cluster)));
    cluster.RunFor(Millis(500));
    cluster.CrashLeader();
    cluster.RunFor(Seconds(1));
    EXPECT_NE(cluster.leader(), nullptr);
    EXPECT_TRUE(cluster.CheckLogMatching().ok());
  }
  {
    Cluster cluster(SmallConfig(Protocol::kCRaft, 5, 4, 62));
    StartAudited(&cluster, &audit);
    cluster.RunFor(Millis(300));
  }
  {
    Cluster cluster(SmallConfig(Protocol::kKRaft, 5, 4, 63));
    StartAudited(&cluster, &audit);
    cluster.RunFor(Millis(300));
  }

  EXPECT_EQ(audit.unknown, 0u);
  EXPECT_GT(audit.pre_votes, 0u);
  EXPECT_GT(audit.shards, 0u);
  EXPECT_GT(audit.relayed, 0u);
  const std::set<obs::JournalRpc> every = {
      obs::JournalRpc::kAppendEntries,   obs::JournalRpc::kHeartbeat,
      obs::JournalRpc::kAppendEntriesResp, obs::JournalRpc::kRequestVote,
      obs::JournalRpc::kRequestVoteResp, obs::JournalRpc::kClientRequest,
      obs::JournalRpc::kClientResponse,  obs::JournalRpc::kInstallSnapshot,
      obs::JournalRpc::kInstallSnapshotResp, obs::JournalRpc::kTimeoutNow};
  EXPECT_EQ(audit.kinds, every);
}

}  // namespace
}  // namespace nbraft::raft
