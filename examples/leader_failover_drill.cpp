// Leader failover drill (the paper's Sec. IV / Fig. 13 scenario): ingest
// under NB-Raft, kill the leader and every client at the same instant,
// watch a new leader take over, and account for exactly how many requests
// were lost — verifying the paper's N_cli + w bound and that committed
// entries survive.
//
//   ./build/examples/leader_failover_drill [follower_timeout_ms]

#include <cstdio>
#include <cstdlib>

#include "harness/cluster.h"
#include "raft/types.h"

int main(int argc, char** argv) {
  using namespace nbraft;

  const int timeout_ms = argc > 1 ? std::atoi(argv[1]) : 500;
  constexpr int kClients = 32;
  constexpr int kWindow = 64;

  harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = kClients;
  config.protocol = raft::Protocol::kNbRaft;
  config.window_size = kWindow;
  config.payload_size = 4096;
  config.election_timeout = Millis(timeout_ms);
  config.seed = 99;

  std::printf("== leader failover drill: NB-Raft x3, %d clients, window "
              "%d, follower timeout %d ms ==\n\n",
              kClients, kWindow, timeout_ms);

  harness::Cluster cluster(config);
  cluster.Start();
  if (!cluster.AwaitLeader()) return 1;
  cluster.StartClients();
  cluster.RunFor(Seconds(1));

  raft::RaftNode* old_leader = cluster.leader();
  const storage::LogIndex committed_before = old_leader->commit_index();
  std::printf("t=1.0s  leader is node %d, commit index %lld\n",
              old_leader->id(),
              static_cast<long long>(committed_before));

  // The failure: leader and all clients die at the same instant.
  const int dead = cluster.CrashLeader();
  cluster.StopAllClients();
  const uint64_t issued = cluster.TotalRequestsIssued();
  std::printf("t=1.0s  KILLED leader node %d and all %d clients "
              "(%llu requests issued so far)\n",
              dead, kClients, static_cast<unsigned long long>(issued));

  if (!cluster.AwaitLeader(Seconds(15))) {
    std::printf("no new leader elected!\n");
    return 1;
  }
  cluster.RunFor(Millis(300));
  raft::RaftNode* new_leader = cluster.leader();
  std::printf("t=%.2fs new leader is node %d (term %lld)\n",
              ToSeconds(cluster.sim()->Now()), new_leader->id(),
              static_cast<long long>(new_leader->current_term()));

  int leader_index = -1;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(i) == new_leader) leader_index = i;
  }
  const uint64_t survived = cluster.CountUniqueRequestsInLog(0, leader_index);
  const uint64_t lost = issued - std::min(survived, issued);

  std::printf("\nrequests issued   : %llu\n",
              static_cast<unsigned long long>(issued));
  std::printf("requests survived : %llu\n",
              static_cast<unsigned long long>(survived));
  std::printf("requests lost     : %llu (%.5f%%)\n",
              static_cast<unsigned long long>(lost),
              issued ? 100.0 * static_cast<double>(lost) /
                           static_cast<double>(issued)
                     : 0.0);
  std::printf("paper's bound     : N_cli + w = %d\n", kClients + kWindow);
  std::printf("committed prefix  : %s (new leader's log reaches %lld >= "
              "%lld)\n",
              new_leader->log().LastIndex() >= committed_before ? "intact"
                                                                : "LOST!",
              static_cast<long long>(new_leader->log().LastIndex()),
              static_cast<long long>(committed_before));

  const bool ok = lost <= static_cast<uint64_t>(kClients + kWindow) &&
                  new_leader->log().LastIndex() >= committed_before;
  std::printf("\n%s\n", ok ? "drill PASSED" : "drill FAILED");
  return ok ? 0 : 1;
}
