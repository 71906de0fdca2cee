#ifndef NBRAFT_TESTS_CHAOS_POSTMORTEM_SCENARIO_H_
#define NBRAFT_TESTS_CHAOS_POSTMORTEM_SCENARIO_H_

// The induced-corruption post-mortem scenario, shared by
// tests/chaos/postmortem_test.cc and examples/behavior_fingerprint.cpp (whose
// golden pins the dump's bytes): an NB-Raft cluster whose nemesis never
// fires, with one committed follower entry corrupted after round 1.

#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos_plan.h"
#include "chaos/chaos_runner.h"
#include "harness/cluster.h"
#include "raft/raft_node.h"
#include "storage/raft_log.h"

namespace nbraft::chaos {

inline harness::ClusterConfig PostmortemConfig() {
  harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = 3;
  config.protocol = raft::Protocol::kNbRaft;
  config.window_size = 64;
  config.payload_size = 256;
  config.client_think = Millis(1);
  config.election_timeout = Millis(150);
  config.seed = 4242;
  config.client_max_requests = 200;
  config.snapshot_threshold = 0;
  return config;
}

// A plan whose first nemesis action lands long after the run ends: the
// violation must come from the injected corruption, nothing else.
inline ChaosPlan QuietPlan() {
  ChaosPlan plan;
  plan.seed = 7;
  plan.min_gap = Seconds(30);
  plan.max_gap = Seconds(40);
  return plan;
}

inline ChaosRunner::Options PostmortemOptions(const std::string& dir) {
  ChaosRunner::Options options;
  options.rounds = 3;
  options.round_length = Millis(200);
  options.drain = Millis(500);
  options.postmortem_dir = dir;
  options.postmortem_lookback = Seconds(2);
  return options;
}

/// Flips one committed entry's request id on the first follower whose
/// commit point is inside its physical log — the in-memory image now
/// disagrees with the rest of the cluster on a committed index, which is
/// exactly the State Machine Safety violation the oracle hunts.
inline void CorruptCommittedFollowerEntry(harness::Cluster* cluster) {
  raft::RaftNode* leader = cluster->leader();
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    raft::RaftNode* node = cluster->node(n);
    if (node == leader || node->crashed()) continue;
    storage::RaftLog& log = node->log();
    const storage::LogIndex target = node->commit_index();
    if (target < log.FirstIndex() || target > log.LastIndex()) continue;

    // Copy the suffix, rewrite it with one bit of history changed. Terms
    // are untouched so the log's own continuity checks keep passing — the
    // "corruption" is purely in the replicated content.
    std::vector<storage::LogEntry> suffix;
    for (storage::LogIndex i = target; i <= log.LastIndex(); ++i) {
      suffix.push_back(log.AtUnchecked(i));
    }
    if (!log.TruncateSuffix(target).ok()) return;
    suffix.front().request_id ^= 0xDEADBEEF;
    for (storage::LogEntry& entry : suffix) {
      log.Append(std::move(entry));
    }
    return;
  }
}

/// Runs the scenario, dumping the post-mortem under `dir`.
inline ChaosReport RunCorruptedScenario(const std::string& dir) {
  ChaosRunner runner(PostmortemConfig(), QuietPlan(), PostmortemOptions(dir));
  runner.set_mid_run_hook([](harness::Cluster* cluster, int round) {
    if (round == 1) CorruptCommittedFollowerEntry(cluster);
  });
  return runner.Run();
}

}  // namespace nbraft::chaos

#endif  // NBRAFT_TESTS_CHAOS_POSTMORTEM_SCENARIO_H_
