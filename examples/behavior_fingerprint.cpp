// Prints a deterministic behavior fingerprint of the consensus engine:
// the chaos sweep's per-seed fault fingerprints and committed-prefix
// hashes, per-protocol steady-state run digests (committed prefix, client
// counters, network message/byte totals), and the disk chaos sweep's
// per-seed digests (the fsync-gated acknowledgement path on simulated
// disks).
//
// The output is a refactoring contract: any change that claims to be
// behavior-preserving must reproduce this byte-for-byte. The full-matrix
// output is committed as tests/golden/behavior_fingerprint.txt, and the
// BehaviorFingerprintGolden ctest diffs a fresh run against it.
//
// Usage: behavior_fingerprint [num_chaos_seeds]   (default 25, the full
// chaos sweep matrices)

#include <cstdio>
#include <cstdlib>

#include "chaos/chaos_plan.h"
#include "chaos/chaos_runner.h"
#include "harness/cluster.h"

using namespace nbraft;

namespace {

// Mirrors tests/chaos/chaos_sweep_test.cc exactly, so this probe pins the
// same behavior the sweep checks.
harness::ClusterConfig SweepConfig(raft::Protocol protocol, uint64_t seed) {
  harness::ClusterConfig config;
  config.num_nodes = (seed % 2 == 0) ? 5 : 3;
  config.num_clients = 3;
  config.protocol = protocol;
  config.window_size = 64;
  config.payload_size = 256;
  config.client_think = Millis(1);
  config.election_timeout = Millis(150);
  config.seed = seed * 7919 + 13;
  config.client_backoff_base = Millis(150);
  config.client_backoff_cap = Millis(1200);
  config.client_max_requests = 250;
  config.snapshot_threshold = 0;
  return config;
}

chaos::ChaosPlan SweepPlan(uint64_t seed) {
  chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.min_gap = Millis(30);
  plan.max_gap = Millis(120);
  plan.min_duration = Millis(50);
  plan.max_duration = Millis(200);
  return plan;
}

// Mirrors tests/chaos/disk_chaos_sweep_test.cc: the sweep cells on
// simulated disks (10 us write, 100 us fsync, group commit) under crash,
// leader-crash, disk-stall and tail-corruption faults.
harness::ClusterConfig DiskSweepConfig(raft::Protocol protocol,
                                       uint64_t seed) {
  harness::ClusterConfig config = SweepConfig(protocol, seed);
  config.client_max_requests = 200;
  config.disk.enabled = true;
  config.disk.write_latency = Micros(10);
  config.disk.fsync_latency = Micros(100);
  config.disk.group_commit = true;
  config.disk.fault_seed = seed;
  return config;
}

chaos::ChaosPlan DiskSweepPlan(uint64_t seed) {
  chaos::ChaosPlan plan = SweepPlan(seed);
  plan.mix = {chaos::FaultKind::kCrash, chaos::FaultKind::kCrashLeader,
              chaos::FaultKind::kDiskStall, chaos::FaultKind::kDiskCorruption};
  plan.disk_stall_extra = Millis(2);
  return plan;
}

chaos::ChaosRunner::Options SweepOptions() {
  chaos::ChaosRunner::Options options;
  options.rounds = 5;
  options.round_length = Millis(200);
  options.drain = Millis(1500);
  return options;
}

// A short traced steady-state run; digests commit sequence and traffic.
void SteadyStateDigest(raft::Protocol protocol, uint64_t seed) {
  harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = 6;
  config.protocol = protocol;
  config.payload_size = 512;
  config.client_think = Micros(50);
  config.election_timeout = Millis(300);
  config.seed = seed;
  config.release_payloads = false;
  config.workload.series_count = 50;
  config.trace = true;
  harness::Cluster cluster(config);
  cluster.Start();
  if (!cluster.AwaitLeader()) {
    std::printf("steady %-8s seed %llu: NO LEADER\n",
                std::string(raft::ProtocolName(protocol)).c_str(),
                static_cast<unsigned long long>(seed));
    return;
  }
  cluster.StartClients();
  cluster.RunFor(Millis(400));
  cluster.StopAllClients();
  cluster.RunFor(Millis(300));

  raft::RaftNode* leader = cluster.leader();
  uint64_t h = 1469598103934665603ULL;  // FNV-1a.
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  if (leader != nullptr) {
    const auto& log = leader->log();
    for (storage::LogIndex i = log.FirstIndex();
         i <= leader->commit_index() && i <= log.LastIndex(); ++i) {
      mix(static_cast<uint64_t>(i));
      mix(log.AtUnchecked(i).request_id);
    }
  }
  const harness::ClusterStats stats = cluster.Collect();
  std::printf("steady %-8s seed %llu: prefix %llu completed %llu weak %llu "
              "msgs %llu bytes %llu\n",
              std::string(raft::ProtocolName(protocol)).c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(h),
              static_cast<unsigned long long>(stats.requests_completed),
              static_cast<unsigned long long>(stats.weak_accepts),
              static_cast<unsigned long long>(
                  cluster.network()->messages_sent()),
              static_cast<unsigned long long>(cluster.network()->bytes_sent()));
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seeds =
      argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 25;

  for (raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      chaos::ChaosRunner runner(SweepConfig(protocol, seed), SweepPlan(seed),
                                SweepOptions());
      const chaos::ChaosReport report = runner.Run();
      std::printf("chaos %-8s seed %llu: fp %llu prefix %llu commit %lld "
                  "issued %llu completed %llu violations %zu\n",
                  std::string(raft::ProtocolName(protocol)).c_str(),
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(report.fault_fingerprint),
                  static_cast<unsigned long long>(
                      report.committed_prefix_hash),
                  static_cast<long long>(report.final_commit_index),
                  static_cast<unsigned long long>(report.requests_issued),
                  static_cast<unsigned long long>(report.requests_completed),
                  report.violations.size());
    }
  }
  for (raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed : {91ULL, 92ULL, 93ULL}) {
      SteadyStateDigest(protocol, seed);
    }
  }
  for (raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      chaos::ChaosRunner runner(DiskSweepConfig(protocol, seed),
                                DiskSweepPlan(seed), SweepOptions());
      const chaos::ChaosReport report = runner.Run();
      std::printf("disk %-8s seed %llu: fp %llu prefix %llu commit %lld "
                  "completed %llu events %llu violations %zu\n",
                  std::string(raft::ProtocolName(protocol)).c_str(),
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(report.fault_fingerprint),
                  static_cast<unsigned long long>(
                      report.committed_prefix_hash),
                  static_cast<long long>(report.final_commit_index),
                  static_cast<unsigned long long>(report.requests_completed),
                  static_cast<unsigned long long>(report.sim_events),
                  report.violations.size());
    }
  }
  return 0;
}
