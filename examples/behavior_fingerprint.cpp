// Prints a deterministic behavior fingerprint of the consensus engine:
// the chaos sweep's per-seed fault fingerprints and committed-prefix
// hashes, per-protocol steady-state run digests (committed prefix, client
// counters, network message/byte totals), the disk chaos sweep's
// per-seed digests (the fsync-gated acknowledgement path on simulated
// disks), and the observability outputs: the post-mortem JSONL and
// timeline of an induced safety violation, the lifecycle span stream of
// one traced run per protocol, and that run's observability bundle
// (Chrome trace, journal, timeline) with the sampler on. The last two
// sections pin the multi-group and elastic paths: four consensus groups on
// three hosts under the host-scoped nemesis, and a 3-voter cluster grown
// to 5 with AddNode plus one leadership transfer, both under faults.
//
// The output is a refactoring contract: any change that claims to be
// behavior-preserving must reproduce this byte-for-byte. The full-matrix
// output is committed as tests/golden/behavior_fingerprint.txt, and the
// BehaviorFingerprintGolden ctest diffs a fresh run against it.
//
// Usage: behavior_fingerprint [num_chaos_seeds]   (default 25, the full
// chaos sweep matrices)

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "chaos/chaos_plan.h"
#include "chaos/chaos_runner.h"
#include "common/hash.h"
#include "harness/cluster.h"
#include "tests/chaos/postmortem_scenario.h"

using namespace nbraft;

namespace {

/// FNV-1a word mixer for the steady-state and span digests. Its offset
/// basis is not Fnv1a64's, and the golden pins the digests it produces.
struct Fnv1a {
  uint64_t h = 1469598103934665603ULL;
  void Byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  /// Mixes `v` as eight little-endian bytes.
  void Word(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (i * 8)));
  }
};

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

// Mirrors tests/chaos/multiraft_chaos_sweep_test.cc: four groups of three
// replicas co-resident on three hosts, so every fault hits all four.
harness::ClusterConfig MultiRaftConfig(raft::Protocol protocol,
                                       uint64_t seed) {
  harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_groups = 4;
  config.num_clients = 2;  // Per group.
  config.protocol = protocol;
  config.window_size = 64;
  config.payload_size = 256;
  config.client_think = Millis(1);
  config.election_timeout = Millis(150);
  config.seed = seed * 104729 + 7;
  config.client_backoff_base = Millis(150);
  config.client_backoff_cap = Millis(1200);
  config.client_max_requests = 120;
  config.snapshot_threshold = 0;
  config.workload.series_count = 64;
  return config;
}

// Mirrors the elastic cells of tests/chaos/membership_chaos_sweep_test.cc
// (full mitigations, simulated durable disks), starting from three voters
// of five hosts.
harness::ClusterConfig ElasticConfig(raft::Protocol protocol, uint64_t seed) {
  harness::ClusterConfig config = MultiRaftConfig(protocol, seed);
  config.num_nodes = 5;
  config.num_groups = 1;
  config.initial_voters = 3;
  config.pre_vote = true;
  config.check_quorum_lease = true;
  config.disk.enabled = true;
  config.disk.write_latency = Micros(10);
  config.disk.fsync_latency = Micros(100);
  config.disk.group_commit = true;
  config.disk.fault_seed = seed;
  return config;
}

/// Each group's final leader commit index joined by '/', -1 where a group
/// ends leaderless.
std::string PerGroupCommit(harness::Cluster& cluster) {
  std::string out;
  for (int g = 0; g < cluster.num_groups(); ++g) {
    if (g > 0) out += "/";
    const raft::RaftNode* leader = cluster.leader(g);
    out += std::to_string(leader != nullptr ? leader->commit_index() : -1);
  }
  return out;
}

// A short traced steady-state run: 400 ms of load, then a 300 ms drain.
harness::ClusterConfig SteadyConfig(raft::Protocol protocol, uint64_t seed) {
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
  return config;
}

bool RunSteady(harness::Cluster& cluster) {
  cluster.Start();
  if (!cluster.AwaitLeader()) return false;
  cluster.StartClients();
  cluster.RunFor(Millis(400));
  cluster.StopAllClients();
  cluster.RunFor(Millis(300));
  return true;
}

// Digests the steady run's commit sequence and traffic.
void SteadyStateDigest(raft::Protocol protocol, uint64_t seed) {
  harness::Cluster cluster(SteadyConfig(protocol, seed));
  if (!RunSteady(cluster)) {
    std::printf("steady %-8s seed %llu: NO LEADER\n",
                std::string(raft::ProtocolName(protocol)).c_str(),
                static_cast<unsigned long long>(seed));
    return;
  }

  raft::RaftNode* leader = cluster.leader();
  Fnv1a fnv;
  if (leader != nullptr) {
    const auto& log = leader->log();
    for (storage::LogIndex i = log.FirstIndex();
         i <= leader->commit_index() && i <= log.LastIndex(); ++i) {
      fnv.Word(static_cast<uint64_t>(i));
      fnv.Word(log.AtUnchecked(i).request_id);
    }
  }
  const harness::ClusterStats stats = cluster.Collect();
  std::printf("steady %-8s seed %llu: prefix %llu completed %llu weak %llu "
              "msgs %llu bytes %llu\n",
              std::string(raft::ProtocolName(protocol)).c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(fnv.h),
              static_cast<unsigned long long>(stats.requests_completed),
              static_cast<unsigned long long>(stats.weak_accepts),
              static_cast<unsigned long long>(
                  cluster.network()->messages_sent()),
              static_cast<unsigned long long>(cluster.network()->bytes_sent()));
}

// Digests every retained lifecycle span of the steady run, field by field.
void SpanStreamDigest(raft::Protocol protocol, uint64_t seed) {
  harness::Cluster cluster(SteadyConfig(protocol, seed));
  const bool led = RunSteady(cluster);
  Fnv1a fnv;
  size_t count = 0;
  if (led) {
    for (const obs::SpanEvent& s : cluster.tracer()->spans()) {
      fnv.Word(static_cast<uint64_t>(s.phase));
      fnv.Word(static_cast<uint64_t>(s.node));
      fnv.Word(static_cast<uint64_t>(s.term));
      fnv.Word(static_cast<uint64_t>(s.index));
      fnv.Word(s.request_id);
      fnv.Word(static_cast<uint64_t>(s.start));
      fnv.Word(static_cast<uint64_t>(s.end));
      ++count;
    }
  }
  std::printf("obs spans %-8s seed %llu: fnv %llu count %zu\n",
              std::string(raft::ProtocolName(protocol)).c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(fnv.h), count);
}

/// Fnv1a64 of a file's bytes and its line count, as "fnv N lines M".
std::string FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const size_t lines =
      static_cast<size_t>(std::count(body.begin(), body.end(), '\n'));
  return "fnv " + std::to_string(Fnv1a64(body)) + " lines " +
         std::to_string(lines);
}

void PrintFileDigest(const char* what, const std::string& path) {
  std::printf("obs postmortem %s: %s\n", what, FileDigest(path).c_str());
}

// Digests the post-mortem JSONL and timeline the flight recorder dumps
// when the oracle catches the induced corruption (the scenario
// tests/chaos/postmortem_test.cc checks).
void PostmortemDigest() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("behavior_fingerprint_postmortem_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const chaos::ChaosReport report = chaos::RunCorruptedScenario(dir.string());
  if (report.postmortem_jsonl.empty()) {
    std::printf("obs postmortem: NO DUMP\n");
  } else {
    PrintFileDigest("jsonl", report.postmortem_jsonl);
    PrintFileDigest("timeline", report.postmortem_timeline);
  }
  std::filesystem::remove_all(dir);
}

// Digests the observability bundle of one traced steady run sampled every
// 1 ms: the Chrome trace and the full journal (JSONL and timeline), which
// pins every RPC send/receive record.
void ExportDigest(raft::Protocol protocol, uint64_t seed) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("behavior_fingerprint_export_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  harness::ClusterConfig config = SteadyConfig(protocol, seed);
  config.sample_interval = Millis(1);
  harness::Cluster cluster(config);
  const std::string tag(raft::ProtocolName(protocol));
  if (!RunSteady(cluster) || !cluster.WriteObsBundle(dir.string()).ok()) {
    std::printf("obs export %-8s seed %llu: FAILED\n", tag.c_str(),
                static_cast<unsigned long long>(seed));
  } else {
    std::printf(
        "obs export %-8s seed %llu: trace %s journal %s timeline %s\n",
        tag.c_str(), static_cast<unsigned long long>(seed),
        FileDigest((dir / "trace.json").string()).c_str(),
        FileDigest((dir / "journal.jsonl").string()).c_str(),
        FileDigest((dir / "timeline.txt").string()).c_str());
  }
  std::filesystem::remove_all(dir);
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
  PostmortemDigest();
  for (raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    SpanStreamDigest(protocol, 91);
  }
  for (raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    ExportDigest(protocol, 91);
  }
  for (raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      chaos::ChaosRunner runner(MultiRaftConfig(protocol, seed),
                                SweepPlan(seed), SweepOptions());
      const chaos::ChaosReport report = runner.Run();
      std::printf("multiraft %-8s seed %llu: fp %llu commit %s prefix %llu "
                  "completed %llu violations %zu\n",
                  std::string(raft::ProtocolName(protocol)).c_str(),
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(report.fault_fingerprint),
                  PerGroupCommit(*runner.cluster()).c_str(),
                  static_cast<unsigned long long>(
                      report.committed_prefix_hash),
                  static_cast<unsigned long long>(report.requests_completed),
                  report.violations.size());
    }
  }
  using MembershipAction = chaos::ChaosRunner::MembershipAction;
  for (raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      chaos::ChaosRunner::Options options = SweepOptions();
      options.drain = Millis(2000);
      options.membership_plan = {
          {0, MembershipAction::Kind::kAdd, 0, 3},
          {1, MembershipAction::Kind::kAdd, 0, 4},
          {3, MembershipAction::Kind::kTransfer, 0, 1},
      };
      chaos::ChaosRunner runner(ElasticConfig(protocol, seed),
                                SweepPlan(seed), options);
      const chaos::ChaosReport report = runner.Run();
      std::printf("elastic %-8s seed %llu: fp %llu commit %s prefix %llu "
                  "completed %llu changes %llu violations %zu\n",
                  std::string(raft::ProtocolName(protocol)).c_str(),
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(report.fault_fingerprint),
                  PerGroupCommit(*runner.cluster()).c_str(),
                  static_cast<unsigned long long>(
                      report.committed_prefix_hash),
                  static_cast<unsigned long long>(report.requests_completed),
                  static_cast<unsigned long long>(report.config_changes),
                  report.violations.size());
    }
  }
  return 0;
}
