// Dynamic-membership chaos matrix through the parallel sweep scheduler:
// elastic clusters grow 1 -> 3 -> 5 voters (scripted MembershipActions at
// round boundaries) and shrink 5 -> 3 under membership churn (the
// kMembershipChurn nemesis removes voters mid-fault and re-adds them as
// learners), for both Raft and NB-Raft, across randomized fault
// schedules. Every safety invariant — election safety across config
// boundaries, committed-entry survival through joint consensus, the
// voter-roster durability quorum — must hold on every seed, and the
// merged sweep report must be byte-identical across worker counts and
// across a double run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "chaos/chaos_plan.h"
#include "chaos/chaos_runner.h"
#include "chaos/chaos_sweep.h"
#include "chaos/invariants.h"
#include "chaos/nemesis.h"
#include "harness/cluster.h"
#include "raft/membership.h"
#include "raft/raft_node.h"
#include "sweep/scheduler.h"

namespace nbraft::chaos {
namespace {

using MembershipAction = ChaosRunner::MembershipAction;

harness::ClusterConfig ElasticConfig(raft::Protocol protocol, uint64_t seed,
                                     int initial_voters) {
  harness::ClusterConfig config;
  config.num_nodes = 5;
  config.num_clients = 2;
  config.initial_voters = initial_voters;
  config.protocol = protocol;
  config.window_size = 64;
  config.payload_size = 256;
  config.client_think = Millis(1);
  config.election_timeout = Millis(150);
  config.seed = seed * 104729 + 7;
  config.client_backoff_base = Millis(150);
  config.client_backoff_cap = Millis(1200);
  // Finite per-client workload so the post-heal drain reaches quiescence
  // and the oracle's committed-id accounting stays enumerable.
  config.client_max_requests = 120;
  config.snapshot_threshold = 0;
  config.workload.series_count = 64;
  // A churned-out replica whose re-add ran out of retries keeps campaigning
  // under the stale configuration still in its log — the classic Raft §6
  // disrupted-server problem. Elastic clusters run the full mitigation
  // stack so a removed node cannot depose working leaders.
  config.pre_vote = true;
  config.check_quorum_lease = true;
  // Membership state must survive crashes: a non-durable node would wake
  // up believing the bootstrap roster, forking the configuration history.
  // Elastic clusters therefore always run on the simulated durable disks
  // (config markers ride the WAL, see storage::DurableLog::AppendConfig).
  config.disk.enabled = true;
  config.disk.write_latency = Micros(10);
  config.disk.fsync_latency = Micros(100);
  config.disk.group_commit = true;
  config.disk.fault_seed = seed;
  return config;
}

ChaosPlan SweepPlan(uint64_t seed, bool with_churn) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.min_gap = Millis(30);
  plan.max_gap = Millis(120);
  plan.min_duration = Millis(50);
  plan.max_duration = Millis(200);
  if (with_churn) {
    // The default environmental mix plus the membership fault, weighted
    // so roughly a quarter of injections are configuration churn.
    plan.mix = {FaultKind::kCrash,          FaultKind::kPartition,
                FaultKind::kDelayStorm,     FaultKind::kClockSkew,
                FaultKind::kSlowNode,       FaultKind::kMembershipChurn,
                FaultKind::kMembershipChurn};
  }
  return plan;
}

/// Post-run check executed inside the cell, while the Cluster is alive:
/// membership ended active, non-joint, with the final leader a voter of a
/// roster that is at least quorate — and the run actually exercised the
/// config-change machinery.
std::string CheckMembershipState(int min_voters, uint64_t min_changes,
                                 ChaosRunner& runner,
                                 const ChaosReport& report) {
  harness::Cluster* cluster = runner.cluster();
  raft::RaftNode* leader = cluster->leader();
  if (leader == nullptr) return "no leader at quiescence";
  raft::MembershipEngine* membership = leader->membership();
  if (!membership->active()) return "membership engine dormant";
  const raft::Configuration& config = membership->config();
  if (config.joint()) {
    return "joint window still open at quiescence: " + config.Encode();
  }
  if (static_cast<int>(config.voters.size()) < min_voters) {
    return "final roster " + config.Encode() + " below " +
           std::to_string(min_voters) + " voters";
  }
  if (report.config_changes < min_changes) {
    return "only " + std::to_string(report.config_changes) +
           " config changes committed (wanted >= " +
           std::to_string(min_changes) + ")";
  }
  if (!cluster->group(0)->CheckLogMatching().ok()) {
    return "log matching violated";
  }
  if (!cluster->group(0)->CheckCommittedPrefixes().ok()) {
    return "committed prefixes diverged";
  }
  return "";
}

void AttachPostmortem(ChaosCell* cell, const char* test) {
  // CI sets NBRAFT_POSTMORTEM_DIR so a failing seed leaves its merged
  // flight-recorder dump behind as an uploadable artifact, scoped per
  // cell so concurrent cells never collide.
  if (const char* dir = std::getenv("NBRAFT_POSTMORTEM_DIR")) {
    cell->options.postmortem_dir =
        std::string(dir) + "/" + test + "." + cell->name;
  }
}

/// Grow 1 -> 3 -> 5: a singleton bootstrap voter takes traffic alone,
/// then scripted adds (learner join + recovery catch-up + auto-promote)
/// scale the roster out to five voters while the nemesis runs the default
/// environmental mix.
ChaosCell GrowCell(raft::Protocol protocol, uint64_t seed) {
  ChaosCell cell;
  cell.name = std::string(protocol == raft::Protocol::kRaft ? "Raft"
                                                            : "NbRaft") +
              "GrowSeed" + std::to_string(seed);
  cell.config = ElasticConfig(protocol, seed, /*initial_voters=*/1);
  cell.plan = SweepPlan(seed, /*with_churn=*/false);
  // A singleton voter crashing would stall the group for the whole fault;
  // let the growth path get off the ground before heavy faults.
  cell.plan.max_concurrent_crashes = 1;
  cell.options.rounds = 5;
  cell.options.round_length = Millis(200);
  cell.options.drain = Millis(2000);
  cell.options.membership_plan = {
      {0, MembershipAction::Kind::kAdd, 0, 1},
      {0, MembershipAction::Kind::kAdd, 0, 2},
      {2, MembershipAction::Kind::kAdd, 0, 3},
      {2, MembershipAction::Kind::kAdd, 0, 4},
  };
  AttachPostmortem(&cell, "MembershipChaosSweep");
  // Every scripted add that landed commits at least one config entry; the
  // floor of 2 changes tolerates adds that ran out of retries on hostile
  // seeds while still proving the machinery ran, and the roster must have
  // reached at least 3 voters (1 would mean no promotion ever completed).
  cell.check = [](ChaosRunner& runner, const ChaosReport& report) {
    return CheckMembershipState(/*min_voters=*/3, /*min_changes=*/2, runner,
                                report);
  };
  return cell;
}

/// Shrink-under-churn: five voters, with the kMembershipChurn nemesis
/// yanking non-leader voters out of the configuration mid-fault (re-added
/// as learners on heal) plus a scripted remove and a leadership transfer.
ChaosCell ChurnCell(raft::Protocol protocol, uint64_t seed) {
  ChaosCell cell;
  cell.name = std::string(protocol == raft::Protocol::kRaft ? "Raft"
                                                            : "NbRaft") +
              "ChurnSeed" + std::to_string(seed);
  cell.config = ElasticConfig(protocol, seed, /*initial_voters=*/5);
  cell.plan = SweepPlan(seed, /*with_churn=*/true);
  cell.options.rounds = 5;
  cell.options.round_length = Millis(200);
  cell.options.drain = Millis(2000);
  cell.options.membership_plan = {
      {1, MembershipAction::Kind::kRemove, 0, 4},
      {3, MembershipAction::Kind::kTransfer, 0, 1},
  };
  AttachPostmortem(&cell, "MembershipChaosSweep");
  cell.check = [](ChaosRunner& runner, const ChaosReport& report) {
    return CheckMembershipState(/*min_voters=*/3, /*min_changes=*/1, runner,
                                report);
  };
  return cell;
}

std::vector<ChaosCell> MatrixCells(uint64_t first_seed, uint64_t last_seed) {
  std::vector<ChaosCell> cells;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      cells.push_back(GrowCell(protocol, seed));
      cells.push_back(ChurnCell(protocol, seed));
    }
  }
  return cells;
}

TEST(MembershipChaosSweepTest, FullMatrixSurvivesAndReplaysIdentically) {
  const std::vector<ChaosCell> cells = MatrixCells(1, 5);
  const int workers = sweep::WorkersFromEnv(/*fallback=*/0);
  const ChaosSweepOutcome a = RunChaosSweep(cells, workers);
  EXPECT_TRUE(a.ok()) << a.sweep.Summary();
  for (size_t i = 0; i < a.reports.size(); ++i) {
    const ChaosReport& report = a.reports[i];
    const std::string& name = a.sweep.results[i].name;
    ASSERT_TRUE(a.sweep.results[i].completed)
        << name << ": " << a.sweep.results[i].error;
    EXPECT_TRUE(a.sweep.results[i].ok())
        << name << ": " << a.sweep.results[i].output.detail;
    // Zero safety violations on every seed: this is the acceptance bar —
    // joint consensus must keep every invariant through every change.
    EXPECT_TRUE(report.ok()) << name << ": " << report.Summary();
    EXPECT_GT(report.faults.size(), 0u) << name << ": nemesis injected nothing";
    EXPECT_GT(report.requests_completed, 0u)
        << name << ": workload never converged";
    EXPECT_GT(report.strong_acked, 0u) << name;
    EXPECT_GT(report.config_changes, 0u)
        << name << ": no config change ever committed";
  }

  // Determinism: the same elastic matrix replays to identical bytes —
  // fault schedules (membership churn included), membership counters, the
  // committed-prefix hash, and the merged sweep report.
  const ChaosSweepOutcome b = RunChaosSweep(cells, workers);
  EXPECT_EQ(a.sweep.merged_hash, b.sweep.merged_hash);
  EXPECT_EQ(a.sweep.ToJson(), b.sweep.ToJson());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].fault_fingerprint, b.reports[i].fault_fingerprint)
        << a.sweep.results[i].name;
    ASSERT_EQ(a.reports[i].faults.size(), b.reports[i].faults.size());
    for (size_t f = 0; f < a.reports[i].faults.size(); ++f) {
      EXPECT_EQ(FaultRecordToString(a.reports[i].faults[f]),
                FaultRecordToString(b.reports[i].faults[f]))
          << a.sweep.results[i].name << ": fault schedule diverged at action "
          << f;
    }
    EXPECT_EQ(a.reports[i].config_changes, b.reports[i].config_changes)
        << a.sweep.results[i].name;
    EXPECT_EQ(a.reports[i].learners_promoted, b.reports[i].learners_promoted)
        << a.sweep.results[i].name;
    EXPECT_EQ(a.reports[i].committed_prefix_hash,
              b.reports[i].committed_prefix_hash)
        << a.sweep.results[i].name;
  }
}

TEST(MembershipChaosSweepTest, MergedReportByteIdenticalAcrossWorkerCounts) {
  // Membership changes thread extra scheduling (recovery rounds, retry
  // timers, churn heals) through the simulator — pin that none of it
  // leaks across worker threads: workers {1, 4, max}.
  const std::vector<ChaosCell> cells = MatrixCells(1, 2);
  const ChaosSweepOutcome serial = RunChaosSweep(cells, /*workers=*/1);
  EXPECT_TRUE(serial.ok()) << serial.sweep.Summary();
  const ChaosSweepOutcome four = RunChaosSweep(cells, /*workers=*/4);
  const ChaosSweepOutcome max = RunChaosSweep(cells, /*workers=*/0);
  EXPECT_EQ(serial.sweep.merged_hash, four.sweep.merged_hash);
  EXPECT_EQ(serial.sweep.merged_hash, max.sweep.merged_hash);
  EXPECT_EQ(serial.sweep.ToJson(), four.sweep.ToJson());
  EXPECT_EQ(serial.sweep.ToJson(), max.sweep.ToJson());
}

/// Deterministic (no nemesis) end-to-end elastic lifecycle: grow a
/// singleton to five voters through learner catch-up and auto-promotion,
/// hand leadership over with TimeoutNow, then shrink back — each step
/// observable through the leader's configuration.
TEST(ElasticScaleTest, GrowTransferShrinkLifecycle) {
  harness::Cluster cluster(ElasticConfig(raft::Protocol::kNbRaft, /*seed=*/3,
                                         /*initial_voters=*/1));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader(Seconds(5)));
  cluster.StartClients();
  cluster.RunFor(Millis(200));

  // Retries an elastic operation until it is accepted (changes collide
  // with each other by design: one at a time).
  const auto eventually = [&cluster](const std::function<bool()>& op) {
    for (int i = 0; i < 200; ++i) {
      if (op()) return true;
      cluster.RunFor(Millis(50));
    }
    return false;
  };
  const auto voters = [&cluster]() -> int {
    raft::RaftNode* leader = cluster.leader();
    if (leader == nullptr) return -1;
    const raft::Configuration& config = leader->membership()->config();
    return config.joint() ? -1 : static_cast<int>(config.voters.size());
  };

  for (int host = 1; host <= 4; ++host) {
    ASSERT_TRUE(eventually([&]() { return cluster.AddNode(0, host); }))
        << "add " << host << " never accepted";
    // Catch-up + auto-promotion: the learner becomes a voter once its
    // durable prefix is within the promotion lag.
    ASSERT_TRUE(eventually([&]() { return voters() == host + 1; }))
        << "host " << host << " never promoted";
  }
  ASSERT_EQ(voters(), 5);

  raft::RaftNode* old_leader = cluster.leader();
  ASSERT_NE(old_leader, nullptr);
  const int target = old_leader->id() == 1 ? 2 : 1;
  ASSERT_TRUE(
      eventually([&]() { return cluster.TransferLeadership(0, target); }));
  ASSERT_TRUE(eventually([&]() {
    raft::RaftNode* leader = cluster.leader();
    return leader != nullptr && leader->id() == target;
  })) << "leadership never moved to " << target;

  ASSERT_TRUE(eventually([&]() { return cluster.RemoveNode(0, 4); }));
  ASSERT_TRUE(eventually([&]() { return voters() == 4; }));
  raft::RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_FALSE(leader->membership()->Knows(4));
  // The removed replica went passive: it no longer campaigns.
  EXPECT_NE(cluster.node(4)->role(), raft::Role::kLeader);

  cluster.RunFor(Millis(500));
  EXPECT_TRUE(cluster.CheckLogMatching().ok());
  EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok());
  EXPECT_GT(cluster.Collect().requests_completed, 0u);
  uint64_t promoted = 0;
  uint64_t transfers = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    promoted += cluster.node(i)->stats().learners_promoted;
    transfers += cluster.node(i)->stats().transfers;
  }
  EXPECT_GE(promoted, 4u);
  EXPECT_GE(transfers, 1u);
}

/// Two learners joining a saturated 3-voter cluster (bench_membership's
/// load) must both reach their voter seats under a tight promotion lag.
/// The leader appends far more than `promotion_lag` entries per recovery
/// round, so a learner fed only by throttled rounds is always behind at
/// the round's eligibility check; it has to rejoin ordinary fan-out once
/// a round reads it out to the log head.
TEST(ElasticScaleTest, TightLagSeatsBothLearnersUnderSaturatingLoad) {
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    harness::ClusterConfig config;
    config.num_nodes = 5;
    config.initial_voters = 3;
    config.promotion_lag = 4;
    config.recovery_batch = 512;
    config.num_clients = 4;
    config.workload.series_count = 64;
    config.protocol = protocol;
    config.window_size = protocol == raft::Protocol::kRaft ? 0 : 32;
    config.payload_size = 1024;
    config.client_think = Micros(5);
    config.seed = 271828;
    config.release_payloads = true;
    config.pre_vote = true;
    config.check_quorum_lease = true;
    harness::Cluster cluster(config);
    cluster.Start();
    ASSERT_TRUE(cluster.AwaitLeader());
    cluster.StartClients();
    cluster.RunFor(Millis(100));

    // Proposes AddNode(host) and waits up to 2 s of virtual time for the
    // leader to seat it as a voter.
    const auto join_and_seat = [&cluster](int host) {
      bool proposed = cluster.AddNode(0, host);
      for (int i = 0; i < 400; ++i) {
        cluster.RunFor(Millis(5));
        raft::RaftNode* leader = cluster.leader();
        if (leader == nullptr) continue;
        if (!proposed) proposed = cluster.AddNode(0, host);
        if (!leader->membership()->ChangeInFlight() &&
            leader->membership()->IsVoter(host)) {
          return true;
        }
      }
      return false;
    };
    const std::string name(raft::ProtocolName(protocol));
    EXPECT_TRUE(join_and_seat(3)) << name << ": host 3 never seated";
    EXPECT_TRUE(join_and_seat(4)) << name << ": host 4 never seated";
    uint64_t promoted = 0;
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      promoted += cluster.node(i)->stats().learners_promoted;
    }
    EXPECT_EQ(promoted, 2u) << name;
    EXPECT_TRUE(cluster.CheckLogMatching().ok()) << name;
    EXPECT_TRUE(cluster.CheckCommittedPrefixes().ok()) << name;
  }
}

}  // namespace
}  // namespace nbraft::chaos
