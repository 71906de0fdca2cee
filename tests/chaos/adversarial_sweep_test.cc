// The blast-radius regression matrix for protocol-level adversaries,
// fanned out through the parallel sweep scheduler: under the
// disruptive-server attack an unmitigated cluster MUST lose a healthy
// leader to an inflated term (that is what makes the attack an attack),
// while PreVote + CheckQuorum + leader lease bring depositions to exactly
// zero with bounded term inflation — on both Raft and NB-Raft, across a
// seed matrix. Per-cell attack assertions run against the sweep's
// reports; determinism is pinned by byte-identical merged reports across
// worker counts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/chaos_plan.h"
#include "chaos/chaos_runner.h"
#include "chaos/chaos_sweep.h"
#include "chaos/invariants.h"
#include "chaos/nemesis.h"
#include "harness/cluster.h"
#include "sweep/scheduler.h"

namespace nbraft::chaos {
namespace {

struct Mitigations {
  bool pre_vote = false;
  bool check_quorum_lease = false;
};

harness::ClusterConfig AdversarialConfig(raft::Protocol protocol,
                                         uint64_t seed, Mitigations m) {
  harness::ClusterConfig config;
  config.num_nodes = 5;
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
  config.pre_vote = m.pre_vote;
  config.check_quorum_lease = m.check_quorum_lease;
  return config;
}

ChaosPlan AdversarialPlan(uint64_t seed, FaultKind attack) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.mix = {attack};  // Adversaries are opt-in, never in the default mix.
  plan.min_gap = Millis(40);
  plan.max_gap = Millis(150);
  // The victim must stay isolated for at least one election timeout
  // (150ms) or its timer never fires while cut off and nothing inflates.
  plan.min_duration = Millis(250);
  plan.max_duration = Millis(450);
  return plan;
}

ChaosRunner::Options AdversarialOptions(const std::string& cell_name,
                                        bool expect_zero_depositions,
                                        int64_t max_term_inflation) {
  ChaosRunner::Options options;
  options.rounds = 6;
  options.round_length = Millis(300);
  options.drain = Millis(1500);
  options.expect_zero_depositions = expect_zero_depositions;
  options.max_term_inflation = max_term_inflation;
  // CI sets NBRAFT_POSTMORTEM_DIR so a failing seed leaves its merged
  // flight-recorder dump behind as an uploadable artifact, scoped per
  // cell so concurrent cells never collide.
  if (const char* dir = std::getenv("NBRAFT_POSTMORTEM_DIR")) {
    options.postmortem_dir =
        std::string(dir) + "/AdversarialSweep." + cell_name;
  }
  return options;
}

std::string CellName(raft::Protocol protocol, uint64_t seed,
                     const std::string& variant) {
  return std::string(protocol == raft::Protocol::kRaft ? "Raft" : "NbRaft") +
         variant + "Seed" + std::to_string(seed);
}

/// The unmitigated half of the matrix: disruptive server vs a cluster
/// with no defenses.
std::vector<ChaosCell> UnmitigatedCells(uint64_t first_seed,
                                        uint64_t last_seed) {
  std::vector<ChaosCell> cells;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      ChaosCell cell;
      cell.name = CellName(protocol, seed, "Unmitigated");
      cell.config = AdversarialConfig(protocol, seed, Mitigations{});
      cell.plan = AdversarialPlan(seed, FaultKind::kDisruptiveServer);
      cell.options = AdversarialOptions(cell.name, false, -1);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// The fully mitigated half: same attack, PreVote + CheckQuorum + lease,
/// with the zero-deposition and inflation-bound oracle expectations armed
/// (bound 2: a live candidacy can legitimately sit one term ahead
/// mid-election; the attack without PreVote blows past this by one mint
/// per timeout isolated).
std::vector<ChaosCell> MitigatedCells(uint64_t first_seed,
                                      uint64_t last_seed) {
  std::vector<ChaosCell> cells;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      ChaosCell cell;
      cell.name = CellName(protocol, seed, "Mitigated");
      cell.config =
          AdversarialConfig(protocol, seed, Mitigations{true, true});
      cell.plan = AdversarialPlan(seed, FaultKind::kDisruptiveServer);
      cell.options = AdversarialOptions(cell.name, true, 2);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(AdversarialSweepTest, DisruptiveServerDeposesUnmitigatedLeaders) {
  const std::vector<ChaosCell> cells = UnmitigatedCells(1, 10);
  const int workers = sweep::WorkersFromEnv(/*fallback=*/0);
  const ChaosSweepOutcome a = RunChaosSweep(cells, workers);
  for (size_t i = 0; i < a.reports.size(); ++i) {
    const ChaosReport& report = a.reports[i];
    const std::string& name = a.sweep.results[i].name;
    ASSERT_TRUE(a.sweep.results[i].completed)
        << name << ": " << a.sweep.results[i].error;
    // Safety (election safety, no acked-write loss) holds even under the
    // attack — the damage is availability and term churn, not corruption.
    EXPECT_TRUE(report.ok()) << name << ": " << report.Summary();
    EXPECT_GT(report.faults.size(), 0u) << name << ": nemesis injected nothing";
    // The attack itself: the rejoining isolated server's inflated term
    // forced at least one perfectly healthy leader down.
    EXPECT_GE(report.leader_depositions, 1u)
        << name << ": disruptive server failed to depose anyone: the attack "
        << "(and therefore the mitigation tests) would be vacuous; "
        << report.Summary();
    EXPECT_GT(report.terms_started, report.terms_observed)
        << name << ": every minted term elected a leader: no inflation";
  }

  // Determinism: the attack schedule and its damage replay bit-identically.
  const ChaosSweepOutcome b = RunChaosSweep(cells, workers);
  EXPECT_EQ(a.sweep.merged_hash, b.sweep.merged_hash);
  EXPECT_EQ(a.sweep.ToJson(), b.sweep.ToJson());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].leader_depositions, b.reports[i].leader_depositions);
    EXPECT_EQ(a.reports[i].terms_started, b.reports[i].terms_started);
    EXPECT_EQ(a.reports[i].max_term, b.reports[i].max_term);
    EXPECT_EQ(a.reports[i].committed_prefix_hash,
              b.reports[i].committed_prefix_hash);
  }
}

TEST(AdversarialSweepTest, FullMitigationsStopEveryDeposition) {
  const std::vector<ChaosCell> cells = MitigatedCells(1, 10);
  const ChaosSweepOutcome outcome =
      RunChaosSweep(cells, sweep::WorkersFromEnv(/*fallback=*/0));
  // expect_zero_depositions + the inflation bound are enforced by the
  // safety oracle itself, so a violation also exercises the post-mortem
  // dump path in CI.
  EXPECT_TRUE(outcome.ok()) << outcome.sweep.Summary();
  for (size_t i = 0; i < outcome.reports.size(); ++i) {
    const ChaosReport& report = outcome.reports[i];
    const std::string& name = outcome.sweep.results[i].name;
    EXPECT_TRUE(report.ok()) << name << ": " << report.Summary();
    EXPECT_EQ(report.leader_depositions, 0u) << name << ": " << report.Summary();
    EXPECT_GT(report.faults.size(), 0u) << name;
    EXPECT_GT(report.prevotes_rejected, 0u)
        << name << ": the isolated node never even canvassed: attack did "
        << "not land";
    EXPECT_GT(report.requests_completed, 0u) << name;
  }
}

TEST(AdversarialSweepTest, MergedReportByteIdenticalAcrossWorkerCounts) {
  // Both matrix halves interleaved, workers {1, 4, max} — the adversarial
  // cells carry oracle expectations, so this also pins that violation
  // *absence* merges identically in parallel.
  std::vector<ChaosCell> cells = UnmitigatedCells(1, 3);
  for (ChaosCell& cell : MitigatedCells(1, 3)) {
    cells.push_back(std::move(cell));
  }
  const ChaosSweepOutcome serial = RunChaosSweep(cells, /*workers=*/1);
  const ChaosSweepOutcome four = RunChaosSweep(cells, /*workers=*/4);
  const ChaosSweepOutcome max = RunChaosSweep(cells, /*workers=*/0);
  EXPECT_EQ(serial.sweep.merged_hash, four.sweep.merged_hash);
  EXPECT_EQ(serial.sweep.merged_hash, max.sweep.merged_hash);
  EXPECT_EQ(serial.sweep.ToJson(), four.sweep.ToJson());
  EXPECT_EQ(serial.sweep.ToJson(), max.sweep.ToJson());
}

// The other two adversaries, spot-checked with all mitigations on: a vote
// withholder only slows elections down, and a leader-targeted election
// storm cannot break election safety or lose acked writes.
TEST(AdversaryZooSweepTest, WithholderAndStormStaySafe) {
  std::vector<ChaosCell> cells;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (const uint64_t seed : {3u, 8u}) {
      for (const FaultKind attack :
           {FaultKind::kVoteWithholder, FaultKind::kElectionStorm}) {
        ChaosCell cell;
        cell.name = CellName(protocol, seed,
                             attack == FaultKind::kVoteWithholder ? "Withhold"
                                                                  : "Storm");
        cell.config =
            AdversarialConfig(protocol, seed, Mitigations{true, true});
        cell.plan = AdversarialPlan(seed, attack);
        cell.options = AdversarialOptions(cell.name, false, -1);
        cells.push_back(std::move(cell));
      }
    }
  }
  const ChaosSweepOutcome outcome =
      RunChaosSweep(cells, sweep::WorkersFromEnv(/*fallback=*/0));
  EXPECT_TRUE(outcome.ok()) << outcome.sweep.Summary();
  for (size_t i = 0; i < outcome.reports.size(); ++i) {
    const ChaosReport& report = outcome.reports[i];
    const std::string& name = outcome.sweep.results[i].name;
    EXPECT_TRUE(report.ok()) << name << ": " << report.Summary();
    EXPECT_GT(report.faults.size(), 0u) << name;
    EXPECT_GT(report.requests_completed, 0u) << name;
  }
}

}  // namespace
}  // namespace nbraft::chaos
