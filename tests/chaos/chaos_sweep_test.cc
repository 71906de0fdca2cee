// The seeded chaos scenario matrix, fanned out through the parallel sweep
// scheduler: Raft and NB-Raft each survive >= 25 randomized fault
// schedules (crashes incl. leader-targeted, symmetric and one-way
// partitions, link flaps, drop/delay storms, clock skew, slow nodes) with
// zero safety-invariant violations and zero acknowledged-write loss. The
// determinism contract is pinned three ways: the merged sweep report is
// byte-identical across worker counts {1, 4, max}; the workers=1
// scheduler path produces exactly the hashes of a direct serial
// ChaosRunner loop; and a double-run of the full matrix replays
// bit-identically.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
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

harness::ClusterConfig SweepConfig(raft::Protocol protocol, uint64_t seed) {
  harness::ClusterConfig config;
  // Alternate 3- and 5-replica clusters across the seed matrix.
  config.num_nodes = (seed % 2 == 0) ? 5 : 3;
  config.num_clients = 3;
  config.protocol = protocol;
  config.window_size = 64;
  config.payload_size = 256;
  config.client_think = Millis(1);
  config.election_timeout = Millis(150);
  config.seed = seed * 7919 + 13;
  // Fast retry path so partitioned clients recover within a round.
  config.client_backoff_base = Millis(150);
  config.client_backoff_cap = Millis(1200);
  // A finite workload lets the drain reach true quiescence, and keeps the
  // committed-id sets enumerable (snapshots stay off for the same reason).
  config.client_max_requests = 250;
  config.snapshot_threshold = 0;
  return config;
}

ChaosPlan SweepPlan(uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.min_gap = Millis(30);
  plan.max_gap = Millis(120);
  plan.min_duration = Millis(50);
  plan.max_duration = Millis(200);
  return plan;
}

ChaosRunner::Options SweepOptions(const std::string& cell_name) {
  ChaosRunner::Options options;
  options.rounds = 5;
  options.round_length = Millis(200);
  options.drain = Millis(1500);
  // CI sets NBRAFT_POSTMORTEM_DIR so a failing seed leaves its merged
  // flight-recorder dump behind as an uploadable artifact. Scoped per
  // cell so concurrently running cells never collide.
  if (const char* dir = std::getenv("NBRAFT_POSTMORTEM_DIR")) {
    options.postmortem_dir =
        std::string(dir) + "/ChaosSweep." + cell_name;
  }
  return options;
}

ChaosCell MatrixCell(raft::Protocol protocol, uint64_t seed) {
  ChaosCell cell;
  cell.name = std::string(protocol == raft::Protocol::kRaft ? "Raft"
                                                            : "NbRaft") +
              "Seed" + std::to_string(seed);
  cell.config = SweepConfig(protocol, seed);
  cell.plan = SweepPlan(seed);
  cell.options = SweepOptions(cell.name);
  return cell;
}

std::vector<ChaosCell> MatrixCells(uint64_t first_seed, uint64_t last_seed) {
  std::vector<ChaosCell> cells;
  for (const raft::Protocol protocol :
       {raft::Protocol::kRaft, raft::Protocol::kNbRaft}) {
    for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
      cells.push_back(MatrixCell(protocol, seed));
    }
  }
  return cells;
}

void ExpectAllCellsSurvived(const ChaosSweepOutcome& outcome) {
  EXPECT_TRUE(outcome.ok()) << outcome.sweep.Summary();
  for (size_t i = 0; i < outcome.reports.size(); ++i) {
    const ChaosReport& report = outcome.reports[i];
    const std::string& name = outcome.sweep.results[i].name;
    ASSERT_TRUE(outcome.sweep.results[i].completed)
        << name << ": " << outcome.sweep.results[i].error;
    EXPECT_TRUE(report.ok()) << name << ": " << report.Summary();
    EXPECT_GT(report.faults.size(), 0u) << name << ": nemesis injected nothing";
    EXPECT_GT(report.requests_completed, 0u)
        << name << ": workload never converged";
    EXPECT_GT(report.strong_acked, 0u) << name;
  }
}

TEST(ChaosSweepTest, FullMatrixSurvivesAndReplaysIdentically) {
  // The 25-seed x 2-protocol matrix through the scheduler at the CI-chosen
  // worker count (NBRAFT_SWEEP_WORKERS, defaulting to every core), run
  // twice: same merged report bytes both times.
  const std::vector<ChaosCell> cells = MatrixCells(1, 25);
  const int workers = sweep::WorkersFromEnv(/*fallback=*/0);
  const ChaosSweepOutcome a = RunChaosSweep(cells, workers);
  ExpectAllCellsSurvived(a);
  const ChaosSweepOutcome b = RunChaosSweep(cells, workers);
  EXPECT_EQ(a.sweep.merged_hash, b.sweep.merged_hash);
  EXPECT_EQ(a.sweep.ToJson(), b.sweep.ToJson());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].fault_fingerprint, b.reports[i].fault_fingerprint)
        << a.sweep.results[i].name;
    EXPECT_EQ(a.reports[i].committed_prefix_hash,
              b.reports[i].committed_prefix_hash)
        << a.sweep.results[i].name;
  }
}

TEST(ChaosSweepTest, MergedReportByteIdenticalAcrossWorkerCounts) {
  // Acceptance pin: workers {1, 4, max} over a representative sub-matrix
  // produce byte-identical merged reports. Workers=1 is the serial oracle
  // (inline on this thread, no worker threads at all).
  const std::vector<ChaosCell> cells = MatrixCells(1, 6);
  const ChaosSweepOutcome serial = RunChaosSweep(cells, /*workers=*/1);
  ExpectAllCellsSurvived(serial);
  const ChaosSweepOutcome four = RunChaosSweep(cells, /*workers=*/4);
  const ChaosSweepOutcome max = RunChaosSweep(cells, /*workers=*/0);
  EXPECT_EQ(serial.sweep.merged_hash, four.sweep.merged_hash);
  EXPECT_EQ(serial.sweep.merged_hash, max.sweep.merged_hash);
  EXPECT_EQ(serial.sweep.ToJson(), four.sweep.ToJson());
  EXPECT_EQ(serial.sweep.ToJson(), max.sweep.ToJson());
}

TEST(ChaosSweepTest, SchedulerWorkersOneMatchesDirectSerialRun) {
  // The scheduler at workers=1 must reduce exactly to today's serial
  // loop: same ChaosRunner, same report hashes, no wrapping drift.
  const ChaosCell cell = MatrixCell(raft::Protocol::kNbRaft, 11);
  ChaosRunner direct(cell.config, cell.plan, cell.options);
  const ChaosReport serial_report = direct.Run();
  ASSERT_TRUE(serial_report.ok()) << serial_report.Summary();

  const ChaosSweepOutcome outcome = RunChaosSweep({cell}, /*workers=*/1);
  ASSERT_EQ(outcome.reports.size(), 1u);
  EXPECT_EQ(ChaosReportHash(outcome.reports[0]),
            ChaosReportHash(serial_report));
  EXPECT_EQ(outcome.reports[0].committed_prefix_hash,
            serial_report.committed_prefix_hash);
  EXPECT_EQ(outcome.reports[0].fault_fingerprint,
            serial_report.fault_fingerprint);
  EXPECT_EQ(outcome.sweep.results[0].output.fingerprint,
            ChaosReportHash(serial_report));
}

TEST(ChaosPlanTest, FingerprintCoversEveryField) {
  FaultRecord r;
  r.kind = FaultKind::kPartition;
  r.at = 123;
  r.a = 1;
  r.b = 2;
  const uint64_t base = FingerprintFaults({r});
  FaultRecord r2 = r;
  r2.heal = true;
  EXPECT_NE(FingerprintFaults({r2}), base);
  r2 = r;
  r2.at = 124;
  EXPECT_NE(FingerprintFaults({r2}), base);
  r2 = r;
  r2.b = 0;
  EXPECT_NE(FingerprintFaults({r2}), base);
  r2 = r;
  r2.param = 7;
  EXPECT_NE(FingerprintFaults({r2}), base);
  EXPECT_EQ(FingerprintFaults({r}), base);
}

TEST(ChaosObservabilityTest, EmitsInstantsAndCounters) {
  harness::ClusterConfig config =
      SweepConfig(raft::Protocol::kNbRaft, /*seed=*/3);
  config.trace = true;
  ChaosRunner::Options options = SweepOptions("Observability");
  options.rounds = 3;
  ChaosRunner runner(config, SweepPlan(3), options);
  const ChaosReport report = runner.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  ASSERT_FALSE(report.faults.empty());

  // The journal of a traced run kept every event, so its nemesis events
  // count each fault kind's injections and heals exactly as the report's
  // schedule does: the per-kind counts need no counter of their own.
  harness::Cluster* cluster = runner.cluster();
  ASSERT_NE(cluster->journal(), nullptr);
  EXPECT_EQ(cluster->journal()->events_dropped(), 0u);
  std::map<std::pair<int64_t, bool>, int> journaled;
  for (const obs::JournalEvent& e : cluster->journal()->MergedEvents()) {
    if (e.kind == obs::JournalEventKind::kNemesisFault ||
        e.kind == obs::JournalEventKind::kNemesisHeal) {
      ++journaled[{e.a, e.kind == obs::JournalEventKind::kNemesisHeal}];
    }
  }
  std::map<std::pair<int64_t, bool>, int> scheduled;
  for (const FaultRecord& r : report.faults) {
    ++scheduled[{static_cast<int64_t>(r.kind), r.heal}];
  }
  EXPECT_EQ(journaled, scheduled);
}

}  // namespace
}  // namespace nbraft::chaos
