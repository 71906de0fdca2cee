// Crash-point sweep on the simulated disk: the same ten-record DurableLog
// stream, holding every record kind, is cut by a power loss after each
// record boundary in turn. For every k the first k records are fsynced, the
// rest are staged (their covering fsync still in flight), and the disk
// crashes. Recovery must fold exactly the first k records, never
// resurrecting a later one, and the torn tail it reports must be a strict
// prefix of the first lost record.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "sim/simulator.h"
#include "storage/durable_log.h"
#include "storage/log_entry.h"
#include "storage/sim_disk.h"

namespace nbraft::storage {
namespace {

using Stage = std::function<Result<size_t>(DurableLog*)>;

/// The stream under test, one stage per record: a vote, three entries, a
/// truncation and its replacement, a local snapshot and the compaction it
/// allows, a configuration change, and a later term.
std::vector<Stage> TenRecordStream() {
  std::vector<Stage> stream;
  stream.push_back([](DurableLog* dl) { return dl->AppendHardState({1, 0}); });
  for (int i = 1; i <= 3; ++i) {
    stream.push_back([i](DurableLog* dl) {
      return dl->AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1,
                                       "payload-" + std::to_string(i)));
    });
  }
  stream.push_back([](DurableLog* dl) { return dl->AppendTruncate(3); });
  stream.push_back([](DurableLog* dl) {
    return dl->AppendEntry(MakeEntry(3, 2, 1, "replacement"));
  });
  stream.push_back([](DurableLog* dl) {
    return dl->AppendSnapshot(2, 1, nbraft::Buffer(std::string("snap")),
                              /*installed=*/false);
  });
  stream.push_back([](DurableLog* dl) { return dl->AppendCompact(2); });
  stream.push_back(
      [](DurableLog* dl) { return dl->AppendConfig("v=0,1,2;n=1;l=", 3); });
  stream.push_back([](DurableLog* dl) {
    return dl->AppendHardState({2, net::kInvalidNode});
  });
  return stream;
}

SimDisk::Options DiskOptions() {
  SimDisk::Options o;
  o.write_latency = Micros(10);
  o.fsync_latency = Micros(100);
  o.fault_seed = 5;
  return o;
}

/// Recovery of a disk that durably holds exactly the first `k` records
/// and nothing else: the state the sweep's crashed disk must fold to.
DurableLog::RecoveredState FoldOfPrefix(const std::vector<Stage>& stream,
                                        size_t k) {
  sim::Simulator sim(1);
  SimDisk disk(&sim, DiskOptions(), 0);
  DurableLog dl;
  dl.OpenWith(std::make_unique<SimDiskBackend>(&disk));
  for (size_t i = 0; i < k; ++i) EXPECT_TRUE(stream[i](&dl).ok());
  dl.Sync([](Status s) { EXPECT_TRUE(s.ok()); });
  sim.Run();
  return DurableLog::RecoverFromDisk(disk);
}

void ExpectSameFold(const DurableLog::RecoveredState& got,
                    const DurableLog::RecoveredState& want, size_t k) {
  SCOPED_TRACE("crash after record " + std::to_string(k));
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.corrupt_dropped_records, 0u);
  EXPECT_EQ(got.hard_state.term, want.hard_state.term);
  EXPECT_EQ(got.hard_state.voted_for, want.hard_state.voted_for);
  EXPECT_EQ(got.has_snapshot, want.has_snapshot);
  EXPECT_EQ(got.snapshot_index, want.snapshot_index);
  EXPECT_EQ(got.snapshot_term, want.snapshot_term);
  EXPECT_EQ(got.snapshot_data.str(), want.snapshot_data.str());
  EXPECT_EQ(got.config, want.config);
  EXPECT_EQ(got.config_index, want.config_index);
  ASSERT_EQ(got.log.FirstIndex(), want.log.FirstIndex());
  ASSERT_EQ(got.log.LastIndex(), want.log.LastIndex());
  for (LogIndex i = got.log.FirstIndex(); i <= got.log.LastIndex(); ++i) {
    EXPECT_EQ(got.log.AtUnchecked(i), want.log.AtUnchecked(i)) << "at " << i;
  }
}

TEST(CrashPointSweepTest, RecoveryExactAtEveryRecordBoundary) {
  const std::vector<Stage> stream = TenRecordStream();
  ASSERT_EQ(stream.size(), 10u);

  for (size_t k = 0; k <= stream.size(); ++k) {
    sim::Simulator sim(1);
    SimDisk disk(&sim, DiskOptions(), 0);
    DurableLog dl;
    dl.OpenWith(std::make_unique<SimDiskBackend>(&disk));
    for (size_t i = 0; i < k; ++i) ASSERT_TRUE(stream[i](&dl).ok());
    dl.Sync([](Status s) { EXPECT_TRUE(s.ok()); });
    sim.Run();
    ASSERT_EQ(disk.durable_records(), k);

    // The rest is staged and its barrier issued, but the power goes out
    // before the barrier completes.
    size_t first_lost_size = 0;
    for (size_t i = k; i < stream.size(); ++i) {
      const Result<size_t> staged = stream[i](&dl);
      ASSERT_TRUE(staged.ok());
      if (i == k) first_lost_size = *staged;
    }
    bool late_sync_fired = false;
    dl.Sync([&late_sync_fired](Status) { late_sync_fired = true; });
    disk.Crash();
    sim.Run();
    EXPECT_FALSE(late_sync_fired) << "k=" << k;

    const DurableLog::RecoveredState recovered =
        DurableLog::RecoverFromDisk(disk);
    ExpectSameFold(recovered, FoldOfPrefix(stream, k), k);
    if (k < stream.size()) {
      EXPECT_LT(recovered.truncated_tail_bytes, first_lost_size)
          << "k=" << k;
    } else {
      EXPECT_EQ(recovered.truncated_tail_bytes, 0u);
    }

    // Fold sanity, independent of the reference: the log never runs
    // ahead of what was durably written.
    EXPECT_LE(recovered.log.LastIndex(), 3) << "k=" << k;
    if (k >= 6) {  // Truncate + replacement applied.
      EXPECT_EQ(recovered.log.AtUnchecked(3).term, 2) << "k=" << k;
    } else if (k == 4 || k == 5) {
      EXPECT_EQ(recovered.log.LastIndex(), k == 4 ? 3 : 2) << "k=" << k;
    }
    EXPECT_EQ(recovered.has_snapshot, k >= 7) << "k=" << k;
    EXPECT_EQ(recovered.log.FirstIndex(), k >= 8 ? 3 : 1) << "k=" << k;
    EXPECT_EQ(recovered.config.empty(), k < 9) << "k=" << k;
    EXPECT_EQ(recovered.hard_state.term, k >= 10 ? 2 : k >= 1 ? 1 : 0)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace nbraft::storage
