// SimDisk unit surface: the durable/volatile frontier, crash torn tails,
// virtual-time latency modeling on the I/O lane, and the seeded fault
// injector (transient write and fsync errors, fsync stalls, tail corruption
// and the repair scar).

#include "storage/sim_disk.h"

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.h"
#include "storage/durable_log.h"
#include "storage/log_entry.h"

namespace nbraft::storage {
namespace {

class SimDiskTest : public ::testing::Test {
 protected:
  static SimDisk::Options Opts() {
    SimDisk::Options o;
    o.write_latency = Micros(10);
    o.fsync_latency = Micros(100);
    o.fault_seed = 7;
    return o;
  }

  /// Drives the barrier to completion and returns its status + finish time.
  Status SyncNow(SimDisk* disk, SimTime* done_at = nullptr) {
    Status result = Status::IoError("sync never completed");
    disk->Sync([this, &result, done_at](Status s) {
      result = s;
      if (done_at != nullptr) *done_at = sim_.Now();
    });
    sim_.RunUntil(sim_.Now() + Seconds(1));
    return result;
  }

  sim::Simulator sim_{1};
};

TEST_F(SimDiskTest, UnsyncedRecordsVanishOnCrash) {
  SimDisk disk(&sim_, Opts(), 0);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(disk.Append(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
  }
  EXPECT_EQ(disk.durable_records(), 0u);
  disk.Crash();
  EXPECT_TRUE(disk.records().empty());
}

TEST_F(SimDiskTest, SyncedPrefixSurvivesCrash) {
  SimDisk disk(&sim_, Opts(), 0);
  ASSERT_TRUE(disk.Append(MakeEntry(1, 1, 0, "a")).ok());
  ASSERT_TRUE(disk.Append(MakeEntry(2, 1, 1, "b")).ok());
  ASSERT_TRUE(SyncNow(&disk).ok());
  EXPECT_EQ(disk.durable_records(), 2u);
  ASSERT_TRUE(disk.Append(MakeEntry(3, 1, 1, "lost")).ok());
  disk.Crash();
  ASSERT_EQ(disk.records().size(), 2u);
  EXPECT_EQ(disk.records()[1].entry.index, 2);
  // A crash with a lost record leaves a (deterministic) torn tail drawn
  // from the first lost record's size.
  EXPECT_LT(disk.torn_tail_bytes(), MakeEntry(3, 1, 1, "lost").EncodedSize());
}

TEST_F(SimDiskTest, FsyncChargesWriteAndBarrierLatency) {
  SimDisk disk(&sim_, Opts(), 0);
  ASSERT_TRUE(disk.Append(MakeEntry(1, 1, 0, "a")).ok());
  ASSERT_TRUE(disk.Append(MakeEntry(2, 1, 1, "b")).ok());
  const SimTime start = sim_.Now();
  SimTime done_at = 0;
  ASSERT_TRUE(SyncNow(&disk, &done_at).ok());
  // Two buffered writes (10us each) + the barrier (100us).
  EXPECT_GE(done_at - start, Micros(120));
  // The buffered cost was consumed: an empty follow-up barrier only pays
  // the fsync itself.
  const SimTime start2 = sim_.Now();
  ASSERT_TRUE(SyncNow(&disk, &done_at).ok());
  EXPECT_EQ(done_at - start2, Micros(100));
}

TEST_F(SimDiskTest, FsyncStallAddsLatencyUntilCleared) {
  SimDisk disk(&sim_, Opts(), 0);
  disk.set_fsync_stall(Millis(2));
  ASSERT_TRUE(disk.Append(MakeEntry(1, 1, 0, "a")).ok());
  const SimTime start = sim_.Now();
  SimTime done_at = 0;
  ASSERT_TRUE(SyncNow(&disk, &done_at).ok());
  EXPECT_GE(done_at - start, Millis(2));
  disk.set_fsync_stall(0);
  const SimTime start2 = sim_.Now();
  ASSERT_TRUE(SyncNow(&disk, &done_at).ok());
  EXPECT_LT(done_at - start2, Millis(1));
}

TEST_F(SimDiskTest, ArmedWriteErrorsAreTransient) {
  SimDisk disk(&sim_, Opts(), 0);
  disk.ArmWriteErrors(2);
  EXPECT_FALSE(disk.Append(MakeEntry(1, 1, 0)).ok());
  EXPECT_FALSE(disk.Append(MakeEntry(1, 1, 0)).ok());
  EXPECT_TRUE(disk.Append(MakeEntry(1, 1, 0)).ok());
  EXPECT_EQ(disk.write_errors_injected(), 2u);
}

TEST_F(SimDiskTest, ArmedSyncErrorsLeaveRecordsVolatile) {
  SimDisk disk(&sim_, Opts(), 0);
  ASSERT_TRUE(disk.Append(MakeEntry(1, 1, 0, "a")).ok());
  ASSERT_TRUE(SyncNow(&disk).ok());
  disk.ArmSyncErrors(1);
  ASSERT_TRUE(disk.Append(MakeEntry(2, 1, 1, "b")).ok());
  const uint64_t fsyncs_before = disk.fsyncs_completed();
  EXPECT_FALSE(SyncNow(&disk).ok());
  EXPECT_EQ(disk.durable_records(), 1u);
  EXPECT_EQ(disk.fsyncs_completed(), fsyncs_before);
  // The failed barrier made nothing durable: a crash tears the record off.
  disk.Crash();
  ASSERT_EQ(disk.records().size(), 1u);
  EXPECT_EQ(disk.records()[0].entry.index, 1);
  // The error was transient: the next barrier succeeds.
  ASSERT_TRUE(disk.Append(MakeEntry(2, 1, 1, "c")).ok());
  EXPECT_TRUE(SyncNow(&disk).ok());
  EXPECT_EQ(disk.durable_records(), 2u);
}

TEST_F(SimDiskTest, InFlightSyncNeverFiresAfterCrash) {
  SimDisk disk(&sim_, Opts(), 0);
  ASSERT_TRUE(disk.Append(MakeEntry(1, 1, 0, "a")).ok());
  bool fired = false;
  disk.Sync([&fired](Status) { fired = true; });
  disk.Crash();
  sim_.RunUntil(sim_.Now() + Seconds(1));
  EXPECT_FALSE(fired);
  EXPECT_EQ(disk.durable_records(), 0u);
}

TEST_F(SimDiskTest, CorruptionCutsRecoveredStream) {
  SimDisk disk(&sim_, Opts(), 0);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(disk.Append(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
  }
  ASSERT_TRUE(SyncNow(&disk).ok());
  ASSERT_TRUE(disk.CorruptTailRecord());
  const auto recovered = DurableLog::RecoverFromDisk(disk);
  EXPECT_GT(recovered.corrupt_dropped_records, 0u);
  EXPECT_LT(recovered.log.LastIndex(), 5);
  // The surviving prefix is exactly the records before the corrupt one.
  EXPECT_EQ(static_cast<size_t>(recovered.log.LastIndex()),
            5u - recovered.corrupt_dropped_records);
}

TEST_F(SimDiskTest, CorruptionNeverTouchesRecordsBehindAMarker) {
  SimDisk disk(&sim_, Opts(), 0);
  // Entries, then a hard-state marker (a vote), then more entries: bit rot
  // must land after the marker so recovery can never forget the vote.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(disk.Append(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
  }
  LogEntry vote;
  vote.index = DurableLog::kHardStateMarker;
  vote.term = 4;
  vote.client_id = 2;
  ASSERT_TRUE(disk.Append(vote).ok());
  ASSERT_TRUE(disk.Append(MakeEntry(4, 4, 1)).ok());
  ASSERT_TRUE(SyncNow(&disk).ok());
  for (int draw = 0; draw < 16; ++draw) {
    SimDisk fresh(&sim_, Opts(), draw);  // Different fault streams.
    for (size_t i = 0; i < disk.records().size(); ++i) {
      ASSERT_TRUE(fresh.Append(disk.records()[i].entry).ok());
    }
    ASSERT_TRUE(SyncNow(&fresh).ok());
    ASSERT_TRUE(fresh.CorruptTailRecord());
    const auto recovered = DurableLog::RecoverFromDisk(fresh);
    EXPECT_EQ(recovered.hard_state.term, 4);
    EXPECT_EQ(recovered.hard_state.voted_for, 2);
  }
}

TEST_F(SimDiskTest, RepairCutsImageAndLeavesScar) {
  SimDisk disk(&sim_, Opts(), 0);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(disk.Append(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
  }
  ASSERT_TRUE(SyncNow(&disk).ok());
  ASSERT_TRUE(disk.CorruptTailRecord());
  disk.RepairCorruptTail();
  EXPECT_TRUE(disk.heal_scar());
  for (const auto& r : disk.records()) EXPECT_FALSE(r.corrupt);
  // Post-repair appends land on a clean stream and the scar survives a
  // crash (quarantine must not be forgotten by crashing mid-heal).
  const LogIndex next = disk.records().empty()
                            ? 1
                            : disk.records().back().entry.index + 1;
  const Term prev_term =
      disk.records().empty() ? 0 : disk.records().back().entry.term;
  ASSERT_TRUE(disk.Append(MakeEntry(next, 2, prev_term)).ok());
  ASSERT_TRUE(SyncNow(&disk).ok());
  disk.Crash();
  EXPECT_TRUE(disk.heal_scar());
  const auto recovered = DurableLog::RecoverFromDisk(disk);
  EXPECT_EQ(recovered.corrupt_dropped_records, 0u);
  EXPECT_EQ(recovered.log.LastIndex(), next);
  disk.ClearHealScar();
  EXPECT_FALSE(disk.heal_scar());
}

TEST_F(SimDiskTest, CompactMarkerReleasesCoveredPayloads) {
  SimDisk disk(&sim_, Opts(), 0);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(disk.Append(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
  }
  LogEntry compact;
  compact.index = DurableLog::kCompactMarker;
  compact.term = 2;  // Compact through index 2.
  ASSERT_TRUE(disk.Append(compact).ok());
  // Staged only: a crash could still tear the marker off, so the entries
  // it covers keep their payloads.
  EXPECT_FALSE(disk.records()[0].entry.payload.empty());
  ASSERT_TRUE(SyncNow(&disk).ok());
  EXPECT_TRUE(disk.records()[0].entry.payload.empty());
  EXPECT_TRUE(disk.records()[1].entry.payload.empty());
  EXPECT_FALSE(disk.records()[2].entry.payload.empty());
  // The byte accounting still reflects the original encoded sizes.
  EXPECT_EQ(disk.records()[0].encoded_size,
            MakeEntry(1, 1, 0, "payload").EncodedSize());
}

TEST_F(SimDiskTest, TornCompactMarkerKeepsCoveredPayloads) {
  SimDisk disk(&sim_, Opts(), 0);
  for (int i = 1; i <= 2; ++i) {
    ASSERT_TRUE(disk.Append(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
  }
  ASSERT_TRUE(SyncNow(&disk).ok());
  LogEntry compact;
  compact.index = DurableLog::kCompactMarker;
  compact.term = 2;
  ASSERT_TRUE(disk.Append(compact).ok());
  disk.Sync([](Status) {});  // In flight when the power goes out.
  disk.Crash();
  sim_.RunUntil(sim_.Now() + Seconds(1));
  // Recovery replays both entries, so both still carry their bytes.
  ASSERT_EQ(disk.records().size(), 2u);
  EXPECT_EQ(disk.records()[0].entry.payload, "payload");
  EXPECT_EQ(disk.records()[1].entry.payload, "payload");
}

TEST_F(SimDiskTest, FaultDrawsAreDeterministicAndPerNode) {
  auto run = [this](int64_t node_id) {
    SimDisk disk(&sim_, Opts(), node_id);
    for (int i = 1; i <= 3; ++i) {
      EXPECT_TRUE(
          disk.Append(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
    }
    EXPECT_TRUE(SyncNow(&disk).ok());
    EXPECT_TRUE(disk.Append(MakeEntry(4, 1, 1, "lost-on-crash")).ok());
    disk.Crash();
    return disk.torn_tail_bytes();
  };
  EXPECT_EQ(run(0), run(0));  // Same node id: same draw.
}

}  // namespace
}  // namespace nbraft::storage
