// DurableLog's record stream on the simulated disk: each case stages
// records through a SimDiskBackend, makes them durable with a covering
// Sync, and folds the disk image back through RecoverFromDisk.

#include "storage/durable_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/simulator.h"
#include "storage/sim_disk.h"

namespace nbraft::storage {
namespace {

class DurableLogTest : public ::testing::Test {
 protected:
  DurableLogTest() : disk_(&sim_, SimDisk::Options{}, 0) {
    dl_.OpenWith(std::make_unique<SimDiskBackend>(&disk_));
  }

  /// Makes everything staged so far durable.
  void Flush() {
    dl_.Sync([](Status s) { EXPECT_TRUE(s.ok()); });
    sim_.Run();
  }

  /// Power cut, then recovery from what the disk kept.
  DurableLog::RecoveredState CrashAndRecover() {
    disk_.Crash();
    return DurableLog::RecoverFromDisk(disk_);
  }

  sim::Simulator sim_{1};
  SimDisk disk_;
  DurableLog dl_;
};

TEST_F(DurableLogTest, AppendAndRecoverEntries) {
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        dl_.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
  }
  Flush();
  const auto recovered = CrashAndRecover();
  EXPECT_EQ(recovered.log.LastIndex(), 5);
  EXPECT_EQ(recovered.log.AtUnchecked(3).payload, "payload");
  EXPECT_EQ(recovered.hard_state.term, 0);
  EXPECT_EQ(recovered.records, 5u);
}

TEST_F(DurableLogTest, TruncationReplays) {
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(dl_.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
  }
  ASSERT_TRUE(dl_.AppendTruncate(4).ok());
  ASSERT_TRUE(dl_.AppendEntry(MakeEntry(4, 2, 1, "replacement")).ok());
  Flush();
  const auto recovered = CrashAndRecover();
  EXPECT_EQ(recovered.log.LastIndex(), 4);
  EXPECT_EQ(recovered.log.AtUnchecked(4).term, 2);
  EXPECT_EQ(recovered.log.AtUnchecked(4).payload, "replacement");
}

TEST_F(DurableLogTest, HardStateRecovered) {
  ASSERT_TRUE(dl_.AppendHardState({3, 1}).ok());
  ASSERT_TRUE(dl_.AppendHardState({7, 2}).ok());  // Latest wins.
  Flush();
  const auto recovered = CrashAndRecover();
  EXPECT_EQ(recovered.hard_state.term, 7);
  EXPECT_EQ(recovered.hard_state.voted_for, 2);
}

TEST_F(DurableLogTest, TornTailDropped) {
  ASSERT_TRUE(dl_.AppendEntry(MakeEntry(1, 1, 0, "keep")).ok());
  Flush();
  const LogEntry torn = MakeEntry(2, 1, 1, "torn");
  ASSERT_TRUE(dl_.AppendEntry(torn).ok());  // Never synced.
  const auto recovered = CrashAndRecover();
  EXPECT_EQ(recovered.log.LastIndex(), 1);
  EXPECT_EQ(recovered.records, 1u);
  // Whatever lingers of the lost record is a strict prefix of it.
  EXPECT_LT(recovered.truncated_tail_bytes, torn.EncodedSize());
}

TEST_F(DurableLogTest, MixedHistoryReplaysInOrder) {
  ASSERT_TRUE(dl_.AppendHardState({1, 0}).ok());
  ASSERT_TRUE(dl_.AppendEntry(MakeEntry(1, 1, 0)).ok());
  ASSERT_TRUE(dl_.AppendEntry(MakeEntry(2, 1, 1)).ok());
  ASSERT_TRUE(dl_.AppendHardState({2, net::kInvalidNode}).ok());
  ASSERT_TRUE(dl_.AppendTruncate(2).ok());
  ASSERT_TRUE(dl_.AppendEntry(MakeEntry(2, 2, 1)).ok());
  Flush();
  const auto recovered = CrashAndRecover();
  EXPECT_EQ(recovered.log.LastIndex(), 2);
  EXPECT_EQ(recovered.log.LastTerm(), 2);
  EXPECT_EQ(recovered.hard_state.term, 2);
  EXPECT_EQ(recovered.hard_state.voted_for, net::kInvalidNode);
}

TEST_F(DurableLogTest, LocalSnapshotAndCompactionRecovered) {
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(dl_.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
  }
  ASSERT_TRUE(dl_.AppendSnapshot(4, 1, nbraft::Buffer(std::string("image")),
                                 /*installed=*/false)
                  .ok());
  ASSERT_TRUE(dl_.AppendCompact(4).ok());
  Flush();
  const auto recovered = CrashAndRecover();
  EXPECT_TRUE(recovered.has_snapshot);
  EXPECT_EQ(recovered.snapshot_index, 4);
  EXPECT_EQ(recovered.snapshot_term, 1);
  EXPECT_EQ(recovered.snapshot_data.str(), "image");
  // The compaction kept the tail: entries 5..6 remain replayable.
  EXPECT_EQ(recovered.log.FirstIndex(), 5);
  EXPECT_EQ(recovered.log.LastIndex(), 6);
}

TEST_F(DurableLogTest, InstalledSnapshotResetsLog) {
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(dl_.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
  }
  // A leader-installed snapshot supersedes the local log entirely.
  ASSERT_TRUE(dl_.AppendSnapshot(10, 2, nbraft::Buffer(std::string("inst")),
                                 /*installed=*/true)
                  .ok());
  ASSERT_TRUE(dl_.AppendEntry(MakeEntry(11, 2, 2)).ok());
  Flush();
  const auto recovered = CrashAndRecover();
  EXPECT_TRUE(recovered.has_snapshot);
  EXPECT_EQ(recovered.snapshot_index, 10);
  EXPECT_EQ(recovered.log.FirstIndex(), 11);
  EXPECT_EQ(recovered.log.LastIndex(), 11);
}

TEST_F(DurableLogTest, FailedAppendReportsTheError) {
  disk_.ArmWriteErrors(1);
  const Result<size_t> staged = dl_.AppendHardState({1, 0});
  ASSERT_FALSE(staged.ok());
  EXPECT_EQ(staged.status().code(), StatusCode::kIoError);
  EXPECT_TRUE(dl_.AppendHardState({1, 0}).ok());
}

}  // namespace
}  // namespace nbraft::storage
