#include "storage/durable_log.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "tests/common/temp_path.h"

namespace nbraft::storage {
namespace {

class DurableLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test_util::TestTempPath("durable_log", ".wal");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(DurableLogTest, AppendAndRecoverEntries) {
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(path_.string()).ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(
          dl.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
    }
    ASSERT_TRUE(dl.Close().ok());
  }
  auto recovered = DurableLog::Recover(path_.string());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->log.LastIndex(), 5);
  EXPECT_EQ(recovered->log.AtUnchecked(3).payload, "payload");
  EXPECT_EQ(recovered->hard_state.term, 0);
  EXPECT_EQ(recovered->records, 5u);
}

TEST_F(DurableLogTest, TruncationReplays) {
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(path_.string()).ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(dl.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
    }
    ASSERT_TRUE(dl.AppendTruncate(4).ok());
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(4, 2, 1, "replacement")).ok());
    ASSERT_TRUE(dl.Close().ok());
  }
  auto recovered = DurableLog::Recover(path_.string());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->log.LastIndex(), 4);
  EXPECT_EQ(recovered->log.AtUnchecked(4).term, 2);
  EXPECT_EQ(recovered->log.AtUnchecked(4).payload, "replacement");
}

TEST_F(DurableLogTest, HardStateRecovered) {
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(path_.string()).ok());
    ASSERT_TRUE(dl.AppendHardState({3, 1}).ok());
    ASSERT_TRUE(dl.AppendHardState({7, 2}).ok());  // Latest wins.
    ASSERT_TRUE(dl.Close().ok());
  }
  auto recovered = DurableLog::Recover(path_.string());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->hard_state.term, 7);
  EXPECT_EQ(recovered->hard_state.voted_for, 2);
}

TEST_F(DurableLogTest, TornTailDropped) {
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(path_.string()).ok());
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(1, 1, 0, "keep")).ok());
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(2, 1, 1, "torn")).ok());
    ASSERT_TRUE(dl.Close().ok());
  }
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) - 3);
  auto recovered = DurableLog::Recover(path_.string());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->log.LastIndex(), 1);
  EXPECT_GT(recovered->truncated_tail_bytes, 0u);
}

TEST_F(DurableLogTest, RecoverMissingFileFails) {
  EXPECT_FALSE(DurableLog::Recover("/nonexistent/x.wal").ok());
}

TEST_F(DurableLogTest, MixedHistoryReplaysInOrder) {
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(path_.string()).ok());
    ASSERT_TRUE(dl.AppendHardState({1, 0}).ok());
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(1, 1, 0)).ok());
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(2, 1, 1)).ok());
    ASSERT_TRUE(dl.AppendHardState({2, net::kInvalidNode}).ok());
    ASSERT_TRUE(dl.AppendTruncate(2).ok());
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(2, 2, 1)).ok());
    ASSERT_TRUE(dl.Close().ok());
  }
  auto recovered = DurableLog::Recover(path_.string());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->log.LastIndex(), 2);
  EXPECT_EQ(recovered->log.LastTerm(), 2);
  EXPECT_EQ(recovered->hard_state.term, 2);
  EXPECT_EQ(recovered->hard_state.voted_for, net::kInvalidNode);
}

TEST_F(DurableLogTest, LocalSnapshotAndCompactionRecovered) {
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(path_.string()).ok());
    for (int i = 1; i <= 6; ++i) {
      ASSERT_TRUE(dl.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
    }
    ASSERT_TRUE(dl.AppendSnapshot(4, 1, nbraft::Buffer(std::string("image")),
                                  /*installed=*/false)
                    .ok());
    ASSERT_TRUE(dl.AppendCompact(4).ok());
    ASSERT_TRUE(dl.Close().ok());
  }
  auto recovered = DurableLog::Recover(path_.string());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->has_snapshot);
  EXPECT_EQ(recovered->snapshot_index, 4);
  EXPECT_EQ(recovered->snapshot_term, 1);
  EXPECT_EQ(recovered->snapshot_data.str(), "image");
  // The compaction kept the tail: entries 5..6 remain replayable.
  EXPECT_EQ(recovered->log.FirstIndex(), 5);
  EXPECT_EQ(recovered->log.LastIndex(), 6);
}

TEST_F(DurableLogTest, InstalledSnapshotResetsLog) {
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(path_.string()).ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(dl.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1)).ok());
    }
    // A leader-installed snapshot supersedes the local log entirely.
    ASSERT_TRUE(dl.AppendSnapshot(10, 2, nbraft::Buffer(std::string("inst")),
                                  /*installed=*/true)
                    .ok());
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(11, 2, 2)).ok());
    ASSERT_TRUE(dl.Close().ok());
  }
  auto recovered = DurableLog::Recover(path_.string());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->has_snapshot);
  EXPECT_EQ(recovered->snapshot_index, 10);
  EXPECT_EQ(recovered->log.FirstIndex(), 11);
  EXPECT_EQ(recovered->log.LastIndex(), 11);
}

}  // namespace
}  // namespace nbraft::storage
