#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "tests/common/temp_path.h"

namespace nbraft::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test_util::TestTempPath("wal_test", ".log");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(WalTest, AppendAndReplay) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_.string()).ok());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(
        wal.Append(MakeEntry(i, 1, i == 1 ? 0 : 1, "payload")).ok());
  }
  ASSERT_TRUE(wal.Close().ok());

  std::vector<LogEntry> replayed;
  ASSERT_TRUE(
      Wal::Replay(path_.string(),
                  [&](LogEntry e) { replayed.push_back(std::move(e)); })
          .ok());
  ASSERT_EQ(replayed.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(replayed[static_cast<size_t>(i)].index, i + 1);
    EXPECT_EQ(replayed[static_cast<size_t>(i)].payload, "payload");
  }
}

TEST_F(WalTest, ReopenAppendsAtEnd) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_.string()).ok());
    ASSERT_TRUE(wal.Append(MakeEntry(1, 1, 0)).ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_.string()).ok());
    ASSERT_TRUE(wal.Append(MakeEntry(2, 1, 1)).ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  int count = 0;
  ASSERT_TRUE(Wal::Replay(path_.string(), [&](LogEntry) { ++count; }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(WalTest, TornTailDetectedAndSkipped) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_.string()).ok());
    ASSERT_TRUE(wal.Append(MakeEntry(1, 1, 0, "intact")).ok());
    ASSERT_TRUE(wal.Append(MakeEntry(2, 1, 1, "will-be-torn")).ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Chop a few bytes off the end — a crash mid-append.
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 5);

  std::vector<LogEntry> replayed;
  size_t torn = 0;
  ASSERT_TRUE(Wal::Replay(
                  path_.string(),
                  [&](LogEntry e) { replayed.push_back(std::move(e)); },
                  &torn)
                  .ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].payload, "intact");
  EXPECT_GT(torn, 0u);
}

TEST_F(WalTest, CorruptedMiddleStopsReplay) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_.string()).ok());
    ASSERT_TRUE(wal.Append(MakeEntry(1, 1, 0, "aaaa")).ok());
    ASSERT_TRUE(wal.Append(MakeEntry(2, 1, 1, "bbbb")).ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Flip a byte inside the first record: replay must not yield garbage.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(6);
    f.put('\x7f');
  }
  std::vector<LogEntry> replayed;
  size_t torn = 0;
  ASSERT_TRUE(Wal::Replay(
                  path_.string(),
                  [&](LogEntry e) { replayed.push_back(std::move(e)); },
                  &torn)
                  .ok());
  EXPECT_TRUE(replayed.empty());
  EXPECT_GT(torn, 0u);
}

TEST_F(WalTest, ReplayMissingFileFails) {
  EXPECT_FALSE(Wal::Replay("/nonexistent/dir/file.log",
                           [](LogEntry) {})
                   .ok());
}

TEST_F(WalTest, DoubleOpenRejected) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_.string()).ok());
  EXPECT_FALSE(wal.Open(path_.string()).ok());
}

TEST_F(WalTest, AppendWithoutOpenFails) {
  Wal wal;
  EXPECT_FALSE(wal.Append(MakeEntry(1, 1, 0)).ok());
  EXPECT_FALSE(wal.Sync().ok());
}

TEST_F(WalTest, SyncMakesDataVisible) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_.string()).ok());
  ASSERT_TRUE(wal.Append(MakeEntry(1, 1, 0)).ok());
  ASSERT_TRUE(wal.Sync().ok());
  int count = 0;
  ASSERT_TRUE(Wal::Replay(path_.string(), [&](LogEntry) { ++count; }).ok());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(wal.appended_entries(), 1u);
  ASSERT_TRUE(wal.Close().ok());
}

}  // namespace
}  // namespace nbraft::storage
