// Crash-point sweep: a DurableLog stream exercising every record kind is
// truncated at EVERY byte offset, simulating a power cut at that exact
// point of the file. Recovery must never fail, must recover exactly the
// complete records below the cut (never resurrecting anything above it),
// and must report the torn-tail byte count precisely.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "storage/durable_log.h"
#include "storage/log_entry.h"
#include "tests/common/temp_path.h"

namespace nbraft::storage {
namespace {

namespace fs = std::filesystem;

class CrashPointSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    full_ = test_util::TestTempPath("crash_sweep_full", ".wal");
    cut_ = test_util::TestTempPath("crash_sweep_cut", ".wal");
    fs::remove(full_);
    fs::remove(cut_);
  }
  void TearDown() override {
    fs::remove(full_);
    fs::remove(cut_);
  }

  fs::path full_;
  fs::path cut_;
};

TEST_F(CrashPointSweepTest, RecoveryTolerantAtEveryByteOffset) {
  // Build the stream, flushing after each record so the on-disk size marks
  // the record boundary. boundaries[k] = byte offset after k records.
  std::vector<size_t> boundaries = {0};
  {
    DurableLog dl;
    ASSERT_TRUE(dl.Open(full_.string()).ok());
    const auto mark = [&]() {
      dl.Sync([](Status s) { EXPECT_TRUE(s.ok()); });
      boundaries.push_back(static_cast<size_t>(fs::file_size(full_)));
    };
    ASSERT_TRUE(dl.AppendHardState({1, 0}).ok());
    mark();
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(dl.AppendEntry(MakeEntry(i, 1, i == 1 ? 0 : 1,
                                           "payload-" + std::to_string(i)))
                      .ok());
      mark();
    }
    ASSERT_TRUE(dl.AppendTruncate(4).ok());
    mark();
    ASSERT_TRUE(dl.AppendEntry(MakeEntry(4, 2, 1, "replacement")).ok());
    mark();
    ASSERT_TRUE(dl.AppendSnapshot(2, 1, nbraft::Buffer(std::string("snap")),
                                  /*installed=*/false)
                    .ok());
    mark();
    ASSERT_TRUE(dl.AppendCompact(2).ok());
    mark();
    ASSERT_TRUE(dl.AppendHardState({2, net::kInvalidNode}).ok());
    mark();
    ASSERT_TRUE(dl.Close().ok());
  }
  const size_t total = boundaries.back();
  ASSERT_EQ(total, fs::file_size(full_));
  ASSERT_EQ(boundaries.size(), 11u);  // 10 records + offset zero.

  std::ifstream in(full_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), total);

  for (size_t len = 0; len <= total; ++len) {
    {
      std::ofstream out(cut_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    auto recovered = DurableLog::Recover(cut_.string());
    ASSERT_TRUE(recovered.ok()) << "recover failed at offset " << len;

    // Exactly the records whose end sits at or below the cut survive.
    size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= len) {
      ++complete;
    }
    EXPECT_EQ(recovered->records, complete) << "at offset " << len;
    EXPECT_EQ(recovered->truncated_tail_bytes, len - boundaries[complete])
        << "at offset " << len;

    // Fold sanity at the record boundaries the sweep passes through: the
    // log never runs ahead of what was fully written.
    EXPECT_LE(recovered->log.LastIndex(), 4) << "at offset " << len;
    if (complete >= 7) {  // Truncate + replacement record applied.
      EXPECT_EQ(recovered->log.LastIndex(), 4);
      EXPECT_EQ(recovered->log.AtUnchecked(4).term, 2);
    } else if (complete >= 5 && complete < 6) {
      EXPECT_EQ(recovered->log.LastIndex(), 4);
      EXPECT_EQ(recovered->log.AtUnchecked(4).term, 1);
    }
    EXPECT_EQ(recovered->has_snapshot, complete >= 8) << "at offset " << len;
    if (complete >= 9) {  // Compaction applied.
      EXPECT_EQ(recovered->log.FirstIndex(), 3);
    }
    EXPECT_EQ(recovered->hard_state.term, complete >= 10 ? 2 : complete >= 1 ? 1 : 0)
        << "at offset " << len;
  }

  // The uncut stream recovers the full state.
  auto final_state = DurableLog::Recover(full_.string());
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(final_state->records, 10u);
  EXPECT_EQ(final_state->truncated_tail_bytes, 0u);
  EXPECT_EQ(final_state->log.LastIndex(), 4);
  EXPECT_EQ(final_state->log.FirstIndex(), 3);
  EXPECT_TRUE(final_state->has_snapshot);
  EXPECT_EQ(final_state->snapshot_index, 2);
  EXPECT_EQ(final_state->snapshot_data.str(), "snap");
  EXPECT_EQ(final_state->hard_state.term, 2);
  EXPECT_EQ(final_state->hard_state.voted_for, net::kInvalidNode);
}

}  // namespace
}  // namespace nbraft::storage
