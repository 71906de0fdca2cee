#include "nbraft/sliding_window.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace nbraft::raft {
namespace {

using storage::LogEntry;
using storage::MakeEntry;

TEST(SlidingWindowTest, StartsEmpty) {
  SlidingWindow w(6);
  EXPECT_EQ(w.capacity(), 6);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.Contains(8));
}

TEST(SlidingWindowTest, InsertAndLookup) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(9, 4, 4));
  ASSERT_TRUE(w.Contains(9));
  EXPECT_EQ(w.At(9).term, 4);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SlidingWindowTest, ReinsertReplaces) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(9, 4, 4));
  w.Insert(MakeEntry(9, 5, 4));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.At(9).term, 5);
}

// Paper Fig. 8: inserting Entry (11,7,6) removes the mismatched
// predecessor (10,5,4) and the mismatched successor (12,5,5) together with
// everything after it (13,5,5).
TEST(SlidingWindowTest, PaperFig8ContinuityPruning) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(10, 5, 4));
  w.Insert(MakeEntry(12, 5, 5));
  w.Insert(MakeEntry(13, 5, 5));
  ASSERT_EQ(w.size(), 3u);

  w.Insert(MakeEntry(11, 7, 6));

  EXPECT_FALSE(w.Contains(10)) << "predecessor (10,5,4) must be removed";
  EXPECT_FALSE(w.Contains(12)) << "successor (12,5,5) must be removed";
  EXPECT_FALSE(w.Contains(13)) << "entries after the successor go too";
  ASSERT_TRUE(w.Contains(11));
  EXPECT_EQ(w.size(), 1u);
}

TEST(SlidingWindowTest, MatchingNeighborsSurviveInsert) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(10, 5, 5));
  w.Insert(MakeEntry(12, 5, 5));
  w.Insert(MakeEntry(11, 5, 5));  // Chains with both neighbors.
  EXPECT_EQ(w.size(), 3u);
  EXPECT_TRUE(w.Contains(10));
  EXPECT_TRUE(w.Contains(11));
  EXPECT_TRUE(w.Contains(12));
}

// Paper Fig. 9: after appending Entry (8,5,4), the continuous window
// prefix (9,5,5), (10,6,5) flushes into the log; STRONG_ACCEPT reports
// (10, 6).
TEST(SlidingWindowTest, PaperFig9FlushablePrefix) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(9, 5, 5));
  w.Insert(MakeEntry(10, 6, 5));

  // Caller appended (8,5,4): the log tail is now (index 8, term 5).
  const auto flushed = w.TakeFlushablePrefix(8, 5);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].ToString(), "(9,5,5)");
  EXPECT_EQ(flushed[1].ToString(), "(10,6,5)");
  EXPECT_TRUE(w.empty());
}

TEST(SlidingWindowTest, FlushStopsAtGap) {
  SlidingWindow w(10);
  w.Insert(MakeEntry(9, 5, 5));
  w.Insert(MakeEntry(11, 5, 5));  // Gap at 10.
  const auto flushed = w.TakeFlushablePrefix(8, 5);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].index, 9);
  EXPECT_TRUE(w.Contains(11));
}

TEST(SlidingWindowTest, FlushStopsAtTermMismatch) {
  SlidingWindow w(10);
  w.Insert(MakeEntry(9, 5, 4));  // prev_term 4 but log tail term is 5.
  const auto flushed = w.TakeFlushablePrefix(8, 5);
  EXPECT_TRUE(flushed.empty());
  EXPECT_TRUE(w.Contains(9));
}

TEST(SlidingWindowTest, FlushNothingWhenHeadMissing) {
  SlidingWindow w(10);
  w.Insert(MakeEntry(12, 5, 5));
  EXPECT_TRUE(w.TakeFlushablePrefix(8, 5).empty());
}

// Paper Fig. 7: after the log is truncated by Entry (6,5,4), the window
// moves left: (9,4,4) is removed for its lower term, (13,5,5) for
// exceeding the window end (6 + 6 = 12).
TEST(SlidingWindowTest, PaperFig7WindowMovesLeft) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(9, 4, 4));
  w.Insert(MakeEntry(13, 5, 5));

  w.OnLogReshaped(/*new_last=*/6, /*min_term=*/5);

  EXPECT_FALSE(w.Contains(9)) << "(9,4,4): term below the new entry's 5";
  EXPECT_FALSE(w.Contains(13)) << "(13,5,5): beyond window end 12";
  EXPECT_TRUE(w.empty());
}

TEST(SlidingWindowTest, ReshapeKeepsValidEntries) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(9, 5, 5));
  w.Insert(MakeEntry(12, 5, 5));
  w.OnLogReshaped(6, 5);
  EXPECT_TRUE(w.Contains(9));
  EXPECT_TRUE(w.Contains(12));
}

TEST(SlidingWindowTest, ReshapeDropsEntriesBelowNewLast) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(9, 5, 5));
  w.OnLogReshaped(/*new_last=*/9, /*min_term=*/5);
  EXPECT_FALSE(w.Contains(9)) << "index 9 is now in the appended region";
}

TEST(SlidingWindowTest, ClearEmpties) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(9, 5, 5));
  w.Clear();
  EXPECT_TRUE(w.empty());
}

TEST(SlidingWindowTest, IndicesAscending) {
  SlidingWindow w(20);
  w.Insert(MakeEntry(15, 5, 5));
  w.Insert(MakeEntry(10, 5, 5));
  w.Insert(MakeEntry(12, 5, 5));
  EXPECT_EQ(w.Indices(),
            (std::vector<storage::LogIndex>{10, 12, 15}));
}

TEST(SlidingWindowTest, ZeroCapacityDegeneratesToRaft) {
  SlidingWindow w(0);
  EXPECT_EQ(w.capacity(), 0);
  // OnLogReshaped with zero capacity drops everything above last.
  w.Insert(MakeEntry(5, 1, 1));
  w.OnLogReshaped(4, 1);
  EXPECT_FALSE(w.Contains(5));
}

TEST(SlidingWindowTest, SuccessorChainPrunedOnlyFromBreakPoint) {
  SlidingWindow w(20);
  w.Insert(MakeEntry(12, 5, 5));
  w.Insert(MakeEntry(13, 5, 5));
  w.Insert(MakeEntry(15, 6, 6));
  // Insert 11 with term 4: successor 12 expects prev_term 5 != 4, so 12
  // and everything after (13, 15) are removed.
  w.Insert(MakeEntry(11, 4, 4));
  EXPECT_TRUE(w.Contains(11));
  EXPECT_FALSE(w.Contains(12));
  EXPECT_FALSE(w.Contains(13));
  EXPECT_FALSE(w.Contains(15));
}

TEST(SlidingWindowTest, RingWrapsAroundAtCapacity) {
  // A follower with w = 4: each round the head entry arrives last, after
  // the three behind it were cached, so the ring's live span keeps moving
  // through the same four slots.
  SlidingWindow w(4);
  storage::LogIndex last = 0;
  for (int round = 0; round < 40; ++round) {
    for (storage::LogIndex i = last + 4; i >= last + 2; --i) {
      w.Insert(MakeEntry(i, 1, 1), /*received_at=*/i * 10);
    }
    EXPECT_EQ(w.size(), 3u);
    EXPECT_EQ(w.Indices(), (std::vector<storage::LogIndex>{
                               last + 2, last + 3, last + 4}));
    ++last;  // The head arrives and is appended directly.
    std::vector<SlidingWindow::Flushed> flushed;
    w.TakeFlushablePrefix(last, 1, &flushed);
    ASSERT_EQ(flushed.size(), 3u);
    for (size_t k = 0; k < flushed.size(); ++k) {
      const storage::LogIndex index = last + 1 + static_cast<int64_t>(k);
      EXPECT_EQ(flushed[k].entry.index, index);
      EXPECT_EQ(flushed[k].received_at, index * 10);
    }
    last += 3;
    EXPECT_TRUE(w.empty());
  }
}

TEST(SlidingWindowTest, ReceiveTimeComesBackWithTheFlushedEntry) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(5, 2, 2), /*received_at=*/700);
  w.Insert(MakeEntry(6, 2, 2));  // No receive time.
  std::vector<SlidingWindow::Flushed> flushed;
  w.TakeFlushablePrefix(4, 2, &flushed);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].received_at, 700);
  EXPECT_EQ(flushed[1].received_at, SlidingWindow::kNoReceiveTime);
}

// The log appends a different leader's entry at a cached index: the cached
// entry is passed, stays cached (and counted) but cannot flush, and loses
// its receive time. A truncation back below it makes it flushable again.
TEST(SlidingWindowTest, PassedEntryWaitsForATruncation) {
  SlidingWindow w(6);
  w.Insert(MakeEntry(5, 2, 2), /*received_at=*/50);
  w.Insert(MakeEntry(6, 2, 2), /*received_at=*/60);
  // A new leader's (5, 3) was appended directly: 5 and 6 are passed or
  // unchained; nothing flushes.
  EXPECT_TRUE(w.TakeFlushablePrefix(5, 3).empty());
  EXPECT_TRUE(w.Contains(5));
  EXPECT_TRUE(w.Contains(6));
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.Indices(), (std::vector<storage::LogIndex>{5, 6}));
  // The log moves on past both.
  EXPECT_TRUE(w.TakeFlushablePrefix(9, 3).empty());
  EXPECT_EQ(w.size(), 2u);
  // A truncation to 4 brings them back ahead of the log.
  w.OnLogReshaped(/*new_last=*/4, /*min_term=*/2);
  std::vector<SlidingWindow::Flushed> flushed;
  w.TakeFlushablePrefix(4, 2, &flushed);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].entry.index, 5);
  EXPECT_EQ(flushed[0].received_at, SlidingWindow::kNoReceiveTime);
  EXPECT_EQ(flushed[1].entry.index, 6);
  EXPECT_TRUE(w.empty());
}

TEST(SlidingWindowTest, ReshapeEvictsPassedAndCachedEntriesInOrder) {
  struct Recorder : SlidingWindow::Observer {
    void OnInsert(storage::LogIndex, size_t) override {}
    void OnEvict(storage::LogIndex index, size_t occupancy) override {
      evicted.emplace_back(index, occupancy);
    }
    void OnFlush(storage::LogIndex, size_t, size_t) override {}
    std::vector<std::pair<storage::LogIndex, size_t>> evicted;
  };
  SlidingWindow w(6);
  Recorder recorder;
  w.set_observer(&recorder);
  w.Insert(MakeEntry(3, 1, 1));
  w.Insert(MakeEntry(8, 1, 1));
  w.Insert(MakeEntry(9, 2, 1));
  w.Insert(MakeEntry(12, 2, 2));
  EXPECT_TRUE(w.TakeFlushablePrefix(4, 2).empty());  // 3 is passed.
  // Truncation to 5 with min term 2: 3 (below), 8 (old term) go; 12 is
  // beyond 5 + 6 = 11 and goes too; 9 stays.
  w.OnLogReshaped(5, 2);
  EXPECT_EQ(recorder.evicted,
            (std::vector<std::pair<storage::LogIndex, size_t>>{
                {3, 3}, {8, 2}, {12, 1}}));
  EXPECT_EQ(w.Indices(), (std::vector<storage::LogIndex>{9}));
}

}  // namespace
}  // namespace nbraft::raft
