#include "common/buffer.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace nbraft {
namespace {

TEST(BufferTest, DefaultAndEmptyStringOwnNothing) {
  const Buffer none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.view().empty());
  EXPECT_EQ(none.str(), "");
  EXPECT_TRUE(Buffer(std::string()).empty());
  EXPECT_EQ(none, Buffer(""));
}

TEST(BufferTest, StoredBytesAreTheWholeBuffer) {
  const Buffer b(std::string("abc"));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.view(), "abc");
  EXPECT_EQ(b.str(), "abc");
}

TEST(BufferTest, ZeroTailCountsInSizeButIsNotStored) {
  const Buffer b(std::string("abc"), 8);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.view(), "abc");
  EXPECT_EQ(std::string(b.data(), b.view().size()), "abc");
  EXPECT_EQ(b.str(), std::string("abc\0\0\0\0\0", 8));

  const Buffer all_tail(std::string(), 5);
  EXPECT_EQ(all_tail.size(), 5u);
  EXPECT_FALSE(all_tail.empty());
  EXPECT_TRUE(all_tail.view().empty());
  EXPECT_EQ(all_tail.str(), std::string(5, '\0'));
}

TEST(BufferTest, SizeBelowStoredBytesKeepsTheBytes) {
  const Buffer b(std::string("abcdef"), 2);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.str(), "abcdef");
  EXPECT_TRUE(Buffer(std::string(), 0).empty());
}

TEST(BufferTest, ClearAndMoveLeaveAnEmptyBuffer) {
  Buffer b(std::string("abc"), 100);
  const Buffer copy = b;
  EXPECT_FALSE(b.unique());
  b.clear();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(copy.unique());
  EXPECT_EQ(copy.size(), 100u);

  Buffer source(std::string("xyz"), 50);
  const Buffer moved = std::move(source);
  EXPECT_EQ(moved.size(), 50u);
  EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(source.empty());   // NOLINT(bugprone-use-after-move)
}

TEST(BufferTest, EqualityIsLogicalAcrossTailAndStoredForms) {
  const Buffer tail(std::string("ab"), 6);
  const Buffer stored(std::string("ab\0\0\0\0", 6));
  EXPECT_EQ(tail, stored);
  EXPECT_EQ(stored, tail);
  EXPECT_EQ(tail, Buffer(std::string("ab\0", 3), 6));
  EXPECT_EQ(Buffer(std::string(), 4), Buffer(std::string(4, '\0')));

  EXPECT_NE(tail, Buffer(std::string("ab"), 7));        // Size differs.
  EXPECT_NE(tail, Buffer(std::string("ab\0\0\0x", 6)));  // Non-zero in tail.
  EXPECT_NE(tail, Buffer(std::string("ac"), 6));        // Prefix differs.
  EXPECT_NE(Buffer(std::string(), 1), Buffer());
}

TEST(BufferTest, CopiesShareOneAllocation) {
  const Buffer a(std::string(64, 'x'), 4096);
  const Buffer b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(sizeof(Buffer), sizeof(void*) * 2);
}

}  // namespace
}  // namespace nbraft
