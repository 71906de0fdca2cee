#include "common/hash.h"

#include <gtest/gtest.h>

#include <string>

namespace nbraft {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8a9136aau);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62a8ab43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(Crc32c(ascending), 0x46dd794eu);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32cTest, DetectsBitFlip) {
  std::string data = "sensor-data-batch-00172";
  const uint32_t original = Crc32c(data);
  data[5] ^= 0x01;
  EXPECT_NE(Crc32c(data), original);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const std::string a = "first half / ";
  const std::string b = "second half";
  const uint32_t whole = Crc32c(a + b);
  // The pre/post inversion makes Extend compose across chunks.
  uint32_t split = Crc32cExtend(0, a.data(), a.size());
  split = Crc32cExtend(split, b.data(), b.size());
  EXPECT_EQ(split, whole);
}

TEST(Fnv1aTest, StableAndDistinct) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("device.42.temp"), Fnv1a64("device.42.temp"));
}

}  // namespace
}  // namespace nbraft
