#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace nbraft {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::IoError("x").message(), "x");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::IoError("cannot open j.jsonl");
  EXPECT_EQ(s.ToString(), "IoError: cannot open j.jsonl");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(Status::Corruption("").ToString(), "Corruption");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_FALSE(Status::OutOfRange("").ok());
  EXPECT_FALSE(Status::Corruption("").ok());
  EXPECT_FALSE(Status::IoError("").ok());
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::Corruption("a"), Status::Corruption("b"));
  EXPECT_FALSE(Status::Corruption("a") == Status::IoError("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "Ok");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r = Status::Corruption("boom");
  EXPECT_DEATH((void)r.value(), "Result::value");
}

TEST(ResultDeathTest, OkStatusRejected) {
  EXPECT_DEATH((Result<int>(Status::Ok())), "OK status");
}

}  // namespace
}  // namespace nbraft
