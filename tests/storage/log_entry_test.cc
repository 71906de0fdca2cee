#include "storage/log_entry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/durable_log.h"
#include "storage/log_backend.h"

namespace nbraft::storage {
namespace {

LogEntry SampleEntry() {
  LogEntry e;
  e.index = 42;
  e.term = 7;
  e.prev_term = 6;
  e.client_id = net::kClientIdBase + 3;
  e.request_id = 0xdeadbeefcafeULL;
  e.payload = "ingest-batch-payload";
  return e;
}

TEST(LogEntryTest, EncodeDecodeRoundTrip) {
  const LogEntry e = SampleEntry();
  std::string buf;
  e.EncodeTo(&buf);
  std::string_view in(buf);
  auto decoded = LogEntry::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), e);
  EXPECT_TRUE(in.empty());
}

TEST(LogEntryTest, FragmentFieldsRoundTrip) {
  LogEntry e = SampleEntry();
  e.frag_shard = 2;
  e.frag_k = 3;
  e.full_size = 4096;
  std::string buf;
  e.EncodeTo(&buf);
  std::string_view in(buf);
  auto decoded = LogEntry::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->IsFragment());
  EXPECT_EQ(decoded->frag_shard, 2);
  EXPECT_EQ(decoded->frag_k, 3u);
  EXPECT_EQ(decoded->full_size, 4096u);
}

TEST(LogEntryTest, MultipleEntriesDecodeSequentially) {
  std::string buf;
  for (int i = 1; i <= 5; ++i) {
    LogEntry e = MakeEntry(i, 1, i == 1 ? 0 : 1, "p" + std::to_string(i));
    e.EncodeTo(&buf);
  }
  std::string_view in(buf);
  for (int i = 1; i <= 5; ++i) {
    auto decoded = LogEntry::DecodeFrom(&in);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->index, i);
    EXPECT_EQ(decoded->payload, "p" + std::to_string(i));
  }
  EXPECT_TRUE(in.empty());
}

TEST(LogEntryTest, CorruptionDetectedByCrc) {
  const LogEntry e = SampleEntry();
  std::string buf;
  e.EncodeTo(&buf);
  // Flip one bit anywhere in the record body (skip the length prefix so
  // the framing still parses).
  for (size_t pos = 2; pos < buf.size(); pos += 5) {
    std::string corrupted = buf;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    std::string_view in(corrupted);
    auto decoded = LogEntry::DecodeFrom(&in);
    EXPECT_FALSE(decoded.ok()) << "flip at " << pos;
  }
}

TEST(LogEntryTest, TruncatedInputFails) {
  const LogEntry e = SampleEntry();
  std::string buf;
  e.EncodeTo(&buf);
  for (size_t keep = 0; keep < buf.size(); keep += 3) {
    std::string_view in(buf.data(), keep);
    auto decoded = LogEntry::DecodeFrom(&in);
    EXPECT_FALSE(decoded.ok()) << "kept " << keep;
  }
}

TEST(LogEntryTest, EmptyPayloadAllowed) {
  LogEntry e = MakeEntry(1, 1, 0);
  std::string buf;
  e.EncodeTo(&buf);
  std::string_view in(buf);
  auto decoded = LogEntry::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(LogEntryTest, WireSizeIncludesOverhead) {
  LogEntry e = MakeEntry(1, 1, 0, std::string(1000, 'x'));
  EXPECT_EQ(e.WireSize(), 1000 + LogEntry::kHeaderOverhead);
}

TEST(LogEntryTest, ReleasePayloadKeepsModelledSize) {
  LogEntry e = MakeEntry(1, 1, 0, std::string(2048, 'x'));
  const size_t before = e.WireSize();
  e.ReleasePayload();
  EXPECT_TRUE(e.payload.empty());
  EXPECT_EQ(e.WireSize(), before);
}

TEST(LogEntryTest, ToStringIsPaperTriple) {
  EXPECT_EQ(MakeEntry(11, 7, 6).ToString(), "(11,7,6)");
}

TEST(LogEntryTest, RandomizedRoundTripProperty) {
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    LogEntry e;
    e.index = static_cast<LogIndex>(rng.NextBounded(1u << 30));
    e.term = static_cast<Term>(rng.NextBounded(1000));
    e.prev_term = e.term - static_cast<Term>(rng.NextBounded(2));
    e.client_id = static_cast<net::NodeId>(rng.NextBounded(100000));
    e.request_id = rng.Next();
    e.payload = std::string(rng.NextBounded(500), static_cast<char>(rng.Next()));
    std::string buf;
    e.EncodeTo(&buf);
    std::string_view in(buf);
    auto decoded = LogEntry::DecodeFrom(&in);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value(), e);
  }
}

/// Captures every record DurableLog stages, so the marker records are
/// checked exactly as DurableLog builds them.
class CapturingBackend : public LogBackend {
 public:
  explicit CapturingBackend(std::vector<LogEntry>* out) : out_(out) {}
  Status Append(const LogEntry& record) override {
    out_->push_back(record);
    return Status::Ok();
  }
  void Sync(std::function<void(Status)> done) override { done(Status::Ok()); }

 private:
  std::vector<LogEntry>* out_;
};

TEST(LogEntryTest, ZeroTailPayloadEncodesAsItsStoredForm) {
  LogEntry tail = SampleEntry();
  tail.payload = nbraft::Buffer("batch", 4096);
  LogEntry stored = tail;
  stored.payload = std::string("batch") + std::string(4096 - 5, '\0');
  ASSERT_EQ(tail.payload.view().size(), 5u);
  ASSERT_EQ(stored.payload.view().size(), 4096u);

  std::string tail_bytes;
  tail.EncodeTo(&tail_bytes);
  std::string stored_bytes;
  stored.EncodeTo(&stored_bytes);
  EXPECT_EQ(tail_bytes, stored_bytes);
  EXPECT_EQ(tail.EncodedSize(), tail_bytes.size());

  std::string_view in(tail_bytes);
  auto decoded = LogEntry::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.value(), tail);
  EXPECT_EQ(decoded.value(), stored);
  EXPECT_EQ(decoded->payload.size(), 4096u);
}

size_t EncodedLength(const LogEntry& e) {
  std::string buf;
  e.EncodeTo(&buf);
  return buf.size();
}

TEST(LogEntryTest, EncodedSizeMatchesEncoding) {
  // The simulated disk sizes records (bytes written, torn-tail draws) with
  // EncodedSize() and never encodes; the codec is the reference it must
  // match byte for byte.
  std::vector<std::pair<std::string, LogEntry>> cases;
  cases.emplace_back("data", SampleEntry());
  cases.emplace_back("empty", MakeEntry(1, 1, 0));
  cases.emplace_back("4 KiB payload",
                     MakeEntry(9, 3, 3, std::string(4096, 'p')));
  cases.emplace_back("70000-byte payload",
                     MakeEntry(10, 3, 3, std::string(70000, 'q')));
  LogEntry fragment = SampleEntry();
  fragment.frag_shard = 4;
  fragment.frag_k = 3;
  fragment.full_size = 12288;
  cases.emplace_back("fragment", fragment);
  LogEntry released = MakeEntry(11, 3, 3, std::string(2048, 'r'));
  released.ReleasePayload();
  cases.emplace_back("released payload", released);
  LogEntry tail = SampleEntry();
  tail.payload = nbraft::Buffer("batch", 70000);
  cases.emplace_back("zero-tail payload", tail);
  LogEntry large;
  large.index = std::numeric_limits<LogIndex>::max();
  large.term = std::numeric_limits<Term>::min();
  large.prev_term = int64_t{1} << 40;
  large.client_id = std::numeric_limits<net::NodeId>::min();
  large.request_id = std::numeric_limits<uint64_t>::max();
  large.frag_shard = std::numeric_limits<int32_t>::min();
  large.frag_k = std::numeric_limits<uint32_t>::max();
  large.full_size = std::numeric_limits<uint64_t>::max();
  cases.emplace_back("large varints", large);

  // DurableLog's five marker kinds, as it stages them (negative indices,
  // snapshot and config payloads), plus one data entry; each Append*
  // reports the size of the record it staged.
  std::vector<LogEntry> staged;
  DurableLog dl;
  dl.OpenWith(std::make_unique<CapturingBackend>(&staged));
  std::vector<size_t> reported;
  const auto stage = [&reported](const Result<size_t>& r) {
    ASSERT_TRUE(r.ok());
    reported.push_back(*r);
  };
  stage(dl.AppendTruncate(int64_t{1} << 33));
  stage(dl.AppendHardState({int64_t{1} << 20, net::kInvalidNode}));
  stage(dl.AppendCompact(300));
  stage(dl.AppendSnapshot(300, 7, nbraft::Buffer(std::string(5000, 's')),
                          /*installed=*/true));
  stage(dl.AppendConfig("v=0,1,2,3,4;n=7;l=5,6", 301));
  stage(dl.AppendEntry(SampleEntry()));
  ASSERT_EQ(staged.size(), 6u);
  for (size_t i = 0; i < staged.size(); ++i) {
    const std::string name = "staged index " + std::to_string(staged[i].index);
    EXPECT_EQ(staged[i].index < 0, i < 5) << name;
    EXPECT_EQ(reported[i], EncodedLength(staged[i])) << name;
    cases.emplace_back(name, staged[i]);
  }

  for (const auto& [name, e] : cases) {
    EXPECT_EQ(e.EncodedSize(), EncodedLength(e)) << name;
  }
}

}  // namespace
}  // namespace nbraft::storage
