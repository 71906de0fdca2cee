#include "baselines/protocol_registry.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

namespace nbraft::baselines {
namespace {

TEST(ProtocolRegistryTest, AllSevenProtocolsListed) {
  EXPECT_EQ(AllProtocols().size(), 7u);
}

TEST(ProtocolRegistryTest, TraitsMatchPaperTable2) {
  // Spot-check the claims of the paper's Table II.
  const ProtocolTraits& nb = TraitsFor(raft::Protocol::kNbRaft);
  EXPECT_EQ(nb.preferred_concurrency, "High");
  EXPECT_EQ(nb.persistence, "Low");
  EXPECT_TRUE(nb.follower_read);
  EXPECT_EQ(nb.cpu_usage, "Low");

  const ProtocolTraits& craft = TraitsFor(raft::Protocol::kCRaft);
  EXPECT_EQ(craft.preferred_request_size, "Large");
  EXPECT_FALSE(craft.follower_read);
  EXPECT_EQ(craft.cpu_usage, "High");

  const ProtocolTraits& raft = TraitsFor(raft::Protocol::kRaft);
  EXPECT_EQ(raft.preferred_concurrency, "Low");
  EXPECT_EQ(raft.persistence, "High");
  EXPECT_TRUE(raft.follower_read);
}

TEST(ProtocolRegistryTest, CombinationInheritsBothDownsides) {
  const ProtocolTraits& combo = TraitsFor(raft::Protocol::kNbCRaft);
  EXPECT_EQ(combo.preferred_concurrency, "High");  // From NB-Raft.
  EXPECT_EQ(combo.preferred_request_size, "Large");  // From CRaft.
  EXPECT_EQ(combo.persistence, "Low");               // From NB-Raft.
  EXPECT_FALSE(combo.follower_read);                 // From CRaft.
}

TEST(ProtocolRegistryTest, TableRendersEveryProtocol) {
  const std::string table = FormatTraitsTable();
  for (raft::Protocol p : AllProtocols()) {
    EXPECT_NE(table.find(std::string(raft::ProtocolName(p))),
              std::string::npos)
        << raft::ProtocolName(p);
  }
}

TEST(ProtocolRegistryTest, ProtocolNamesAreStable) {
  EXPECT_EQ(raft::ProtocolName(raft::Protocol::kRaft), "Raft");
  EXPECT_EQ(raft::ProtocolName(raft::Protocol::kNbRaft), "NB-Raft");
  EXPECT_EQ(raft::ProtocolName(raft::Protocol::kNbCRaft), "NB-Raft+CRaft");
  EXPECT_EQ(raft::ProtocolName(raft::Protocol::kVGRaft), "VGRaft");
}

// One row per protocol: the options OptionsForProtocol builds and the
// variant mechanisms the predicates switch on.
TEST(ProtocolRegistryTest, OptionsForProtocolConfiguresFlags) {
  using raft::Protocol;
  struct Row {
    Protocol protocol;
    bool non_blocking, erasure, degraded_coding, kbucket, signs;
  };
  const Row rows[] = {
      {Protocol::kRaft, false, false, false, false, false},
      {Protocol::kNbRaft, true, false, false, false, false},
      {Protocol::kCRaft, false, true, false, false, false},
      {Protocol::kNbCRaft, true, true, false, false, false},
      {Protocol::kECRaft, false, true, true, false, false},
      {Protocol::kKRaft, false, false, false, true, false},
      {Protocol::kVGRaft, false, false, false, false, true},
  };
  ASSERT_EQ(std::size(rows), AllProtocols().size());
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(raft::ProtocolName(row.protocol)));
    const raft::RaftOptions options = raft::OptionsForProtocol(row.protocol);
    EXPECT_EQ(options.protocol, row.protocol);
    EXPECT_EQ(options.window_size, row.non_blocking ? 10000 : 0);
    EXPECT_EQ(raft::OptionsForProtocol(row.protocol, 64).window_size,
              row.non_blocking ? 64 : 0);
    EXPECT_EQ(raft::ErasureCoded(row.protocol), row.erasure);
    EXPECT_EQ(raft::CodesWhileDegraded(row.protocol), row.degraded_coding);
    EXPECT_EQ(raft::RelaysThroughKBucket(row.protocol), row.kbucket);
    EXPECT_EQ(raft::SignsEntries(row.protocol), row.signs);
  }
}

}  // namespace
}  // namespace nbraft::baselines
