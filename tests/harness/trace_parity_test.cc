// Observability must be a pure observer: a traced run (tracer, journal
// with clients wired in, sampler) replays bit-identically to an untraced
// run of the same seed, and the per-phase totals of the recorded spans
// agree with the breakdown the cluster collects from its nodes and
// clients.

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "metrics/breakdown.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::harness {
namespace {

using raft::Protocol;
using raft_test::SmallConfig;

struct RunSummary {
  std::vector<std::pair<storage::LogIndex, uint64_t>> committed;
  uint64_t completed = 0;
  uint64_t weak = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

RunSummary Fingerprint(Cluster& cluster) {
  RunSummary out;
  raft::RaftNode* leader = cluster.leader();
  EXPECT_NE(leader, nullptr);
  const auto& log = leader->log();
  for (storage::LogIndex i = log.FirstIndex();
       i <= leader->commit_index() && i <= log.LastIndex(); ++i) {
    out.committed.emplace_back(i, log.AtUnchecked(i).request_id);
  }
  const ClusterStats stats = cluster.Collect();
  out.completed = stats.requests_completed;
  out.weak = stats.weak_accepts;
  out.messages = cluster.network()->messages_sent();
  out.bytes = cluster.network()->bytes_sent();
  return out;
}

void Drive(Cluster& cluster) {
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(400));
  cluster.StopAllClients();
  cluster.RunFor(Millis(300));
}

class TraceParityTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(TraceParityTest, TracedRunIsBitIdenticalToUntraced) {
  ClusterConfig plain = SmallConfig(GetParam(), 3, 6, 91);

  ClusterConfig traced = plain;
  traced.trace = true;
  traced.sample_interval = Millis(5);

  Cluster a(plain);
  Drive(a);
  const RunSummary fa = Fingerprint(a);

  Cluster b(traced);
  Drive(b);
  const RunSummary fb = Fingerprint(b);

  EXPECT_EQ(fa.committed, fb.committed);
  EXPECT_EQ(fa.completed, fb.completed);
  EXPECT_EQ(fa.weak, fb.weak);
  EXPECT_EQ(fa.messages, fb.messages)
      << "tracing must not add, drop, or reorder messages";
  EXPECT_EQ(fa.bytes, fb.bytes);

  // The traced run actually recorded something, clients included.
  ASSERT_NE(b.tracer(), nullptr);
  EXPECT_GT(b.tracer()->spans_recorded(), 0u);
  ASSERT_NE(b.journal(), nullptr);
  bool saw_client_accept = false;
  for (const obs::JournalEvent& e : b.journal()->MergedEvents()) {
    if (e.kind == obs::JournalEventKind::kClientStrongAccept) {
      saw_client_accept = true;
    }
  }
  EXPECT_TRUE(saw_client_accept);
  ASSERT_NE(b.sampler(), nullptr);
  EXPECT_GT(b.sampler()->store().point_count(0), 1u);
}

TEST_P(TraceParityTest, TracerTotalsMatchCollectedBreakdown) {
  ClusterConfig config = SmallConfig(GetParam(), 3, 6, 92);
  config.trace = true;
  Cluster cluster(config);
  Drive(cluster);

  ASSERT_EQ(cluster.tracer()->spans_dropped(), 0u);
  metrics::Breakdown traced;
  for (const obs::SpanEvent& s : cluster.tracer()->spans()) {
    traced.Add(s.phase, s.duration());
  }
  const metrics::Breakdown collected = cluster.Collect().breakdown;
  for (int i = 0; i < metrics::kNumPhases; ++i) {
    const auto phase = static_cast<metrics::Phase>(i);
    EXPECT_EQ(traced.total(phase), collected.total(phase))
        << metrics::PhaseNotation(phase);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, TraceParityTest,
                         ::testing::Values(Protocol::kRaft,
                                           Protocol::kNbRaft),
                         [](const auto& info) {
                           std::string name(raft::ProtocolName(info.param));
                           for (char& c : name) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace nbraft::harness
