// The flight recorder: per-node rings with wraparound, the global seq
// order that makes post-mortem dumps deterministic, the JSONL/timeline
// exports, and the naming-scheme conformance tests that pin the canonical
// `subsystem.noun_verb` vocabulary across sampler and journal.

#include "obs/journal.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/names.h"
#include "sim/simulator.h"
#include "tests/common/temp_path.h"

namespace nbraft::obs {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return test_util::TestTempPath(name).string();
}

// ---- Naming scheme conformance -------------------------------------------

bool FollowsScheme(const std::string& name) {
  static constexpr const char* kSubsystems[] = {
      "net.",    "raft.",  "election.",  "storage.",
      "client.", "chaos.", "sim.",       "membership."};
  bool prefixed = false;
  for (const char* p : kSubsystems) {
    if (name.rfind(p, 0) == 0) prefixed = true;
  }
  if (!prefixed) return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (std::islower(u) == 0 && std::isdigit(u) == 0 && c != '_' &&
        c != '.') {
      return false;
    }
  }
  return true;
}

TEST(NamingSchemeTest, EveryCanonicalNameFollowsSubsystemNounVerb) {
  for (size_t i = 0; i < names::kAllNamesCount; ++i) {
    EXPECT_TRUE(FollowsScheme(names::kAllNames[i]))
        << "name violates subsystem.noun_verb scheme: "
        << names::kAllNames[i];
  }
}

TEST(NamingSchemeTest, EveryJournalKindNameFollowsScheme) {
  for (int k = 0; k < static_cast<int>(JournalEventKind::kNumKinds); ++k) {
    const char* name = Journal::KindName(static_cast<JournalEventKind>(k));
    EXPECT_TRUE(FollowsScheme(name)) << "kind " << k << ": " << name;
  }
}

TEST(NamingSchemeTest, EveryJournalKindHasADistinctName) {
  // Journal kinds are the one point-event vocabulary (the exporters name
  // Chrome-trace instants by them), so no kind may fall through to the
  // unknown name or share another kind's, nor collide with a sampler
  // name.
  std::set<std::string> seen(names::kAllNames,
                             names::kAllNames + names::kAllNamesCount);
  for (int k = 0; k < static_cast<int>(JournalEventKind::kNumKinds); ++k) {
    const std::string name =
        Journal::KindName(static_cast<JournalEventKind>(k));
    EXPECT_NE(name, Journal::KindName(JournalEventKind::kNumKinds))
        << "kind " << k;
    EXPECT_TRUE(seen.insert(name).second) << "kind " << k << ": " << name;
  }
}

// ---- Ring behavior -------------------------------------------------------

TEST(JournalTest, RecordsInOrderAndStampsVirtualTime) {
  sim::Simulator sim(1);
  Journal journal(&sim, 3);
  sim.RunUntil(Micros(5));
  journal.Record(JournalEventKind::kElectionStart, 0, -1, 2);
  journal.Record(JournalEventKind::kLeaderElected, 0, -1, 2);

  const auto events = journal.NodeEvents(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, JournalEventKind::kElectionStart);
  EXPECT_EQ(events[0].at, Micros(5));
  EXPECT_EQ(events[0].a, 2);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(journal.events_recorded(), 2u);
  EXPECT_EQ(journal.events_dropped(), 0u);
}

TEST(JournalTest, RingWrapsAroundKeepingNewestAndCountingDropped) {
  Journal::Options options;
  options.per_node_capacity = 8;
  Journal journal(nullptr, 2, options);
  for (int i = 0; i < 20; ++i) {
    journal.RecordAt(i, JournalEventKind::kCommitAdvance, 0, -1, i);
  }

  const auto events = journal.NodeEvents(0);
  ASSERT_EQ(events.size(), 8u);
  // The 8 newest survive, oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, static_cast<int64_t>(12 + i));
  }
  EXPECT_EQ(journal.events_recorded(), 20u);
  EXPECT_EQ(journal.events_dropped(), 12u);
}

TEST(JournalTest, ChattyNodeCannotEvictAnotherNodesHistory) {
  Journal::Options options;
  options.per_node_capacity = 4;
  Journal journal(nullptr, 2, options);
  journal.RecordAt(1, JournalEventKind::kLeaderElected, 1, -1, 7);
  for (int i = 0; i < 100; ++i) {
    journal.RecordAt(2 + i, JournalEventKind::kWindowInsert, 0, -1, i);
  }
  // Node 1's single event is intact despite node 0 overflowing 25x.
  const auto events = journal.NodeEvents(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, JournalEventKind::kLeaderElected);
  EXPECT_EQ(events[0].a, 7);
}

TEST(JournalTest, OutOfRangeNodesLandInTheSharedClusterRing) {
  Journal journal(nullptr, 3);
  journal.RecordAt(1, JournalEventKind::kViolation, -1, -1, 1);
  journal.RecordAt(2, JournalEventKind::kNemesisHeal, -1, -1, 0, 0);
  // The first id past the replicas is an endpoint: it takes the client ring.
  journal.RecordAt(3, JournalEventKind::kRpcDrop, 3, 0, -1, 64);
  const auto shared = journal.NodeEvents(journal.num_nodes());
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared[0].kind, JournalEventKind::kViolation);
  EXPECT_EQ(shared[1].kind, JournalEventKind::kNemesisHeal);
  const auto clients = journal.NodeEvents(journal.num_nodes() + 1);
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0].kind, JournalEventKind::kRpcDrop);
  EXPECT_TRUE(journal.NodeEvents(0).empty());
}

TEST(JournalTest, ChattyClientsCannotEvictClusterEvents) {
  Journal::Options options;
  options.per_node_capacity = 4;
  Journal journal(nullptr, 2, options);
  journal.RecordAt(1, JournalEventKind::kNemesisFault, -1, -1, 3, 0);
  for (int i = 0; i < 50; ++i) {
    journal.RecordAt(2 + i, JournalEventKind::kClientWeakAccept, 10000 + i % 3,
                     -1, i, i);
  }
  journal.RecordAt(60, JournalEventKind::kViolation, -1, -1, 1);

  const auto cluster = journal.NodeEvents(journal.num_nodes());
  ASSERT_EQ(cluster.size(), 2u);
  EXPECT_EQ(cluster[0].kind, JournalEventKind::kNemesisFault);
  EXPECT_EQ(cluster[1].kind, JournalEventKind::kViolation);
  const auto clients = journal.NodeEvents(journal.num_nodes() + 1);
  ASSERT_EQ(clients.size(), 4u);
  EXPECT_EQ(clients.back().a, 49);
  // Merged order interleaves the client ring by seq.
  const auto merged = journal.MergedEvents();
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(merged.front().kind, JournalEventKind::kNemesisFault);
  EXPECT_EQ(merged.back().kind, JournalEventKind::kViolation);
  EXPECT_EQ(journal.events_dropped(), 46u);
}

TEST(JournalTest, MergedEventsInterleaveRingsInRecordOrder) {
  Journal journal(nullptr, 3);
  journal.RecordAt(5, JournalEventKind::kRpcSend, 0, 1, 0, 100);
  journal.RecordAt(5, JournalEventKind::kRpcRecv, 1, 0, 0, 100);
  journal.RecordAt(6, JournalEventKind::kViolation, -1, -1, 1);
  journal.RecordAt(7, JournalEventKind::kRpcSend, 2, 0, 1, 50);

  const auto merged = journal.MergedEvents();
  ASSERT_EQ(merged.size(), 4u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].seq, merged[i].seq);
    EXPECT_LE(merged[i - 1].at, merged[i].at);
  }
  EXPECT_EQ(merged[0].node, 0);
  EXPECT_EQ(merged[1].node, 1);
  EXPECT_EQ(merged[2].node, -1);
  EXPECT_EQ(merged[3].node, 2);
}

// ---- JSONL / timeline export ---------------------------------------------

TEST(JournalTest, JsonlLeadsWithMetaAndEmitsOneObjectPerLine) {
  Journal journal(nullptr, 2);
  journal.RecordAt(Micros(1), JournalEventKind::kRpcSend, 0, 1,
                   static_cast<int64_t>(JournalRpc::kHeartbeat), 64);
  journal.RecordAt(Micros(2), JournalEventKind::kCommitAdvance, 1, -1, 9, 3);

  const std::string path = TempPath("journal.jsonl");
  ASSERT_TRUE(journal.WriteJsonl(path, Micros(10), 0).ok());
  const std::string body = Slurp(path);
  std::remove(path.c_str());

  std::istringstream lines(body);
  std::string line;
  std::vector<std::string> all;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    all.push_back(line);
  }
  ASSERT_EQ(all.size(), 3u);
  EXPECT_NE(all[0].find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(all[0].find("\"events_recorded\":2"), std::string::npos);
  EXPECT_NE(all[0].find("\"events_emitted\":2"), std::string::npos);
  // RPC events decode their type name; others carry raw a/b.
  EXPECT_NE(all[1].find("\"rpc\":\"heartbeat\""), std::string::npos);
  EXPECT_NE(all[1].find("\"kind\":\"net.msg_send\""), std::string::npos);
  EXPECT_NE(all[2].find("\"kind\":\"raft.commit_advance\""),
            std::string::npos);
  EXPECT_NE(all[2].find("\"a\":9"), std::string::npos);
}

TEST(JournalTest, JsonlMetaExposesRingTruncation) {
  Journal::Options options;
  options.per_node_capacity = 4;
  Journal journal(nullptr, 1, options);
  for (int i = 0; i < 10; ++i) {
    journal.RecordAt(i, JournalEventKind::kWindowInsert, 0, -1, i, i);
  }
  const std::string path = TempPath("journal_trunc.jsonl");
  ASSERT_TRUE(journal.WriteJsonl(path, 100, 0).ok());
  const std::string body = Slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"events_recorded\":10"), std::string::npos);
  EXPECT_NE(body.find("\"events_dropped\":6"), std::string::npos);
  EXPECT_NE(body.find("\"events_emitted\":4"), std::string::npos);
}

TEST(JournalTest, LookbackWindowSkipsOlderEvents) {
  Journal journal(nullptr, 1);
  journal.RecordAt(Millis(1), JournalEventKind::kCommitAdvance, 0, -1, 1, 1);
  journal.RecordAt(Millis(50), JournalEventKind::kCommitAdvance, 0, -1, 2,
                   1);
  journal.RecordAt(Millis(99), JournalEventKind::kCommitAdvance, 0, -1, 3,
                   1);

  const std::string path = TempPath("journal_window.jsonl");
  // Window = [cutoff - 60ms, cutoff] -> the 1ms event falls out.
  ASSERT_TRUE(journal.WriteJsonl(path, Millis(100), Millis(60)).ok());
  const std::string body = Slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"events_emitted\":2"), std::string::npos);
  EXPECT_EQ(body.find("\"a\":1,"), std::string::npos);
  EXPECT_NE(body.find("\"a\":2,"), std::string::npos);
  EXPECT_NE(body.find("\"a\":3,"), std::string::npos);
}

TEST(JournalTest, EmptyJournalDumpIsJustTheMetaLine) {
  Journal journal(nullptr, 3);
  const std::string path = TempPath("journal_empty.jsonl");
  ASSERT_TRUE(journal.WriteJsonl(path, 0, 0).ok());
  const std::string body = Slurp(path);
  std::remove(path.c_str());
  std::istringstream lines(body);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 1);
  EXPECT_NE(body.find("\"events_emitted\":0"), std::string::npos);
}

TEST(JournalTest, IdenticalRecordingsDumpByteIdentically) {
  const auto record_all = [](Journal* j) {
    j->RecordAt(Micros(3), JournalEventKind::kLeaderElected, 0, -1, 1);
    j->RecordAt(Micros(4), JournalEventKind::kRpcSend, 0, 1,
                static_cast<int64_t>(JournalRpc::kAppendEntries), 4096);
    j->RecordAt(Micros(5), JournalEventKind::kRpcRecv, 1, 0,
                static_cast<int64_t>(JournalRpc::kAppendEntries), 4096);
    j->RecordAt(Micros(6), JournalEventKind::kViolation, -1, -1, 1);
  };
  Journal a(nullptr, 2);
  Journal b(nullptr, 2);
  record_all(&a);
  record_all(&b);

  const std::string pa = TempPath("journal_a.jsonl");
  const std::string pb = TempPath("journal_b.jsonl");
  ASSERT_TRUE(a.WriteJsonl(pa, Micros(10), Micros(10)).ok());
  ASSERT_TRUE(b.WriteJsonl(pb, Micros(10), Micros(10)).ok());
  EXPECT_EQ(Slurp(pa), Slurp(pb));

  const auto namer = [](int32_t id) {
    return id < 0 ? std::string("cluster") : "n" + std::to_string(id);
  };
  ASSERT_TRUE(a.WriteTimeline(pa, Micros(10), Micros(10), namer).ok());
  ASSERT_TRUE(b.WriteTimeline(pb, Micros(10), Micros(10), namer).ok());
  EXPECT_EQ(Slurp(pa), Slurp(pb));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(JournalTest, TimelineFormatsDecodedEventLines) {
  JournalEvent e;
  e.at = Millis(2);
  e.kind = JournalEventKind::kRpcSend;
  e.node = 0;
  e.peer = 2;
  e.a = static_cast<int64_t>(JournalRpc::kRequestVote);
  e.b = 128;
  const std::string line = Journal::FormatEvent(e, nullptr);
  EXPECT_NE(line.find("node 0"), std::string::npos);
  EXPECT_NE(line.find("send request_vote -> node 2"), std::string::npos);
  EXPECT_NE(line.find("128 B"), std::string::npos);

  JournalEvent v;
  v.kind = JournalEventKind::kViolation;
  v.node = -1;
  v.a = 1;
  EXPECT_NE(Journal::FormatEvent(v, nullptr).find("INVARIANT VIOLATION"),
            std::string::npos);
}

TEST(JournalTest, UnwritablePathReturnsIoError) {
  Journal journal(nullptr, 1);
  EXPECT_FALSE(
      journal.WriteJsonl("/nonexistent-dir/never/j.jsonl", 0, 0).ok());
  EXPECT_FALSE(
      journal.WriteTimeline("/nonexistent-dir/never/t.txt", 0, 0, nullptr)
          .ok());
}

// A full disk fails only when stdio flushes its buffer, after the last
// fprintf, so the writers must check the flush and the close.
TEST(JournalTest, FullDeviceReturnsIoError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Journal journal(nullptr, 1);
  journal.RecordAt(5, JournalEventKind::kTermChange, 0, -1, 1, 0);
  const Status jsonl = journal.WriteJsonl("/dev/full", 10, 0);
  EXPECT_EQ(jsonl.code(), StatusCode::kIoError) << jsonl.ToString();
  const Status timeline = journal.WriteTimeline("/dev/full", 10, 0, nullptr);
  EXPECT_EQ(timeline.code(), StatusCode::kIoError) << timeline.ToString();
}

}  // namespace
}  // namespace nbraft::obs
