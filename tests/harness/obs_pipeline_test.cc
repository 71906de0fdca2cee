// The full observability pipeline on a real cluster: the per-node pull
// sources (window occupancy, pending barriers, CPU / IO lane queue depths,
// replication lag) register and sample into the sampler's Gorilla store,
// one point per tick; the flight recorder journals protocol events for
// every replica; and WriteObsBundle() lands the whole snapshot set in one
// directory.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "harness/cluster.h"
#include "obs/names.h"
#include "tests/common/temp_path.h"
#include "tests/raft/test_cluster.h"

namespace nbraft::harness {
namespace {

using raft::Protocol;
using raft_test::SmallConfig;

ClusterConfig ObsConfig(uint64_t seed) {
  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 4, seed);
  config.sample_interval = Millis(1);
  config.journal = true;
  config.disk.enabled = true;
  config.disk.write_latency = Micros(10);
  config.disk.fsync_latency = Micros(100);
  config.disk.group_commit = true;
  return config;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ObsPipelineTest, PerNodeSourcesRegisterAndSample) {
  Cluster cluster(ObsConfig(11));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(100));

  ASSERT_NE(cluster.sampler(), nullptr);
  const obs::SeriesStore& store = cluster.sampler()->store();
  std::set<std::string> source_names;
  for (size_t i = 0; i < store.series_count(); ++i) {
    source_names.insert(store.name(i));
  }
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const std::string suffix = ".node" + std::to_string(n);
    for (const char* base :
         {obs::names::kWindowOccupancyNode, obs::names::kBarriersPending,
          obs::names::kReplicationLag, obs::names::kCpuQueueDepth,
          obs::names::kIoQueueDepth}) {
      EXPECT_TRUE(source_names.count(base + suffix) == 1)
          << "missing per-node source " << base << suffix;
    }
  }

  // The sampler has been ticking.
  ASSERT_GT(store.point_count(0), 50u);

  // The ingest workload moved real bytes, so the NIC series ends nonzero.
  size_t nic = 0;
  while (nic < store.series_count() &&
         store.name(nic) != obs::names::kNicBytesSent) {
    ++nic;
  }
  ASSERT_LT(nic, store.series_count());
  const auto points = store.Decode(nic);
  ASSERT_TRUE(points.ok());
  EXPECT_GT(points->back().value, 0.0);
}

TEST(ObsPipelineTest, SeriesStoreMirrorsEverySampledSeries) {
  Cluster cluster(ObsConfig(12));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(60));

  // One series per source (6 cluster-wide + 5 per node), each holding one
  // point per 1 ms tick since Start(): the run's 60 ms plus the election
  // wait.
  ASSERT_NE(cluster.sampler(), nullptr);
  const obs::SeriesStore& store = cluster.sampler()->store();
  ASSERT_EQ(store.series_count(), 6u + 5u * 3u);
  const size_t ticks = store.point_count(0);
  ASSERT_GT(ticks, 60u);
  for (size_t i = 0; i < store.series_count(); ++i) {
    const auto decoded = store.Decode(i);
    ASSERT_TRUE(decoded.ok()) << store.name(i);
    ASSERT_EQ(decoded->size(), ticks) << store.name(i);
    for (size_t t = 0; t < ticks; ++t) {
      ASSERT_EQ((*decoded)[t].timestamp, Millis(static_cast<int64_t>(t)))
          << store.name(i) << " sample " << t;
    }
  }
}

TEST(ObsPipelineTest, JournalCoversEveryReplica) {
  Cluster cluster(ObsConfig(13));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(100));

  obs::Journal* journal = cluster.journal();
  ASSERT_NE(journal, nullptr);
  EXPECT_GT(journal->events_recorded(), 0u);
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_FALSE(journal->NodeEvents(n).empty()) << "node " << n;
  }
  // Disk mode journals storage barrier traffic too.
  bool saw_fsync = false;
  for (const obs::JournalEvent& e : journal->MergedEvents()) {
    if (e.kind == obs::JournalEventKind::kDiskFsync) saw_fsync = true;
  }
  EXPECT_TRUE(saw_fsync);
}

// Clients are not journaled in an untraced run, but the network's drops of
// the messages they send are. Those land in the client ring, so a client
// fleet hammering a crashed leader cannot evict cluster-level history.
TEST(ObsPipelineTest, ClientSentDropsCannotEvictClusterEvents) {
  ClusterConfig config = SmallConfig(Protocol::kNbRaft, 3, 8, 15);
  config.journal = true;
  config.journal_capacity = 16;
  config.client_backoff_base = Millis(5);
  config.client_backoff_cap = Millis(5);
  Cluster cluster(config);
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(50));

  obs::Journal* journal = cluster.journal();
  ASSERT_NE(journal, nullptr);
  journal->Record(obs::JournalEventKind::kNemesisFault, -1, -1, 0, 0);
  ASSERT_GE(cluster.CrashLeader(), 0);
  cluster.RunFor(Millis(500));

  const auto clients = journal->NodeEvents(journal->num_nodes() + 1);
  ASSERT_EQ(clients.size(), config.journal_capacity) << "ring never filled";
  for (const obs::JournalEvent& e : clients) {
    EXPECT_EQ(e.kind, obs::JournalEventKind::kRpcDrop);
    EXPECT_TRUE(net::IsClientId(e.node)) << e.node;
  }
  const auto shared = journal->NodeEvents(journal->num_nodes());
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0].kind, obs::JournalEventKind::kNemesisFault);
}

TEST(ObsPipelineTest, WriteObsBundleLandsTheFullSnapshotSet) {
  Cluster cluster(ObsConfig(14));
  cluster.Start();
  ASSERT_TRUE(cluster.AwaitLeader());
  cluster.StartClients();
  cluster.RunFor(Millis(50));

  const std::string dir = test_util::TestTempPath("obs_bundle").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(cluster.WriteObsBundle(dir).ok());

  for (const char* file : {"metrics.json", "metrics.prom", "journal.jsonl",
                           "timeline.txt", "node_stats.json"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + file)) << file;
  }
  const std::string metrics = Slurp(dir + "/metrics.json");
  EXPECT_NE(metrics.find("\"nbraft-obs-metrics-v2\""), std::string::npos);
  EXPECT_NE(metrics.find(obs::names::kBarriersPending), std::string::npos);
  const std::string prom = Slurp(dir + "/metrics.prom");
  EXPECT_NE(prom.find("{node=\"0\"}"), std::string::npos);
  const std::string journal = Slurp(dir + "/journal.jsonl");
  EXPECT_NE(journal.find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(journal.find("net.msg_send"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// A full disk fails only when stdio flushes its buffer, so the bundle's
// node_stats.json writer must check the flush and the close.
TEST(ObsPipelineTest, WriteObsBundleReportsFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Cluster cluster(ObsConfig(16));
  cluster.Start();
  cluster.RunFor(Millis(5));

  const std::string dir = test_util::TestTempPath("obs_full").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir + "/node_stats.json");
  const Status s = cluster.WriteObsBundle(dir);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nbraft::harness
