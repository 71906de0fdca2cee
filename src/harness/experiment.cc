#include "harness/experiment.h"

#include "common/logging.h"

namespace nbraft::harness {

ThroughputResult RunThroughputExperiment(const ClusterConfig& config,
                                         SimDuration warmup,
                                         SimDuration measure) {
  Cluster cluster(config);
  cluster.Start();
  NBRAFT_CHECK(cluster.AwaitLeader()) << "no leader during bootstrap";
  cluster.StartClients();
  cluster.RunFor(warmup);
  cluster.ResetMeasurement();
  cluster.RunFor(measure);

  const ClusterStats stats = cluster.Collect();
  ThroughputResult out;
  out.raw = stats;
  out.breakdown = stats.breakdown;
  const double seconds = ToSeconds(measure);
  out.throughput_kops =
      static_cast<double>(stats.requests_completed) / seconds / 1000.0;
  out.mean_latency_ms = stats.completion_latency.Mean() / kMillisecond;
  out.p50_latency_ms =
      static_cast<double>(stats.completion_latency.P50()) / kMillisecond;
  out.p99_latency_ms =
      static_cast<double>(stats.completion_latency.P99()) / kMillisecond;
  out.unblock_latency_ms = stats.unblock_latency.Mean() / kMillisecond;
  out.weak_ratio =
      stats.requests_completed == 0
          ? 0.0
          : static_cast<double>(stats.weak_accepts) /
                static_cast<double>(stats.requests_completed);
  out.wait_mean_us = stats.follower_wait.Mean() / kMicrosecond;
  return out;
}

LossResult RunLossExperiment(const ClusterConfig& config, SimDuration run_time,
                             SimDuration settle) {
  Cluster cluster(config);
  cluster.Start();
  NBRAFT_CHECK(cluster.AwaitLeader()) << "no leader during bootstrap";
  cluster.StartClients();
  cluster.RunFor(run_time);

  // Kill leader and every client at the same instant (Sec. V-G).
  const int dead_leader = cluster.CrashLeader();
  cluster.StopAllClients();

  LossResult out;
  out.requests_issued = cluster.TotalRequestsIssued();

  // Wait for a new leader among the survivors.
  const SimTime deadline = cluster.sim()->Now() + settle;
  raft::RaftNode* new_leader = nullptr;
  while (cluster.sim()->Now() < deadline) {
    cluster.RunFor(Millis(50));
    new_leader = cluster.leader();
    if (new_leader != nullptr &&
        new_leader->id() != dead_leader) {
      break;
    }
  }
  if (new_leader == nullptr) {
    out.new_leader_elected = false;
    return out;
  }
  out.new_leader_elected = true;
  // Give in-flight deliveries a moment to drain, then count survivors.
  cluster.RunFor(Millis(200));

  int leader_index = -1;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(i) == new_leader) leader_index = i;
  }
  NBRAFT_CHECK_GE(leader_index, 0);
  out.requests_survived = cluster.CountUniqueRequestsInLog(0, leader_index);
  if (out.requests_issued > 0) {
    const uint64_t survived =
        std::min(out.requests_survived, out.requests_issued);
    out.loss_fraction =
        1.0 - static_cast<double>(survived) /
                  static_cast<double>(out.requests_issued);
  }
  return out;
}

}  // namespace nbraft::harness
