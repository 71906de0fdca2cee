// IoT fleet ingestion: a sensor fleet (many devices, Zipf-skewed
// popularity, ~1 Hz sampling) streams measurements into a 3-replica
// NB-Raft cluster backed by the time-series state machine. Afterwards the
// example queries series back from the replicated store and compares each
// replica's point count.
//
//   ./build/examples/iot_fleet_ingestion [num_sensors] [num_clients]

#include <cstdio>
#include <cstdlib>

#include "harness/cluster.h"
#include "raft/types.h"

int main(int argc, char** argv) {
  using namespace nbraft;

  const uint64_t sensors =
      argc > 1 ? static_cast<uint64_t>(std::atol(argv[1])) : 500;
  const int clients = argc > 2 ? std::atoi(argv[2]) : 32;

  harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = clients;
  config.protocol = raft::Protocol::kNbRaft;
  config.payload_size = 2048;
  config.seed = 2024;
  config.release_payloads = false;
  config.workload.series_count = sensors;
  config.workload.zipf_skew = 0.9;  // A few hot devices dominate.
  config.workload.measurements_per_request = 32;

  std::printf("== IoT fleet ingestion: %llu sensors, %d client "
              "connections, NB-Raft x3 ==\n\n",
              static_cast<unsigned long long>(sensors), clients);

  harness::Cluster cluster(config);
  cluster.Start();
  if (!cluster.AwaitLeader()) return 1;
  cluster.StartClients();
  cluster.RunFor(Seconds(2));
  cluster.StopAllClients();
  cluster.RunFor(Seconds(1));  // Drain the pipeline.

  raft::RaftNode* leader = cluster.leader();
  const auto& sm = static_cast<const tsdb::TsdbStateMachine&>(
      leader->state_machine());

  const harness::ClusterStats stats = cluster.Collect();
  std::printf("ingestion requests committed: %llu\n",
              static_cast<unsigned long long>(
                  leader->stats().entries_committed));
  std::printf("points in the store          : %llu (%zu flushed chunks)\n",
              static_cast<unsigned long long>(sm.ingested_points()),
              sm.flushed_chunks());
  std::printf("weak accepts (early returns) : %llu\n",
              static_cast<unsigned long long>(stats.weak_accepts));

  // Read a hot series back from the leader.
  auto points = sm.Query(0);
  if (points.ok() && !points->empty()) {
    std::printf("\nseries 0 holds %zu points; first (t=%lld, v=%.2f), "
                "last (t=%lld, v=%.2f)\n",
                points->size(),
                static_cast<long long>(points->front().timestamp),
                points->front().value,
                static_cast<long long>(points->back().timestamp),
                points->back().value);
  }

  // Replicas hold the same data: compare point counts on each node.
  std::printf("\nper-replica point count for series 0: ");
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    std::printf("node%d=%llu ", i,
                static_cast<unsigned long long>(
                    cluster.node(i)->state_machine().PointCount(0)));
  }
  std::printf("\n(identical counts = replicated state machines agree)\n");
  return 0;
}
