#ifndef NBRAFT_HARNESS_EXPERIMENT_H_
#define NBRAFT_HARNESS_EXPERIMENT_H_

#include "harness/cluster.h"

namespace nbraft::harness {

/// Result of one steady-state throughput run (one point in Figs. 14-18,
/// 20-23).
struct ThroughputResult {
  double throughput_kops = 0.0;   ///< Completed requests / s / 1000.
  double mean_latency_ms = 0.0;   ///< Issue -> STRONG_ACCEPT.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double unblock_latency_ms = 0.0;  ///< Issue -> first response (mean).
  double weak_ratio = 0.0;        ///< Weak accepts per completed request.
  double wait_mean_us = 0.0;      ///< Mean t_wait(F).
  metrics::Breakdown breakdown;
  ClusterStats raw;
};

/// Runs warm-up then a measured window and reports steady-state metrics.
ThroughputResult RunThroughputExperiment(const ClusterConfig& config,
                                         SimDuration warmup,
                                         SimDuration measure);

/// Result of one persistence-loss run (Fig. 19).
struct LossResult {
  uint64_t requests_issued = 0;    ///< Distinct ids clients sent.
  uint64_t requests_survived = 0;  ///< Distinct ids in the new leader's log.
  double loss_fraction = 0.0;      ///< 1 - survived/issued.
  bool new_leader_elected = false;
};

/// Ingests for `run_time`, then kills the leader and all clients
/// simultaneously (Sec. V-G), waits for a new leader, and counts how many
/// issued requests survive in the new leader's log.
LossResult RunLossExperiment(const ClusterConfig& config, SimDuration run_time,
                             SimDuration settle = Seconds(8));

}  // namespace nbraft::harness

#endif  // NBRAFT_HARNESS_EXPERIMENT_H_
