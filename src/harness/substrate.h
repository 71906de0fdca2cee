#ifndef NBRAFT_HARNESS_SUBSTRATE_H_
#define NBRAFT_HARNESS_SUBSTRATE_H_

#include <memory>
#include <vector>

#include "net/network.h"
#include "raft/types.h"
#include "sim/cpu_executor.h"
#include "sim/simulator.h"

namespace nbraft::harness {

/// The physical layer every consensus group shares: one deterministic
/// simulator, one network, and one CPU pool and one disk I/O lane per
/// physical host. GroupRuntimes are tenants on top: their replicas bind
/// endpoints onto these hosts and submit work to these pools, which is
/// exactly how co-resident Raft groups interfere in production (shared NIC
/// serialization, shared cores, shared fsync lane). With one group each
/// host carries a single replica, so its pools are that replica's alone.
class Substrate {
 public:
  struct Config {
    uint64_t seed = 42;
    net::NetworkConfig network;
    int num_physical_nodes = 3;
    int cpu_lanes = 16;
    double cpu_speed = 1.0;
  };

  explicit Substrate(const Config& config);
  ~Substrate();

  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  sim::Simulator* sim() { return sim_.get(); }
  const sim::Simulator* sim() const { return sim_.get(); }
  net::SimNetwork* network() { return network_.get(); }
  int num_physical_nodes() const { return config_.num_physical_nodes; }

  /// Host `physical`'s CPU pool.
  sim::CpuExecutor* host_cpu(int physical) {
    return host_cpus_[static_cast<size_t>(physical)].get();
  }

  /// Host `physical`'s single-lane disk I/O executor, shared by every
  /// co-resident replica's simulated disk.
  sim::CpuExecutor* host_io_lane(int physical) {
    return host_io_lanes_[static_cast<size_t>(physical)].get();
  }

 private:
  Config config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::SimNetwork> network_;
  /// Indexed by physical host.
  std::vector<std::unique_ptr<sim::CpuExecutor>> host_cpus_;
  std::vector<std::unique_ptr<sim::CpuExecutor>> host_io_lanes_;
  bool owns_log_clock_ = false;
};

}  // namespace nbraft::harness

#endif  // NBRAFT_HARNESS_SUBSTRATE_H_
