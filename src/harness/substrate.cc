#include "harness/substrate.h"

#include <string>

#include "common/logging.h"

namespace nbraft::harness {

Substrate::Substrate(const Config& config) : config_(config) {
  sim_ = std::make_unique<sim::Simulator>(config_.seed);
  network_ = std::make_unique<net::SimNetwork>(sim_.get(), config_.network);

  // Log stamps follow virtual time for the duration of this substrate, so
  // NBRAFT_LOG output can be lined up with trace timestamps. The clock
  // hook is thread-local: a substrate created on a sweep worker thread
  // owns that thread's stamps without touching any other worker's.
  if (!HasLogClock()) {
    SetLogClock([sim = sim_.get()]() { return sim->Now(); });
    owns_log_clock_ = true;
  }

  for (int p = 0; p < config_.num_physical_nodes; ++p) {
    auto cpu = std::make_unique<sim::CpuExecutor>(
        sim_.get(), config_.cpu_lanes, "host" + std::to_string(p) + ".cpu");
    cpu->set_switch_cost(raft::kContextSwitchCost, raft::kMaxSwitchOverhead);
    if (config_.cpu_speed != 1.0) cpu->set_speed_factor(config_.cpu_speed);
    host_cpus_.push_back(std::move(cpu));
    host_io_lanes_.push_back(std::make_unique<sim::CpuExecutor>(
        sim_.get(), 1, "host" + std::to_string(p) + ".io"));
  }
}

Substrate::~Substrate() {
  if (owns_log_clock_) ClearLogClock();
}

}  // namespace nbraft::harness
