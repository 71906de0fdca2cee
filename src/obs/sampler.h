#ifndef NBRAFT_OBS_SAMPLER_H_
#define NBRAFT_OBS_SAMPLER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "obs/series_store.h"
#include "sim/simulator.h"

namespace nbraft::obs {

/// Reads named pull sources (window occupancy, commit lag, queue depths,
/// NIC bytes, ...) on a fixed virtual-time tick and appends each reading
/// to that source's series in a Gorilla-compressed SeriesStore. The store
/// is the only copy of the samples; the exporters decode it into
/// Chrome-trace counter tracks, JSONL samples and metrics snapshots.
///
/// The sampler only *reads* cluster state — scheduling its tick events must
/// not perturb a run (the trace-parity test pins this down).
/// Single-threaded, like everything driven by the simulator.
class Sampler {
 public:
  Sampler(sim::Simulator* sim, SimDuration interval);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Registers a source as the next store series. Sources are read in
  /// registration order (deterministic). CHECK-fails after Start(), so
  /// every series holds one point per tick.
  void AddSource(std::string name, std::function<double()> read);

  /// Takes an immediate sample and schedules the periodic tick.
  void Start();
  void Stop();

  SimDuration interval() const { return interval_; }
  /// One series per source, in registration order.
  const SeriesStore& store() const { return store_; }

 private:
  void Tick();

  sim::Simulator* sim_;
  SimDuration interval_;
  bool started_ = false;
  bool running_ = false;
  sim::EventId tick_event_ = sim::kInvalidEventId;
  std::vector<std::function<double()>> sources_;  ///< Parallel to store_.
  SeriesStore store_;
};

}  // namespace nbraft::obs

#endif  // NBRAFT_OBS_SAMPLER_H_
