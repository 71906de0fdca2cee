#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>

#include "common/sim_time.h"
#include "harness/workload.h"
#include "net/network.h"

namespace perfbench {

/// The shape of a measured run, as far as the layer replays need it. Every
/// field is read from the run's public stats; the replays generate their
/// inputs from `seed` so the same run replays the same inputs.
struct RunShape {
  uint64_t seed = 0;
  // sim
  double pending_mean = 0;     ///< Mean queue depth sampled per slice.
  double event_gap_ns = 0;     ///< Virtual ns between events.
  // net
  nbraft::net::NetworkConfig network;
  int nodes = 3;
  int clients = 1;
  double bytes_per_msg = 0;
  size_t payload_size = 4096;
  // nbraft
  int window_size = 0;
  bool window_used = false;     ///< The run inserted into follower windows.
  double entry_gap_ns = 0;      ///< Virtual ns between replicated entries.
  double weak_per_entry = 0;    ///< WEAK_ACCEPTs sent per entry.
  double strong_per_entry = 0;  ///< STRONG_ACCEPTs sent per entry.
  double tuples_in_flight = 0;  ///< Mean VoteList length (Little's law).
  // storage
  bool disk = false;
  nbraft::SimDuration disk_write = 0;
  nbraft::SimDuration disk_fsync = 0;
  double records_per_fsync = 1;
  // tsdb + harness
  nbraft::harness::IngestWorkload::Options workload;
};

/// Wall nanoseconds per operation of each layer's public functions, each
/// the median of several rounds of a replay loop. A layer the run did not
/// use reports 0.
struct LayerCosts {
  double step_ns = 0;            ///< Simulator::After + Step.
  double send_ns = 0;            ///< SimNetwork::Send + delivery events.
  double net_events_per_msg = 0; ///< Kernel events one message costs.
  double window_ns = 0;          ///< SlidingWindow Insert/TakeFlushablePrefix per entry.
  double votelist_ns = 0;        ///< VoteList AddTuple/AddWeak/AddStrongUpTo/CollectCommittable per entry.
  double append_ns = 0;          ///< DurableLog::AppendEntry + SimDisk sync per record.
  double apply_ns = 0;           ///< TsdbStateMachine::Apply per entry.
  double make_payload_ns = 0;    ///< IngestWorkload::MakePayload per request.
};

double ReplayStep(const RunShape& shape);
void ReplaySend(const RunShape& shape, LayerCosts* out);
double ReplayWindow(const RunShape& shape);
double ReplayVoteList(const RunShape& shape);
double ReplayAppend(const RunShape& shape);
double ReplayApply(const RunShape& shape);
double ReplayMakePayload(const RunShape& shape);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
