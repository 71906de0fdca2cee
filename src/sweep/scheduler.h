#ifndef NBRAFT_SWEEP_SCHEDULER_H_
#define NBRAFT_SWEEP_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "sweep/report.h"
#include "sweep/task.h"

namespace nbraft::sweep {

struct SweepOptions {
  /// Worker threads. 1 runs every task inline on the calling thread in
  /// index order — the bit-exact serial oracle, no threads spawned.
  /// 0 resolves to the hardware concurrency (at least 1).
  int workers = 0;

  /// Root of every task's seed stream: task i receives
  /// TaskSeed(sweep_seed, i).
  uint64_t sweep_seed = 0;
};

/// Resolves SweepOptions::workers (0 => hardware concurrency, floor 1).
int ResolveWorkers(int requested);

/// Worker count from the NBRAFT_SWEEP_WORKERS environment variable
/// (positive integer, or "0"/unset/garbage => `fallback`). CI pins the
/// parallel jobs to nproc and the serial oracle job to 1 through this.
int WorkersFromEnv(int fallback);

/// Multi-core sweep scheduler. Workers share one atomic next-index and
/// each claims the lowest unclaimed task until none is left, so a worker
/// that draws short tasks simply claims more of them. Every task runs on
/// exactly one worker with a private seed stream, so the merged report — ordered by
/// task index, hashed by MergeResults — is byte-identical for any worker
/// count, and workers=1 reduces to a plain serial loop on the calling
/// thread.
///
/// Isolation contract: a task must confine itself to objects it creates
/// (its own Simulator/Cluster/ChaosRunner); the scheduler adds no locks
/// around task bodies. Exceptions escaping a task are caught and reported
/// on that task's SweepResult — one failing cell never kills the sweep.
class SweepScheduler {
 public:
  explicit SweepScheduler(SweepOptions options);

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Runs every task to completion and returns the merged report.
  /// Callable repeatedly (each call is an independent sweep).
  SweepReport Run(const std::vector<SweepTask>& tasks);

 private:
  SweepOptions options_;
};

}  // namespace nbraft::sweep

#endif  // NBRAFT_SWEEP_SCHEDULER_H_
