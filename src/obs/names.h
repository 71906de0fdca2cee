#ifndef NBRAFT_OBS_NAMES_H_
#define NBRAFT_OBS_NAMES_H_

#include <cstddef>

namespace nbraft::obs::names {

/// Canonical metric / journal vocabulary.
///
/// Every user-visible observability name — sampler pull sources and
/// journal event kinds — follows one scheme:
///
///     subsystem.noun_verb[.nodeN]
///
/// where `subsystem` is one of {net, raft, election, storage, client,
/// chaos, sim, membership}
/// and the optional `.nodeN` suffix scopes a per-replica series. The
/// constants below are the single source of truth for sampler names;
/// journal kinds are named by obs::Journal::KindName. The
/// conformance tests (tests/obs/journal_test.cc) walk both to pin the
/// scheme. DESIGN section "2e. Observability pipeline" documents each
/// name's meaning.

// ---- Sampler pull sources (cluster-wide) ----
inline constexpr char kWindowOccupancy[] = "raft.window_occupancy";
inline constexpr char kCommitIndexMax[] = "raft.commit_index_max";
inline constexpr char kApplyLag[] = "raft.apply_lag";
inline constexpr char kDispatcherQueueDepth[] = "raft.dispatcher_queue_depth";
inline constexpr char kRpcsInflight[] = "raft.rpcs_inflight";
inline constexpr char kNicBytesSent[] = "net.bytes_sent";

// ---- Sampler pull sources (per-node; suffixed ".nodeN" at registration)
inline constexpr char kWindowOccupancyNode[] = "raft.window_occupancy";
inline constexpr char kBarriersPending[] = "storage.barriers_pending";
inline constexpr char kReplicationLag[] = "raft.replication_lag";
inline constexpr char kCpuQueueDepth[] = "sim.cpu_queue_depth";
inline constexpr char kIoQueueDepth[] = "sim.io_queue_depth";

/// Every fixed name above, for the scheme-conformance test.
inline constexpr const char* kAllNames[] = {
    kWindowOccupancy,      kCommitIndexMax, kApplyLag,
    kDispatcherQueueDepth, kRpcsInflight,   kNicBytesSent,
    kBarriersPending,      kReplicationLag, kCpuQueueDepth,
    kIoQueueDepth,
};

inline constexpr size_t kAllNamesCount =
    sizeof(kAllNames) / sizeof(kAllNames[0]);

}  // namespace nbraft::obs::names

#endif  // NBRAFT_OBS_NAMES_H_
