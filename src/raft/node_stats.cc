#include "raft/node_stats.h"

#include <cstdio>

namespace nbraft::raft {

std::string NodeStats::ToJson() const {
  auto counter = [](const char* name, uint64_t value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu,", name,
                  static_cast<unsigned long long>(value));
    return std::string(buf);
  };
  std::string out = "{";
  out += counter("group", static_cast<uint64_t>(group));
  out += counter("replica", static_cast<uint64_t>(replica));
  out += counter("entries_appended", entries_appended);
  out += counter("entries_committed", entries_committed);
  out += counter("entries_applied", entries_applied);
  out += counter("weak_accepts_sent", weak_accepts_sent);
  out += counter("strong_accepts_sent", strong_accepts_sent);
  out += counter("mismatches_sent", mismatches_sent);
  out += counter("window_inserts", window_inserts);
  out += counter("window_overflows", window_overflows);
  out += counter("elections_started", elections_started);
  out += counter("times_elected", times_elected);
  out += counter("terms_started", terms_started);
  out += counter("prevotes_granted", prevotes_granted);
  out += counter("prevotes_rejected", prevotes_rejected);
  out += counter("leader_depositions", leader_depositions);
  out += counter("checkquorum_stepdowns", checkquorum_stepdowns);
  out += counter("rpc_timeouts", rpc_timeouts);
  out += counter("degraded_entries", degraded_entries);
  out += counter("snapshots_taken", snapshots_taken);
  out += counter("snapshots_sent", snapshots_sent);
  out += counter("snapshots_installed", snapshots_installed);
  out += counter("config_changes", config_changes);
  out += counter("learners_promoted", learners_promoted);
  out += counter("transfers", transfers);
  out += counter("learner_gap_max", learner_gap_max);
  out += counter("fsyncs_completed", fsyncs_completed);
  out += counter("disk_bytes_written", disk_bytes_written);
  out += counter("storage_failures", storage_failures);
  out += counter("recoveries", recoveries);
  out += counter("append_rpcs_sent", append_rpcs_sent);
  out += counter("append_entries_sent", append_entries_sent);
  out += "\"wait_hist\":" + wait_hist.ToJson() + ",";
  out += "\"append_latency\":" + append_latency.ToJson() + ",";
  out += "\"breakdown\":" + breakdown.ToJson();
  out += "}";
  return out;
}

}  // namespace nbraft::raft
