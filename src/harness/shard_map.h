#ifndef NBRAFT_HARNESS_SHARD_MAP_H_
#define NBRAFT_HARNESS_SHARD_MAP_H_

#include <cstdint>
#include <vector>

namespace nbraft::harness {

/// Static series -> consensus-group placement for a multi-Raft cluster:
/// FNV-1a over the series id, reduced modulo the group count. The map is
/// pure and stateless — two instances with the same group count agree on
/// every placement, which is what lets benches and tests compute shard
/// membership independently. Hash stability is pinned by shard_map_test:
/// changing the function is a data-placement migration, not a refactor.
class ShardMap {
 public:
  explicit ShardMap(int num_groups);

  int num_groups() const { return num_groups_; }

  /// Group owning a time-series id (hashes the 8 little-endian bytes, so
  /// dense integer ids still spread evenly).
  int GroupForSeries(uint64_t series_id) const;

  /// The shard of [0, series_count): every series id this group owns, in
  /// ascending order. Guaranteed non-empty (a degenerate universe smaller
  /// than the group count falls back to round-robin so each group still
  /// has a workload to ingest).
  std::vector<uint64_t> SeriesForGroup(int group,
                                       uint64_t series_count) const;

  /// Round-robin bootstrap placement: the replica ordinal that stands for
  /// the group's first election, spreading initial leaders across the
  /// physical nodes instead of piling them all on node 0.
  int BootstrapLeaderReplica(int group, int num_replicas) const {
    return num_replicas > 0 ? group % num_replicas : 0;
  }

 private:
  int num_groups_;
};

}  // namespace nbraft::harness

#endif  // NBRAFT_HARNESS_SHARD_MAP_H_
