#include "harness/shard_map.h"

#include <string_view>

#include "common/hash.h"
#include "common/logging.h"

namespace nbraft::harness {

ShardMap::ShardMap(int num_groups) : num_groups_(num_groups) {
  NBRAFT_CHECK_GE(num_groups_, 1);
}

int ShardMap::GroupForSeries(uint64_t series_id) const {
  if (num_groups_ == 1) return 0;
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((series_id >> (i * 8)) & 0xff);
  }
  const uint64_t h = Fnv1a64(std::string_view(bytes, sizeof(bytes)));
  return static_cast<int>(h % static_cast<uint64_t>(num_groups_));
}

std::vector<uint64_t> ShardMap::SeriesForGroup(int group,
                                               uint64_t series_count) const {
  std::vector<uint64_t> shard;
  for (uint64_t s = 0; s < series_count; ++s) {
    if (GroupForSeries(s) == group) shard.push_back(s);
  }
  if (shard.empty() && series_count > 0) {
    // Degenerate universe (fewer series than hash luck provides): fall
    // back to round-robin so the group still has something to ingest.
    shard.push_back(static_cast<uint64_t>(group) % series_count);
  }
  return shard;
}

}  // namespace nbraft::harness
