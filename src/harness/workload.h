#ifndef NBRAFT_HARNESS_WORKLOAD_H_
#define NBRAFT_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "tsdb/ingest_record.h"

namespace nbraft::harness {

/// TPCx-IoT-style ingestion workload: each request is a batch of sensor
/// measurements for a fleet of devices/series, padded to the experiment's
/// payload size. Timestamps advance at a fixed sampling interval with small
/// jitter; series popularity can be skewed (Zipf) as in real IoT fleets.
class IngestWorkload {
 public:
  struct Options {
    uint64_t series_count = 1000;
    int64_t start_timestamp_ms = 1'600'000'000'000;
    int64_t sampling_interval_ms = 1000;  ///< ~1 Hz sensors (paper Sec. V-G).
    double zipf_skew = 0.0;               ///< 0 = uniform series popularity.
    int measurements_per_request = 16;
    /// Explicit series universe: when non-empty, the sampled ordinal
    /// indexes into this vector instead of [0, series_count). Multi-Raft
    /// sharding uses it to hand each consensus group exactly the series
    /// the ShardMap hashes to it. Empty (the default) generates over
    /// [0, series_count) with draws identical to the pre-sharding code.
    std::vector<uint64_t> series_ids;
  };

  IngestWorkload(Options options, uint64_t seed);

  /// Builds one request payload of max(natural, target_size) bytes. Only
  /// the encoded batch is stored (~255 bytes at 16 measurements); the
  /// padding is the Buffer's zero tail, never allocated or written.
  nbraft::Buffer MakePayload(size_t target_size);

  uint64_t requests_generated() const { return requests_; }

 private:
  Options options_;
  nbraft::Rng rng_;
  std::unique_ptr<ZipfDistribution> zipf_;
  int64_t clock_ms_;
  uint64_t requests_ = 0;
  std::vector<tsdb::Measurement> batch_;  ///< Reused by MakePayload.
};

}  // namespace nbraft::harness

#endif  // NBRAFT_HARNESS_WORKLOAD_H_
