#include "harness/workload.h"

#include <cmath>

namespace nbraft::harness {

IngestWorkload::IngestWorkload(Options options, uint64_t seed)
    : options_(std::move(options)),
      rng_(seed),
      clock_ms_(options_.start_timestamp_ms) {
  const uint64_t domain = options_.series_ids.empty()
                              ? options_.series_count
                              : options_.series_ids.size();
  if (options_.zipf_skew > 0.0) {
    zipf_ = std::make_unique<ZipfDistribution>(domain, options_.zipf_skew);
  }
}

nbraft::Buffer IngestWorkload::MakePayload(size_t target_size) {
  ++requests_;
  batch_.clear();
  // The slow sine wave every sensor rides on; one value per request.
  const double wave =
      20.0 + 5.0 * std::sin(static_cast<double>(requests_) / 100.0);
  for (int i = 0; i < options_.measurements_per_request; ++i) {
    tsdb::Measurement m;
    const uint64_t domain = options_.series_ids.empty()
                                ? options_.series_count
                                : options_.series_ids.size();
    const uint64_t ordinal =
        zipf_ != nullptr ? zipf_->Sample(&rng_) : rng_.NextBounded(domain);
    m.series_id = options_.series_ids.empty() ? ordinal
                                              : options_.series_ids[ordinal];
    // Mild timestamp jitter around the sampling interval, as real devices
    // exhibit (cf. the paper's imputation discussion in Sec. IV).
    m.point.timestamp =
        clock_ms_ + static_cast<int64_t>(rng_.NextBounded(
                        static_cast<uint64_t>(options_.sampling_interval_ms)));
    m.point.value = wave + rng_.NextGaussian(0.0, 0.25);
    batch_.push_back(m);
  }
  clock_ms_ += options_.sampling_interval_ms;

  std::string record;
  tsdb::EncodeIngestBatch(batch_, &record);
  return nbraft::Buffer(std::move(record), target_size);
}

}  // namespace nbraft::harness
