#ifndef NBRAFT_TSDB_INGEST_RECORD_H_
#define NBRAFT_TSDB_INGEST_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tsdb/encoding.h"

namespace nbraft::tsdb {

/// One sample destined for one series.
struct Measurement {
  uint64_t series_id = 0;
  Point point;

  friend bool operator==(const Measurement& a, const Measurement& b) {
    return a.series_id == b.series_id && a.point == b.point;
  }
};

/// Binary ingestion batch — the command format clients replicate through
/// the consensus log (the TPCx-IoT-style workload of the evaluation).
/// Layout: varint count, then (varint series_id, signed-varint timestamp,
/// fixed64 value bits) per measurement. A payload may carry trailing
/// padding up to the workload's requested size (parsers ignore it); the
/// workload adds it as a Buffer zero tail, not here.
///
/// Appends the record to `out`.
void EncodeIngestBatch(const std::vector<Measurement>& batch,
                       std::string* out);

/// Parses an ingestion batch (ignoring any bytes after the last
/// measurement) into `*out`, which is cleared first and keeps its
/// capacity, so a caller that parses every entry reuses one buffer. On
/// failure `*out` holds an unspecified prefix of the batch.
Status ParseIngestBatch(std::string_view data, std::vector<Measurement>* out);

}  // namespace nbraft::tsdb

#endif  // NBRAFT_TSDB_INGEST_RECORD_H_
