#include "tsdb/ingest_record.h"

#include <cstring>

#include "common/varint.h"

namespace nbraft::tsdb {

namespace {

uint64_t DoubleToBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsToDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

}  // namespace

void EncodeIngestBatch(const std::vector<Measurement>& batch,
                       std::string* out) {
  // Worst case per measurement: two 10-byte varints and a fixed64. Reserving
  // it makes the record one allocation.
  out->reserve(out->size() + 10 + batch.size() * 28);
  PutVarint64(out, batch.size());
  for (const Measurement& m : batch) {
    PutVarint64(out, m.series_id);
    PutVarintSigned64(out, m.point.timestamp);
    PutFixed64(out, DoubleToBits(m.point.value));
  }
}

Status ParseIngestBatch(std::string_view data, std::vector<Measurement>* out) {
  out->clear();
  uint64_t count = 0;
  if (!GetVarint64(&data, &count)) {
    return Status::Corruption("ingest batch: truncated count");
  }
  // A measurement takes at least 10 bytes (two 1-byte varints and a
  // fixed64), so a larger count is corrupt; rejecting it here keeps the
  // reserve below proportional to the input.
  if (count > data.size() / 10) {
    return Status::Corruption("ingest batch: implausible count");
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Measurement m;
    uint64_t value_bits = 0;
    if (!GetVarint64(&data, &m.series_id) ||
        !GetVarintSigned64(&data, &m.point.timestamp) ||
        !GetFixed64(&data, &value_bits)) {
      return Status::Corruption("ingest batch: truncated measurement");
    }
    m.point.value = BitsToDouble(value_bits);
    out->push_back(m);
  }
  return Status::Ok();
}

}  // namespace nbraft::tsdb
