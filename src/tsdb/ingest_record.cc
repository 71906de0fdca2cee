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
                       size_t target_size, std::string* out) {
  const size_t start = out->size();
  // A padded record is target_size bytes, so this is its one allocation.
  out->reserve(start + target_size);
  PutVarint64(out, batch.size());
  for (const Measurement& m : batch) {
    PutVarint64(out, m.series_id);
    PutVarintSigned64(out, m.point.timestamp);
    PutFixed64(out, DoubleToBits(m.point.value));
  }
  const size_t natural = out->size() - start;
  if (target_size > natural) {
    out->append(target_size - natural, '\0');
  }
}

Status ParseIngestBatch(std::string_view data, std::vector<Measurement>* out) {
  out->clear();
  uint64_t count = 0;
  if (!GetVarint64(&data, &count)) {
    return Status::Corruption("ingest batch: truncated count");
  }
  if (count > data.size()) {  // Each measurement needs >= 10 bytes; coarse.
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
