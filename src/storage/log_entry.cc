#include "storage/log_entry.h"

#include <cstdio>

#include "common/hash.h"
#include "common/varint.h"

namespace nbraft::storage {

namespace {

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

size_t VarintSignedLen(int64_t v) { return VarintLen(ZigZagEncode(v)); }

}  // namespace

size_t LogEntry::EncodedSize() const {
  const size_t body =
      VarintSignedLen(index) + VarintSignedLen(term) +
      VarintSignedLen(prev_term) + VarintSignedLen(client_id) +
      VarintLen(request_id) + VarintSignedLen(frag_shard) +
      VarintLen(frag_k) + VarintLen(full_size) + VarintLen(payload.size()) +
      payload.size();
  return VarintLen(body) + body + 4;  // Length prefix + body + CRC32C.
}

void LogEntry::EncodeTo(std::string* out) const {
  std::string body;
  PutVarintSigned64(&body, index);
  PutVarintSigned64(&body, term);
  PutVarintSigned64(&body, prev_term);
  PutVarintSigned64(&body, client_id);
  PutVarint64(&body, request_id);
  PutVarintSigned64(&body, frag_shard);
  PutVarint64(&body, frag_k);
  PutVarint64(&body, full_size);
  PutVarint64(&body, payload.size());
  const std::string_view stored = payload.view();
  body.append(stored);
  body.append(payload.size() - stored.size(), '\0');  // The zero tail.

  PutVarint64(out, body.size());
  *out += body;
  PutFixed32(out, Crc32c(body));
}

Result<LogEntry> LogEntry::DecodeFrom(std::string_view* in) {
  uint64_t body_len = 0;
  if (!GetVarint64(in, &body_len)) {
    return Status::Corruption("log entry: truncated length");
  }
  if (in->size() < body_len + 4) {
    return Status::Corruption("log entry: truncated body");
  }
  std::string_view body = in->substr(0, body_len);
  std::string_view rest = in->substr(body_len);
  uint32_t stored_crc = 0;
  if (!GetFixed32(&rest, &stored_crc)) {
    return Status::Corruption("log entry: truncated crc");
  }
  if (Crc32c(body) != stored_crc) {
    return Status::Corruption("log entry: crc mismatch");
  }

  LogEntry entry;
  int64_t client_id = 0;
  int64_t frag_shard = 0;
  uint64_t frag_k = 0;
  uint64_t payload_len = 0;
  if (!GetVarintSigned64(&body, &entry.index) ||
      !GetVarintSigned64(&body, &entry.term) ||
      !GetVarintSigned64(&body, &entry.prev_term) ||
      !GetVarintSigned64(&body, &client_id) ||
      !GetVarint64(&body, &entry.request_id) ||
      !GetVarintSigned64(&body, &frag_shard) ||
      !GetVarint64(&body, &frag_k) || !GetVarint64(&body, &entry.full_size) ||
      !GetVarint64(&body, &payload_len) || body.size() != payload_len) {
    return Status::Corruption("log entry: malformed body");
  }
  entry.client_id = static_cast<net::NodeId>(client_id);
  entry.frag_shard = static_cast<int32_t>(frag_shard);
  entry.frag_k = static_cast<uint32_t>(frag_k);
  entry.payload = nbraft::Buffer(body);
  *in = rest;
  return entry;
}

std::string LogEntry::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%lld,%lld,%lld)",
                static_cast<long long>(index), static_cast<long long>(term),
                static_cast<long long>(prev_term));
  return buf;
}

LogEntry MakeEntry(LogIndex index, Term term, Term prev_term,
                   std::string payload) {
  LogEntry e;
  e.index = index;
  e.term = term;
  e.prev_term = prev_term;
  e.payload = std::move(payload);
  return e;
}

}  // namespace nbraft::storage
