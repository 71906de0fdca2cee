#include "tsdb/bitstream.h"

#include "common/logging.h"

namespace nbraft::tsdb {

void BitWriter::AppendBigEndian(uint64_t word, int bytes) {
  char buf[8];
  for (int i = 0; i < bytes; ++i) {
    buf[i] = static_cast<char>(word >> (56 - 8 * i));
  }
  out_->append(buf, static_cast<size_t>(bytes));
}

void BitWriter::Finish() {
  if (filled_ > 0) {
    AppendBigEndian(word_ << (64 - filled_), (filled_ + 7) / 8);
    word_ = 0;
    filled_ = 0;
  }
}

bool BitReader::Read(uint64_t* value, int bits) {
  NBRAFT_CHECK_GE(bits, 0);
  NBRAFT_CHECK_LE(bits, 64);
  if (pos_ + static_cast<size_t>(bits) > data_.size() * 8) return false;
  uint64_t v = 0;
  int remaining = bits;
  while (remaining > 0) {
    const size_t byte = pos_ >> 3;
    const int avail = 8 - static_cast<int>(pos_ & 7);
    const int take = remaining < avail ? remaining : avail;
    const uint8_t cur = static_cast<uint8_t>(data_[byte]);
    const uint8_t chunk = static_cast<uint8_t>(
        (cur >> (avail - take)) & ((uint32_t{1} << take) - 1));
    v = (v << take) | chunk;
    pos_ += static_cast<size_t>(take);
    remaining -= take;
  }
  *value = v;
  return true;
}

bool BitReader::ReadBit(bool* bit) {
  uint64_t v = 0;
  if (!Read(&v, 1)) return false;
  *bit = v != 0;
  return true;
}

}  // namespace nbraft::tsdb
