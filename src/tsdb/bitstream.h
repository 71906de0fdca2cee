#ifndef NBRAFT_TSDB_BITSTREAM_H_
#define NBRAFT_TSDB_BITSTREAM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace nbraft::tsdb {

/// MSB-first bit writer backing the time-series encoders. Bits gather in a
/// 64-bit word that is appended to the output 8 bytes at a time, so the
/// output holds only whole words until Finish() flushes the tail.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Writes the low `bits` bits of `value`, most significant first.
  /// `bits` must be in [0, 64]. Defined here so the encoders' per-field
  /// calls inline; only a completed word leaves the inline path.
  void Write(uint64_t value, int bits) {
    NBRAFT_CHECK_GE(bits, 0);
    NBRAFT_CHECK_LE(bits, 64);
    if (bits == 0) return;
    bit_count_ += static_cast<size_t>(bits);
    if (bits < 64) value &= (~uint64_t{0}) >> (64 - bits);
    if (filled_ + bits < 64) {
      word_ = (word_ << bits) | value;
      filled_ += bits;
      return;
    }
    // Complete the word with the high bits of `value`, keep the rest.
    const int rest = filled_ + bits - 64;
    AppendBigEndian(
        filled_ == 0 ? value : (word_ << (64 - filled_)) | (value >> rest), 8);
    word_ = rest == 0 ? 0 : value & ((~uint64_t{0}) >> (64 - rest));
    filled_ = rest;
  }

  void WriteBit(bool bit) { Write(bit ? 1 : 0, 1); }

  /// Pads the final partial byte with zeros. Must be called exactly once,
  /// after the last Write.
  void Finish();

  /// Bits written so far (excluding padding).
  size_t bit_count() const { return bit_count_; }

 private:
  /// Appends the top `bytes` bytes of `word`, most significant first.
  void AppendBigEndian(uint64_t word, int bytes);

  std::string* out_;
  uint64_t word_ = 0;  // Pending bits, right-aligned.
  int filled_ = 0;     // Bits used in word_, in [0, 63].
  size_t bit_count_ = 0;
};

/// MSB-first bit reader.
class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  /// Reads `bits` bits into the low bits of the result. Returns false on
  /// exhausted input. `bits` must be in [0, 64].
  bool Read(uint64_t* value, int bits);

  bool ReadBit(bool* bit);

  size_t bits_consumed() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;  // Bit position.
};

}  // namespace nbraft::tsdb

#endif  // NBRAFT_TSDB_BITSTREAM_H_
