#include "common/hash.h"

namespace nbraft {

namespace {

struct Crc32cTable {
  uint32_t t[256];
  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82f63b78;  // Castagnoli, reflected.
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

const Crc32cTable& GetCrcTable() {
  static const Crc32cTable* table = new Crc32cTable();
  return *table;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  const auto& table = GetCrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data.data(), data.size());
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace nbraft
