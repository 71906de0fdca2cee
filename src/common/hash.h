#ifndef NBRAFT_COMMON_HASH_H_
#define NBRAFT_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace nbraft {

/// CRC32C (Castagnoli) over `data`, software table implementation. Used as
/// the log-entry checksum.
uint32_t Crc32c(std::string_view data);
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// FNV-1a 64-bit hash; cheap non-cryptographic hash for sharding keys.
uint64_t Fnv1a64(std::string_view data);

}  // namespace nbraft

#endif  // NBRAFT_COMMON_HASH_H_
