// Content digests for caching: a splitmix64-chained hash over raw bytes or
// double bit patterns. Used to key the service's ResultCache. Digests are
// *hints*, never proofs: every consumer verifies a digest match with a full
// bitwise compare before sharing state, so a collision can cost a cache
// slot but never an answer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/rng.h"

namespace rfly {

/// Fold one 64-bit word into a running digest. The splitmix64 finalizer
/// avalanches every input bit across the state, so nearby inputs (adjacent
/// grid extents, shifted waypoints) land far apart.
constexpr std::uint64_t digest_word(std::uint64_t state, std::uint64_t word) {
  return splitmix64(state ^ word);
}

/// Digest a double by bit pattern (not value): -0.0 and +0.0 differ, NaNs
/// hash by payload. Bit-pattern keys match the bit-identity discipline —
/// two inputs share cached state only when they are the same bits.
inline std::uint64_t digest_double(std::uint64_t state, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return digest_word(state, bits);
}

/// Digest a contiguous double array by bit pattern.
inline std::uint64_t digest_doubles(std::uint64_t state, const double* values,
                                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) state = digest_double(state, values[i]);
  return state;
}

/// Digest raw bytes, 8 at a time with a length-tagged tail so "ab" + "c"
/// and "a" + "bc" cannot collide by concatenation.
inline std::uint64_t digest_bytes(std::uint64_t state, const void* data,
                                  std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, 8);
    state = digest_word(state, word);
    bytes += 8;
    size -= 8;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes, size);
  return digest_word(state, tail ^ (std::uint64_t{size} << 56));
}

inline std::uint64_t digest_string(std::uint64_t state, std::string_view text) {
  return digest_bytes(state, text.data(), text.size());
}

}  // namespace rfly
