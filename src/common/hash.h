#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace costdb {

// 64-bit mix hashes shared by the HyperLogLog sketch, the join and GROUP BY
// hash tables, shuffle and table partitioning, and the simulator's seeded
// noise. Header-only so the per-row loops of kernels::HashRows inline them.
// The values are part of the program's observable behavior (shuffle buckets,
// partition placement, result digests): never change a body.

inline uint64_t HashInt64(int64_t v) {
  uint64_t x = static_cast<uint64_t>(v);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashDouble(double v) {
  if (v == 0.0) v = 0.0;  // normalize -0.0
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashInt64(static_cast<int64_t>(bits));
}

inline uint64_t HashString(const std::string& v) {
  // FNV-1a with a finalizer mix.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : v) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return HashInt64(static_cast<int64_t>(h));
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return HashInt64(static_cast<int64_t>(a ^ (b + 0x9e3779b97f4a7c15ULL +
                                             (a << 6) + (a >> 2))));
}

}  // namespace costdb
