#include "catalog/hll.h"

#include <algorithm>
#include <cmath>

namespace costdb {

HyperLogLog::HyperLogLog(int precision)
    : precision_(precision),
      num_registers_(1ULL << precision),
      registers_(num_registers_, 0) {}

void HyperLogLog::AddHash(uint64_t hash) {
  const uint64_t idx = hash >> (64 - precision_);
  const uint64_t rest = hash << precision_;
  // Rank = leading zeros of the remaining bits + 1, capped.
  uint8_t rank;
  if (rest == 0) {
    rank = static_cast<uint8_t>(64 - precision_ + 1);
  } else {
    rank = static_cast<uint8_t>(__builtin_clzll(rest) + 1);
  }
  if (rank > registers_[idx]) registers_[idx] = rank;
}

void HyperLogLog::AddInt(int64_t v) { AddHash(HashInt64(v)); }
void HyperLogLog::AddDouble(double v) { AddHash(HashDouble(v)); }
void HyperLogLog::AddString(const std::string& v) { AddHash(HashString(v)); }

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(num_registers_);
  double alpha;
  if (num_registers_ >= 128) {
    alpha = 0.7213 / (1.0 + 1.079 / m);
  } else if (num_registers_ == 64) {
    alpha = 0.709;
  } else if (num_registers_ == 32) {
    alpha = 0.697;
  } else {
    alpha = 0.673;
  }
  double sum = 0.0;
  uint64_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -r);
    if (r == 0) ++zeros;
  }
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    // Linear counting for the small range.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) return;
  for (uint64_t i = 0; i < num_registers_; ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

}  // namespace costdb
