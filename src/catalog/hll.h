#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"

namespace costdb {

/// HyperLogLog distinct-count sketch (p = 12, 4096 registers, ~1.6% typical
/// error). Backs the NDV statistics the optimizer's join cardinality model
/// and the tuning advisors rely on.
class HyperLogLog {
 public:
  explicit HyperLogLog(int precision = 12);

  void AddInt(int64_t v);
  void AddDouble(double v);
  void AddString(const std::string& v);
  void AddHash(uint64_t hash);

  /// Estimated number of distinct values added.
  double Estimate() const;

  /// Merge another sketch (same precision) into this one.
  void Merge(const HyperLogLog& other);

  int precision() const { return precision_; }

 private:
  int precision_;
  uint64_t num_registers_;
  std::vector<uint8_t> registers_;
};

}  // namespace costdb
