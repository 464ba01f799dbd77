#include "storage/column_vector.h"

namespace costdb {

size_t ColumnVector::size() const {
  switch (physical_type()) {
    case PhysicalType::kInt64:
      return ints_.size();
    case PhysicalType::kDouble:
      return doubles_.size();
    case PhysicalType::kString:
      return strings_.size();
  }
  return 0;
}

void ColumnVector::Reserve(size_t n) {
  switch (physical_type()) {
    case PhysicalType::kInt64:
      ints_.reserve(n);
      break;
    case PhysicalType::kDouble:
      doubles_.reserve(n);
      break;
    case PhysicalType::kString:
      strings_.reserve(n);
      break;
  }
}

void ColumnVector::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  valid_.clear();
}

void ColumnVector::EnsureValidity() {
  if (valid_.empty()) valid_.assign(size(), 1);
}

std::vector<uint8_t>& ColumnVector::MutableValidity() {
  EnsureValidity();
  return valid_;
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (physical_type()) {
    case PhysicalType::kInt64:
      AppendInt(v.is_double() ? static_cast<int64_t>(v.AsDouble()) : v.AsInt());
      break;
    case PhysicalType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case PhysicalType::kString:
      AppendString(v.AsString());
      break;
  }
}

void ColumnVector::AppendNull() {
  EnsureValidity();
  switch (physical_type()) {
    case PhysicalType::kInt64:
      ints_.push_back(0);
      break;
    case PhysicalType::kDouble:
      doubles_.push_back(0.0);
      break;
    case PhysicalType::kString:
      strings_.emplace_back();
      break;
  }
  valid_.push_back(0);
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (physical_type()) {
    case PhysicalType::kInt64:
      return Value(ints_[i]);
    case PhysicalType::kDouble:
      return Value(doubles_[i]);
    case PhysicalType::kString:
      return Value(strings_[i]);
  }
  return Value::Null();
}

namespace {

/// dst[k] = src[sel[k]] into a fresh vector: indexed stores, no per-row
/// capacity check.
template <typename T>
std::vector<T> GatherFlat(const std::vector<T>& src,
                          const std::vector<uint32_t>& sel) {
  std::vector<T> dst(sel.size());
  for (size_t k = 0; k < sel.size(); ++k) dst[k] = src[sel[k]];
  return dst;
}

}  // namespace

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  ColumnVector out(type_);
  switch (physical_type()) {
    case PhysicalType::kInt64:
      out.ints_ = GatherFlat(ints_, sel);
      break;
    case PhysicalType::kDouble:
      out.doubles_ = GatherFlat(doubles_, sel);
      break;
    case PhysicalType::kString:
      out.strings_.reserve(sel.size());
      for (uint32_t i : sel) out.strings_.push_back(strings_[i]);
      break;
  }
  if (!valid_.empty()) out.valid_ = GatherFlat(valid_, sel);
  return out;
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t i) {
  const size_t old_rows = size();
  switch (physical_type()) {
    case PhysicalType::kInt64:
      ints_.push_back(other.ints_[i]);
      break;
    case PhysicalType::kDouble:
      doubles_.push_back(other.doubles_[i]);
      break;
    case PhysicalType::kString:
      strings_.push_back(other.strings_[i]);
      break;
  }
  const bool null = other.IsNull(i);
  if (null || !valid_.empty()) {
    if (valid_.empty()) valid_.assign(old_rows, 1);
    valid_.push_back(null ? 0 : 1);
  }
}

void ColumnVector::AppendRange(const ColumnVector& other, size_t begin,
                               size_t end) {
  if (begin >= end) return;
  const size_t old_rows = size();
  switch (physical_type()) {
    case PhysicalType::kInt64:
      ints_.insert(ints_.end(), other.ints_.begin() + begin,
                   other.ints_.begin() + end);
      break;
    case PhysicalType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin() + begin,
                      other.doubles_.begin() + end);
      break;
    case PhysicalType::kString:
      strings_.insert(strings_.end(), other.strings_.begin() + begin,
                      other.strings_.begin() + end);
      break;
  }
  if (other.valid_.empty() && valid_.empty()) return;
  if (valid_.empty()) valid_.assign(old_rows, 1);
  if (other.valid_.empty()) {
    valid_.resize(size(), 1);
  } else {
    valid_.insert(valid_.end(), other.valid_.begin() + begin,
                  other.valid_.begin() + end);
  }
}

}  // namespace costdb
