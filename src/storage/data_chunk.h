#pragma once

#include <vector>

#include "storage/column_vector.h"

namespace costdb {

class DataChunk;

/// A non-owning, read-only view over a set of ColumnVectors — what the
/// vectorized kernels consume. Lets the scan evaluate predicates directly
/// on row-group storage (no copy) and materialize only surviving rows.
/// Implicitly convertible from DataChunk so every evaluator entry point
/// accepts either.
class ChunkView {
 public:
  ChunkView() = default;
  ChunkView(const DataChunk& chunk);  // NOLINT: implicit borrow intended
  ChunkView(const std::vector<ColumnVector>& columns);  // NOLINT: same
  /// A view of `num_rows` rows and no columns yet — what a constant-only
  /// expression evaluates over.
  explicit ChunkView(size_t num_rows) : rows_(num_rows) {}

  /// Borrow an already-materialized column. All columns must have the same
  /// row count.
  void AddColumn(const ColumnVector* column);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return rows_; }
  const ColumnVector& column(size_t i) const { return *columns_[i]; }

 private:
  std::vector<const ColumnVector*> columns_;
  size_t rows_ = 0;
};

/// A horizontal slice of rows across a set of columns — the unit flowing
/// between operators in the push-based engine (DuckDB-style).
class DataChunk {
 public:
  DataChunk() = default;
  explicit DataChunk(std::vector<LogicalType> types);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  ColumnVector& column(size_t i) { return columns_[i]; }
  const ColumnVector& column(size_t i) const { return columns_[i]; }

  std::vector<LogicalType> Types() const;

  /// Append a full row of values (testing / tiny-data convenience).
  void AppendRow(const std::vector<Value>& row);

  /// Append all rows of `other` (same layout). Bulk column copies.
  void Append(const DataChunk& other);

  /// Bulk-append rows [begin, end) of `other` (same layout) — the morsel
  /// slicer for materialized pipeline sources.
  void AppendRange(const DataChunk& other, size_t begin, size_t end);

  /// Keep only rows in `sel`.
  void Slice(const std::vector<uint32_t>& sel);

  /// Append row `i` of `other` to this chunk.
  void AppendRowFrom(const DataChunk& other, size_t i);

  /// Add an already-built column (layout construction).
  void AddColumn(ColumnVector column);

  void Clear();

  /// Rows as printable strings; head rows only when `limit` >= 0.
  std::string ToString(int64_t limit = 10) const;

 private:
  std::vector<ColumnVector> columns_;
};

}  // namespace costdb
