#include "storage/data_chunk.h"

namespace costdb {

ChunkView::ChunkView(const DataChunk& chunk) {
  columns_.reserve(chunk.num_columns());
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    columns_.push_back(&chunk.column(c));
  }
  rows_ = chunk.num_rows();
}

ChunkView::ChunkView(const std::vector<ColumnVector>& columns) {
  columns_.reserve(columns.size());
  for (const auto& c : columns) columns_.push_back(&c);
  rows_ = columns.empty() ? 0 : columns[0].size();
}

void ChunkView::AddColumn(const ColumnVector* column) {
  columns_.push_back(column);
  rows_ = column->size();
}

DataChunk::DataChunk(std::vector<LogicalType> types) {
  columns_.reserve(types.size());
  for (LogicalType t : types) columns_.emplace_back(t);
}

std::vector<LogicalType> DataChunk::Types() const {
  std::vector<LogicalType> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.type());
  return out;
}

void DataChunk::AppendRow(const std::vector<Value>& row) {
  for (size_t i = 0; i < columns_.size() && i < row.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
}

void DataChunk::Append(const DataChunk& other) {
  AppendRange(other, 0, other.num_rows());
}

void DataChunk::AppendRange(const DataChunk& other, size_t begin, size_t end) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRange(other.columns_[c], begin, end);
  }
}

void DataChunk::Slice(const std::vector<uint32_t>& sel) {
  for (auto& c : columns_) c = c.Gather(sel);
}

void DataChunk::AppendRowFrom(const DataChunk& other, size_t i) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.columns_[c], i);
  }
}

void DataChunk::AddColumn(ColumnVector column) {
  columns_.push_back(std::move(column));
}

void DataChunk::Clear() {
  for (auto& c : columns_) c.Clear();
}

std::string DataChunk::ToString(int64_t limit) const {
  std::string out;
  size_t n = num_rows();
  if (limit >= 0 && static_cast<size_t>(limit) < n) {
    n = static_cast<size_t>(limit);
  }
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[c].GetValue(r).ToString();
    }
    out += "\n";
  }
  if (n < num_rows()) {
    out += "... (" + std::to_string(num_rows() - n) + " more rows)\n";
  }
  return out;
}

}  // namespace costdb
