#include "storage/partition.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace costdb {

const char* PartitionKindName(PartitionKind k) {
  switch (k) {
    case PartitionKind::kNone:
      return "none";
    case PartitionKind::kHash:
      return "hash";
    case PartitionKind::kRange:
      return "range";
  }
  return "?";
}

size_t HashPartitionOf(const Value& value, size_t partitions) {
  if (partitions <= 1) return 0;
  if (value.is_null()) return 0;
  uint64_t h;
  if (value.is_string()) {
    h = HashString(value.AsString());
  } else {
    // Normalize numerics so an int64 key buckets with the double it joins
    // with, and the two equal zeros bucket together.
    double d = value.AsDouble();
    if (d == 0.0) d = 0.0;
    h = HashDouble(d);
  }
  return static_cast<size_t>(h % static_cast<uint64_t>(partitions));
}

namespace {

/// Partition id per row for a range spec: equi-depth buckets of the sorted
/// key values (ties stay in one bucket, so equal keys never straddle a
/// partition boundary). Hardened for heavily-duplicated and all-equal key
/// columns, where partitions > distinct keys leaves some partitions empty:
///  - a tie run larger than its equi-depth share is consumed whole by the
///    partition it starts in (one linear sweep total, not a rescan per
///    partition, so an all-equal column is O(n), not O(n * partitions));
///  - a partition whose share was swallowed by an earlier tie run stays
///    empty rather than stealing rows from the next run;
///  - NULL keys sort first (Value ordering) and compare equal to each
///    other, so they form one tie run owned by a single partition.
std::vector<size_t> RangeBuckets(const ColumnVector& key, size_t partitions) {
  const size_t n = key.size();
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return key.GetValue(a) < key.GetValue(b);
  });
  std::vector<size_t> bucket(n, 0);
  size_t pos = 0;
  for (size_t p = 0; p < partitions && pos < n; ++p) {
    size_t end = (p + 1) * n / partitions;
    // A partition whose equi-depth share was already consumed by an
    // earlier partition's tie run contributes no rows (it must not grab
    // the *next* run and shift every later boundary).
    if (end <= pos) continue;
    // Grow the bucket until the value changes so equal keys stay together.
    while (end < n &&
           key.GetValue(order[end]) == key.GetValue(order[end - 1])) {
      ++end;
    }
    for (; pos < end; ++pos) bucket[order[pos]] = p;
  }
  return bucket;
}

}  // namespace

Status PartitionTable(Table* table, const PartitionSpec& spec) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (spec.kind == PartitionKind::kNone) {
    return Status::InvalidArgument("PartitionTable requires a hash or range spec");
  }
  if (spec.partitions == 0) {
    return Status::InvalidArgument("partition count must be positive");
  }
  if (table->persistent()) {
    // Repartitioning would rewrite every cold run; persistent tables keep
    // their LSM scan order and shard across workers by contiguous
    // row-group shares instead.
    return Status::NotSupported(
        "PartitionTable: table '" + table->name() +
        "' has persistent storage attached");
  }
  size_t key_col = 0;
  COSTDB_ASSIGN_OR_RETURN(key_col, table->ColumnIndex(spec.column));

  std::vector<LogicalType> types;
  for (const auto& c : table->columns()) types.push_back(c.type);

  // Range buckets need the global key distribution; materialize just the
  // key column (one column, not the whole table).
  std::vector<size_t> range_bucket_of;
  if (spec.kind == PartitionKind::kRange) {
    ColumnVector all_keys(table->columns()[key_col].type);
    for (const auto& g : table->row_groups()) {
      all_keys.AppendRange(g.data.column(key_col), 0, g.num_rows());
    }
    range_bucket_of = RangeBuckets(all_keys, spec.partitions);
  }

  // Bucket row group by row group into per-partition accumulators — the
  // one full copy this rebuild makes (the original groups are dropped
  // before the table is refilled, bounding peak memory near 2x). Stable:
  // rows keep their relative order inside a partition, so repartitioning
  // is deterministic and idempotent.
  std::vector<DataChunk> parts(spec.partitions);
  for (auto& pc : parts) pc = DataChunk(types);
  size_t row_offset = 0;
  for (const auto& g : table->row_groups()) {
    const size_t rows = g.num_rows();
    const ColumnVector& key = g.data.column(key_col);
    std::vector<std::vector<uint32_t>> sel(spec.partitions);
    for (size_t r = 0; r < rows; ++r) {
      const size_t p = spec.kind == PartitionKind::kHash
                           ? HashPartitionOf(key.GetValue(r), spec.partitions)
                           : range_bucket_of[row_offset + r];
      sel[p].push_back(static_cast<uint32_t>(r));
    }
    for (size_t p = 0; p < spec.partitions; ++p) {
      if (sel[p].empty()) continue;
      DataChunk gathered(types);
      for (size_t c = 0; c < g.data.num_columns(); ++c) {
        gathered.column(c) = g.data.column(c).Gather(sel[p]);
      }
      parts[p].Append(gathered);
    }
    row_offset += rows;
  }

  auto partitioning = std::make_shared<TablePartitioning>();
  partitioning->spec = spec;
  partitioning->group_begin.reserve(spec.partitions + 1);

  table->ClearRows();
  for (size_t p = 0; p < spec.partitions; ++p) {
    partitioning->group_begin.push_back(table->row_groups().size());
    if (parts[p].num_rows() == 0) continue;
    table->Append(parts[p]);
    table->SealLastRowGroup();  // next partition starts a fresh row group
    parts[p].Clear();           // release the accumulator as we go
  }
  partitioning->group_begin.push_back(table->row_groups().size());
  table->SetPartitioning(std::move(partitioning));
  return Status::OK();
}

std::pair<size_t, size_t> WorkerShare(size_t total, size_t worker,
                                      size_t workers) {
  if (workers == 0) return {0, 0};
  size_t begin = worker * total / workers;
  size_t end = (worker + 1) * total / workers;
  return {begin, std::max(begin, end)};
}

std::pair<size_t, size_t> WorkerGroupRange(const Table& table, size_t worker,
                                           size_t workers) {
  const TablePartitioning* parts = table.partitioning();
  if (parts == nullptr || parts->group_begin.size() < 2) {
    return WorkerShare(table.row_groups().size(), worker, workers);
  }
  auto [p_lo, p_hi] = WorkerShare(parts->partitions(), worker, workers);
  return {parts->group_begin[p_lo], parts->group_begin[p_hi]};
}

}  // namespace costdb
