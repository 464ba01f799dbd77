#pragma once

#include <cstdint>
#include <vector>

#include "exec/evaluator.h"
#include "storage/column_vector.h"

namespace costdb {

/// Flat chained hash index over a hash join's build rows: power-of-two
/// bucket heads, and per build row a `next` link and its stored hash. A chain
/// walk rejects rows of other keys on the stored hash before touching key
/// payloads, and no node is allocated per row.
///
/// Match-order contract: rows are head-inserted in build order, so a probe
/// row's matches come out newest build row first (descending build row
/// index), probe rows in ascending order. Join output row order follows
/// from it, so it is part of the engine's deterministic-result contract.
///
/// Key equality is SQL's: a NULL key (on either side) matches nothing;
/// strings compare exactly, int64 pairs exactly, and int/double pairs as
/// doubles (`as_double` forces the int side to hash like the double it
/// joins with). Read-only after Build, so morsel threads probe it
/// concurrently.
class JoinHashTable {
 public:
  /// Index `rows` build rows keyed by `keys` (rows with a NULL key are
  /// never indexed; no keys at all is a cross join, every row matching).
  /// `num_buckets` 0 sizes the bucket array to the next power of two at or
  /// above `rows`; any other value is rounded up to a power of two (tests
  /// pass a small one to force long mixed-key chains).
  void Build(std::vector<ColumnVector> keys, std::vector<bool> as_double,
             size_t rows, size_t num_buckets = 0);

  /// Append every (probe row, build row) match of the first `rows` rows of
  /// `probe_keys` (borrowed key columns) to `probe_sel` / `build_sel`, in
  /// the contract order.
  void Match(const ChunkView& probe_keys, size_t rows,
             SelectionVector* probe_sel,
             std::vector<uint32_t>* build_sel) const;

 private:
  static constexpr uint32_t kEnd = UINT32_MAX;

  std::vector<ColumnVector> keys_;
  std::vector<bool> as_double_;
  /// One per build row: its key hash and the next older row of its
  /// bucket (kEnd ends the chain). Side by side, so one cache line serves
  /// both reads of a chain step.
  struct Link {
    uint64_t hash;
    uint32_t next;
  };

  std::vector<uint32_t> heads_;  // bucket -> newest build row, or kEnd
  std::vector<Link> links_;
  uint64_t mask_ = 0;
};

/// Open-addressing table of one morsel's GROUP BY groups. Group g's key is
/// row g of `keys()` — typed columns, one per GROUP BY expression — and is
/// compared in place, so no per-row key is ever serialized.
///
/// Two rows are one group exactly when their EncodeRowKeyInto keys would
/// be equal: NULL equals NULL, ints and strings compare exactly, and
/// doubles compare bit-exact after -0.0 is normalized to 0.0. A group's
/// stored key is its first row's.
class GroupTable {
 public:
  static constexpr size_t kInitialSlots = 64;

  /// An empty table whose key columns take the types of `like`.
  explicit GroupTable(const ChunkView& like);

  /// Group id of each of the first `rows` rows of `cols` (borrowed key
  /// columns of the table's types), creating groups in first-seen order.
  void FindOrInsert(const ChunkView& cols, size_t rows,
                    std::vector<uint32_t>* group_of_row);

  size_t size() const { return hashes_.size(); }
  const std::vector<ColumnVector>& keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  void Grow();

  std::vector<ColumnVector> keys_;
  std::vector<uint64_t> hashes_;  // group -> key hash
  std::vector<uint32_t> slots_;   // slot -> group, or kEmpty
};

}  // namespace costdb
