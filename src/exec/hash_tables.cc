#include "exec/hash_tables.h"

#include <cstring>

namespace costdb {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool JoinKeysEqual(const ChunkView& a, size_t ra,
                   const std::vector<ColumnVector>& b, size_t rb) {
  for (size_t k = 0; k < a.num_columns(); ++k) {
    const ColumnVector& ak = a.column(k);
    if (ak.IsNull(ra) || b[k].IsNull(rb)) return false;  // NULL joins nothing
    const PhysicalType ta = ak.physical_type();
    const PhysicalType tb = b[k].physical_type();
    if (ta == PhysicalType::kString || tb == PhysicalType::kString) {
      if (ta != tb || ak.GetString(ra) != b[k].GetString(rb)) return false;
      continue;
    }
    if (ta == PhysicalType::kInt64 && tb == PhysicalType::kInt64) {
      if (ak.GetInt(ra) != b[k].GetInt(rb)) return false;
      continue;
    }
    auto num = [](const ColumnVector& v, PhysicalType t, size_t i) {
      return t == PhysicalType::kDouble ? v.GetDouble(i)
                                        : static_cast<double>(v.GetInt(i));
    };
    if (num(ak, ta, ra) != num(b[k], tb, rb)) return false;
  }
  return true;
}

uint64_t NormalizedBits(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 and 0.0 are one group
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Group-key equality of one column (both vectors share its type).
bool SameGroupKey(const ColumnVector& a, size_t ra, const ColumnVector& b,
                  size_t rb) {
  const bool a_null = a.IsNull(ra);
  const bool b_null = b.IsNull(rb);
  if (a_null || b_null) return a_null == b_null;
  switch (a.physical_type()) {
    case PhysicalType::kInt64:
      return a.GetInt(ra) == b.GetInt(rb);
    case PhysicalType::kDouble:
      return NormalizedBits(a.GetDouble(ra)) == NormalizedBits(b.GetDouble(rb));
    case PhysicalType::kString:
      return a.GetString(ra) == b.GetString(rb);
  }
  return false;
}

}  // namespace

void JoinHashTable::Build(std::vector<ColumnVector> keys,
                          std::vector<bool> as_double, size_t rows,
                          size_t num_buckets) {
  keys_ = std::move(keys);
  as_double_ = std::move(as_double);
  heads_.assign(NextPowerOfTwo(num_buckets == 0 ? rows : num_buckets), kEnd);
  mask_ = heads_.size() - 1;
  const ChunkView key_view(keys_);
  std::vector<uint64_t> hashes;
  kernels::HashRows(key_view, as_double_, rows, &hashes);
  links_.resize(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    links_[r] = Link{hashes[r], kEnd};
    // A NULL build key can never be matched; indexing it would only
    // lengthen the shared NULL-tag chain every probe miss walks.
    if (kernels::AnyKeyNull(key_view, r)) continue;
    uint32_t& head = heads_[hashes[r] & mask_];
    links_[r].next = head;
    head = r;
  }
}

void JoinHashTable::Match(const ChunkView& probe_keys, size_t rows,
                          SelectionVector* probe_sel,
                          std::vector<uint32_t>* build_sel) const {
  std::vector<uint64_t> hashes;
  kernels::HashRows(probe_keys, as_double_, rows, &hashes);
  // Bucket heads first, for all rows: the loads are independent, so their
  // cache misses overlap instead of stalling one chain walk each.
  std::vector<uint32_t> first(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    first[r] = heads_[hashes[r] & mask_];
  }
  bool any_nulls = false;
  for (size_t k = 0; k < probe_keys.num_columns(); ++k) {
    any_nulls = any_nulls || probe_keys.column(k).has_nulls();
  }
  if (any_nulls) {
    // SQL three-valued logic: a NULL probe key matches nothing. Skip
    // before the walk — NULL keys share one hash tag, so walking would
    // visit the whole NULL chain just for the key compare to reject it.
    for (uint32_t r = 0; r < rows; ++r) {
      if (kernels::AnyKeyNull(probe_keys, r)) first[r] = kEnd;
    }
  }
  probe_sel->reserve(probe_sel->size() + rows);
  build_sel->reserve(build_sel->size() + rows);
  auto walk = [&](auto&& keys_equal) {
    for (uint32_t r = 0; r < rows; ++r) {
      const uint64_t h = hashes[r];
      for (uint32_t b = first[r]; b != kEnd; b = links_[b].next) {
        if (links_[b].hash != h || !keys_equal(r, b)) continue;
        probe_sel->push_back(r);
        build_sel->push_back(b);
      }
    }
  };
  if (keys_.size() == 1 && !as_double_[0] &&
      keys_[0].physical_type() == PhysicalType::kInt64 &&
      probe_keys.column(0).physical_type() == PhysicalType::kInt64) {
    // One int64 key on both sides (the common star-join shape): an inlined
    // payload compare. NULL rows never reach it — unindexed on the build
    // side, chain-less on the probe side.
    const int64_t* probe = probe_keys.column(0).ints().data();
    const int64_t* build = keys_[0].ints().data();
    walk([&](uint32_t r, uint32_t b) { return probe[r] == build[b]; });
  } else {
    walk([&](uint32_t r, uint32_t b) {
      return JoinKeysEqual(probe_keys, r, keys_, b);
    });
  }
}

GroupTable::GroupTable(const ChunkView& like) : slots_(kInitialSlots, kEmpty) {
  keys_.reserve(like.num_columns());
  for (size_t k = 0; k < like.num_columns(); ++k) {
    keys_.emplace_back(like.column(k).type());
  }
}

void GroupTable::FindOrInsert(const ChunkView& cols, size_t rows,
                              std::vector<uint32_t>* group_of_row) {
  const size_t num_keys = cols.num_columns();
  std::vector<uint64_t> hashes;
  kernels::HashRows(cols, std::vector<bool>(num_keys, false), rows, &hashes);
  group_of_row->resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t h = hashes[r];
    const size_t mask = slots_.size() - 1;
    size_t s = h & mask;
    uint32_t g;
    for (;; s = (s + 1) & mask) {
      g = slots_[s];
      if (g == kEmpty) break;
      if (hashes_[g] != h) continue;
      bool same = true;
      for (size_t k = 0; k < num_keys && same; ++k) {
        same = SameGroupKey(cols.column(k), r, keys_[k], g);
      }
      if (same) break;
    }
    if (g == kEmpty) {
      g = static_cast<uint32_t>(hashes_.size());
      hashes_.push_back(h);
      for (size_t k = 0; k < num_keys; ++k) {
        keys_[k].AppendFrom(cols.column(k), r);
      }
      slots_[s] = g;
      if (2 * hashes_.size() > slots_.size()) Grow();  // load <= 1/2
    }
    (*group_of_row)[r] = g;
  }
}

void GroupTable::Grow() {
  slots_.assign(2 * slots_.size(), kEmpty);
  const size_t mask = slots_.size() - 1;
  for (uint32_t g = 0; g < hashes_.size(); ++g) {
    size_t s = hashes_[g] & mask;
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = g;
  }
}

}  // namespace costdb
