#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include "common/annotated_mutex.h"
#include "exec/evaluator.h"
#include "exec/hash_tables.h"
#include "storage/table.h"

namespace costdb {

namespace {

constexpr size_t kMorselRows = 4096;

/// Running state of one aggregate function for one group.
struct AggState {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  Value min;
  Value max;
  bool has_value = false;
};

/// Commutative merge of two partial aggregate states (morsel-local partials
/// are merged in morsel order, so results are deterministic for any thread
/// count).
void MergeAggState(AggState* into, const AggState& from) {
  into->count += from.count;
  into->isum += from.isum;
  into->dsum += from.dsum;
  if (from.has_value) {
    if (!into->has_value) {
      into->min = from.min;
      into->max = from.max;
      into->has_value = true;
    } else {
      if (from.min < into->min) into->min = from.min;
      if (into->max < from.max) into->max = from.max;
    }
  }
}

struct GroupState {
  std::vector<Value> group_values;
  std::vector<AggState> aggs;
};

/// One column's contribution to the serialized row key (see
/// EncodeRowKeyInto in engine.h for the format contract).
void EncodeKeyColumn(const ColumnVector& g, size_t row, std::string* key) {
  if (g.IsNull(row)) {
    *key += 'n';
    *key += '\x01';
    return;
  }
  switch (g.physical_type()) {
    case PhysicalType::kInt64:
      *key += 'i';
      *key += std::to_string(g.GetInt(row));
      break;
    case PhysicalType::kDouble: {
      // Bit-exact encoding: to_string's 6 decimals would merge nearby
      // distinct values into one group. -0.0 normalizes to 0.0 so the
      // two (equal) zeros stay one group.
      double d = g.GetDouble(row);
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      *key += 'd';
      *key += std::to_string(bits);
      break;
    }
    case PhysicalType::kString: {
      const std::string& s = g.GetString(row);
      *key += 's';
      *key += std::to_string(s.size());
      *key += ':';
      *key += s;
      break;
    }
  }
  *key += '\x01';
}

/// Morsel-local partial aggregation: one (encoded group key, state) entry
/// per group, the key empty for a global aggregate. Merged into the global
/// (ordered) table in morsel order after the parallel loop, so no lock is
/// held on the per-row path and results are deterministic; the entries
/// themselves can stay unordered — per-key merge order is slot order
/// either way.
struct SlotAggPartial {
  std::vector<std::pair<std::string, GroupState>> groups;
  size_t rows_folded = 0;

  /// The single group of a global aggregate, created on first use.
  GroupState& Global(size_t num_aggs) {
    if (groups.empty()) {
      groups.emplace_back();
      groups.back().second.aggs.resize(num_aggs);
    }
    return groups.back().second;
  }
};

/// Column-at-a-time fold of one morsel's chunk into `partial`. Keys and
/// inputs are borrowed; `agg_inputs[a]` is nullptr for COUNT(*).
Status FoldChunkIntoGroups(const PhysicalPlan* sink,
                           const ChunkView& group_keys,
                           const std::vector<const ColumnVector*>& agg_inputs,
                           size_t rows, SlotAggPartial* partial) {
  partial->rows_folded += rows;
  // Pass 1: per-row group lookup in a typed table (the only row-at-a-time
  // step; keys are hashed column-at-a-time and compared in place).
  GroupTable table(group_keys);
  std::vector<uint32_t> row_group;
  table.FindOrInsert(group_keys, rows, &row_group);
  // Pass 2: one vectorized sweep per aggregate over the typed payloads,
  // into a flat group-major state array (empty for an aggregate-free
  // GROUP BY).
  const size_t num_aggs = sink->aggregates.size();
  std::vector<AggState> states(table.size() * num_aggs);
  auto state = [&](size_t r, size_t a) -> AggState& {
    return states[row_group[r] * num_aggs + a];
  };
  for (size_t a = 0; a < num_aggs; ++a) {
    const Expr& agg = *sink->aggregates[a];
    if (agg.agg == AggFunc::kCountStar) {
      for (size_t r = 0; r < rows; ++r) ++state(r, a).count;
      continue;
    }
    const ColumnVector& in = *agg_inputs[a];
    switch (agg.agg) {
      case AggFunc::kCount:
        // COUNT(col) counts non-null rows of any type — never touch the
        // typed payload (it may be a string column).
        for (size_t r = 0; r < rows; ++r) {
          if (!in.IsNull(r)) ++state(r, a).count;
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (in.physical_type() == PhysicalType::kInt64) {
          const auto& vals = in.ints();
          for (size_t r = 0; r < rows; ++r) {
            if (in.IsNull(r)) continue;
            AggState& st = state(r, a);
            ++st.count;
            st.isum += vals[r];
            st.dsum += static_cast<double>(vals[r]);
          }
        } else {
          const auto& vals = in.doubles();
          for (size_t r = 0; r < rows; ++r) {
            if (in.IsNull(r)) continue;
            AggState& st = state(r, a);
            ++st.count;
            st.dsum += vals[r];
          }
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        for (size_t r = 0; r < rows; ++r) {
          if (in.IsNull(r)) continue;
          AggState& st = state(r, a);
          ++st.count;
          Value v = in.GetValue(r);
          if (!st.has_value) {
            st.min = v;
            st.max = v;
            st.has_value = true;
          } else {
            if (v < st.min) st.min = v;
            if (st.max < v) st.max = v;
          }
        }
        break;
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }
  // Each group's key is encoded once here, for the ordered cross-morsel
  // merge — never per row.
  partial->groups.reserve(partial->groups.size() + table.size());
  for (size_t g = 0; g < table.size(); ++g) {
    std::pair<std::string, GroupState> entry;
    EncodeRowKeyInto(table.keys(), g, &entry.first);
    for (const auto& k : table.keys()) {
      entry.second.group_values.push_back(k.GetValue(g));
    }
    entry.second.aggs.assign(
        std::make_move_iterator(states.begin() + g * num_aggs),
        std::make_move_iterator(states.begin() + (g + 1) * num_aggs));
    partial->groups.push_back(std::move(entry));
  }
  return Status::OK();
}

/// Global-aggregate fast path (no GROUP BY): pure column reductions, no
/// key encoding at all.
Status FoldChunkIntoGlobal(const PhysicalPlan* sink,
                           const std::vector<const ColumnVector*>& agg_inputs,
                           size_t rows, SlotAggPartial* partial) {
  partial->rows_folded += rows;
  GroupState& gs = partial->Global(sink->aggregates.size());
  for (size_t a = 0; a < sink->aggregates.size(); ++a) {
    const Expr& agg = *sink->aggregates[a];
    AggState& st = gs.aggs[a];
    if (agg.agg == AggFunc::kCountStar) {
      st.count += static_cast<int64_t>(rows);
      continue;
    }
    const ColumnVector& in = *agg_inputs[a];
    switch (agg.agg) {
      case AggFunc::kCount:
        st.count += kernels::CountValid(in);  // any type, nulls skipped
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        kernels::Accumulate(in, &st.count, &st.isum, &st.dsum);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        kernels::MinMax(in, &st.min, &st.max, &st.has_value);
        break;
      default:
        return Status::Internal("unexpected aggregate function");
    }
  }
  return Status::OK();
}

/// Three-way compare of rows `a` and `b` of one sort-key column, in
/// Value's order without boxing: NULL first, int64 exact, doubles
/// numerically, strings bytewise.
int CompareSortKey(const ColumnVector& v, uint32_t a, uint32_t b) {
  const bool a_null = v.IsNull(a);
  const bool b_null = v.IsNull(b);
  if (a_null || b_null) return int(b_null) - int(a_null);
  auto three_way = [](auto x, auto y) { return int(y < x) - int(x < y); };
  switch (v.physical_type()) {
    case PhysicalType::kInt64:
      return three_way(v.GetInt(a), v.GetInt(b));
    case PhysicalType::kDouble:
      return three_way(v.GetDouble(a), v.GetDouble(b));
    case PhysicalType::kString: {
      const int c = v.GetString(a).compare(v.GetString(b));
      return int(c > 0) - int(c < 0);
    }
  }
  return 0;
}

/// True when `sel` keeps every one of `rows` rows, in order.
bool IsIdentity(const SelectionVector& sel, size_t rows) {
  if (sel.size() != rows) return false;
  for (size_t k = 0; k < rows; ++k) {
    if (sel[k] != k) return false;
  }
  return true;
}

/// One morsel's chunk between streaming operators, late-materialized in
/// the sense of Abadi et al., "Materialization Strategies in a
/// Column-Oriented DBMS" (ICDE 2007). Row k of column c is row
/// `sels_[s][k]` of the column's base, where s is the selection the column
/// reads through, or row k itself when the column is dense. Columns share
/// a few selections (one per side of the joins seen so far), so a probe
/// composes each selection with its matches — one uint32_t gather per
/// selection — instead of gathering every typed column.
///
/// Lifetime rule: a base is a pinned row-group column (the pin is held for
/// the whole morsel), a column of a finished join build's `build_data`
/// (held until the query ends), or a column of `owned_`. Nothing is copied
/// until a column is read (Column) or the chunk is materialized.
class LateChunk {
 public:
  LateChunk() = default;
  LateChunk(const LateChunk&) = delete;
  LateChunk& operator=(const LateChunk&) = delete;

  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return cols_.size(); }

  /// Replace the contents with `chunk`'s columns, owned and dense.
  void Own(DataChunk chunk) {
    owned_ = std::move(chunk);
    sels_.clear();
    cols_.clear();
    for (size_t c = 0; c < owned_.num_columns(); ++c) {
      cols_.push_back({&owned_.column(c), kDense});
    }
    rows_ = owned_.num_rows();
  }

  /// Replace the contents with `view`'s columns, borrowed: dense when
  /// `survivors` (ascending view rows) is null or keeps every row, read
  /// through it otherwise.
  void Borrow(const ChunkView& view, SelectionVector* survivors) {
    owned_ = DataChunk();
    sels_.clear();
    cols_.clear();
    rows_ = view.num_rows();
    uint32_t sel = kDense;
    if (survivors != nullptr && survivors->size() != rows_) {
      sel = 0;
      rows_ = survivors->size();
      sels_.push_back(std::move(*survivors));
    }
    for (size_t c = 0; c < view.num_columns(); ++c) {
      cols_.push_back({&view.column(c), sel});
    }
  }

  /// Column c: its base when dense, otherwise gathered into `*scratch`.
  const ColumnVector& Column(size_t c, ColumnVector* scratch) const {
    const Col& col = cols_[c];
    if (col.sel == kDense) return *col.base;
    *scratch = col.base->Gather(sels_[col.sel]);
    return *scratch;
  }

  /// The join step: output row k is row `probe_sel[k]` of this chunk
  /// followed by row `build_sel[k]` of `build`, whose columns are appended
  /// unread.
  void Join(const SelectionVector& probe_sel, const DataChunk& build,
            std::vector<uint32_t> build_sel) {
    if (!IsIdentity(probe_sel, rows_)) {
      for (SelectionVector& sel : sels_) {
        SelectionVector composed(probe_sel.size());
        for (size_t k = 0; k < probe_sel.size(); ++k) {
          composed[k] = sel[probe_sel[k]];
        }
        sel = std::move(composed);
      }
      const uint32_t probe_index = static_cast<uint32_t>(sels_.size());
      bool any_dense = false;
      for (Col& col : cols_) {
        if (col.sel != kDense) continue;
        col.sel = probe_index;
        any_dense = true;
      }
      if (any_dense) sels_.push_back(probe_sel);
    }
    const uint32_t build_index = static_cast<uint32_t>(sels_.size());
    sels_.push_back(std::move(build_sel));
    for (size_t c = 0; c < build.num_columns(); ++c) {
      cols_.push_back({&build.column(c), build_index});
    }
    rows_ = probe_sel.size();
  }

  /// Every column as an owned chunk: gathered, copied when dense, or moved
  /// out when the chunk already owns it densely. Consumes the chunk.
  DataChunk Materialize() && {
    bool owns_all = cols_.size() == owned_.num_columns();
    for (size_t c = 0; c < cols_.size() && owns_all; ++c) {
      owns_all = cols_[c].sel == kDense && cols_[c].base == &owned_.column(c);
    }
    if (owns_all) return std::move(owned_);
    DataChunk out;
    for (const Col& col : cols_) {
      out.AddColumn(col.sel == kDense ? *col.base
                                      : col.base->Gather(sels_[col.sel]));
    }
    return out;
  }

 private:
  static constexpr uint32_t kDense = UINT32_MAX;
  struct Col {
    const ColumnVector* base;
    uint32_t sel;  // index into sels_, or kDense
  };

  std::vector<Col> cols_;
  std::vector<SelectionVector> sels_;
  DataChunk owned_;
  size_t rows_ = 0;
};

/// Storage behind the borrowed results of EvaluateLate; must outlive them.
struct LateScratch {
  std::vector<ColumnVector> gathered;  // one slot per chunk column
  std::vector<ColumnVector> computed;  // one slot per expression
};

/// Evaluate `exprs` over `chunk` (schema `names`), reading only the
/// columns they reference: each is borrowed when dense and gathered once
/// otherwise, and a bare column reference comes back as that column
/// itself (Evaluator::EvaluateRef), never copied. `out[i]` is nullptr
/// where `exprs[i]` is.
Status EvaluateLate(const LateChunk& chunk,
                    const std::vector<std::string>& names,
                    const std::vector<const Expr*>& exprs,
                    LateScratch* scratch,
                    std::vector<const ColumnVector*>* out) {
  std::vector<std::string> referenced;
  for (const Expr* e : exprs) {
    if (e != nullptr) e->CollectColumns(&referenced);
  }
  // The sub-schema keeps the chunk's column order, so name resolution
  // (first match) picks the same column it would on the whole chunk.
  std::vector<std::string> sub_names;
  ChunkView view(chunk.num_rows());
  scratch->gathered.resize(chunk.num_columns());
  for (size_t c = 0; c < chunk.num_columns() && c < names.size(); ++c) {
    if (std::find(referenced.begin(), referenced.end(), names[c]) ==
        referenced.end()) {
      continue;
    }
    sub_names.push_back(names[c]);
    view.AddColumn(&chunk.Column(c, &scratch->gathered[c]));
  }
  Evaluator ev(&sub_names);
  scratch->computed.resize(exprs.size());
  out->assign(exprs.size(), nullptr);
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i] == nullptr) continue;
    COSTDB_ASSIGN_OR_RETURN(
        (*out)[i], ev.EvaluateRef(*exprs[i], view, &scratch->computed[i]));
  }
  return Status::OK();
}

}  // namespace

void EncodeRowKeyInto(const std::vector<ColumnVector>& columns, size_t row,
                      std::string* key) {
  key->clear();
  for (const auto& g : columns) EncodeKeyColumn(g, row, key);
}

void EncodeChunkKeyInto(const DataChunk& chunk, size_t num_columns, size_t row,
                        std::string* key) {
  key->clear();
  for (size_t c = 0; c < num_columns; ++c) {
    EncodeKeyColumn(chunk.column(c), row, key);
  }
}

std::string QueryResult::ToString(int64_t limit) const {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += " | ";
    out += names[i];
  }
  out += "\n";
  out += chunk.ToString(limit);
  return out;
}

/// Materialized output and/or join hash table of a pipeline breaker.
struct LocalEngine::BreakerState {
  // Join build.
  DataChunk build_data;
  JoinHashTable build_table;
  // Aggregate / sort output.
  DataChunk materialized;
  bool materialized_valid = false;
};

struct LocalEngine::ExecContext {
  std::map<const PhysicalPlan*, BreakerState> breakers;
  DataChunk result;
  bool result_valid = false;
  /// When set, the result pipeline streams into this sink (in morsel
  /// order, as prefixes complete) instead of materializing `result`.
  ChunkSink* result_sink = nullptr;
  size_t rows_streamed = 0;
};

namespace {

/// Schema (column names) flowing *into* each streaming operator is the
/// output schema of whatever preceded it; we track it as we apply ops.
struct MorselProcessor {
  const Pipeline* pipeline;
  LocalEngine::ExecContext* ctx;  // breaker states (read-only during probe)
  std::map<const PhysicalPlan*, LocalEngine::BreakerState>* breakers;

  /// Apply the streaming operators from `first_op` on to `chunk` (schema
  /// `names` updated in place). A fused filter→probe morsel enters here
  /// *after* the join it fused through, so it resumes at the next
  /// operator. Returns an error or the transformed chunk (possibly empty).
  /// Probes keep the chunk late-materialized; Filter and Project
  /// materialize it in full.
  Status Apply(LateChunk* chunk, std::vector<std::string>* names,
               size_t first_op = 0) const {
    for (size_t oi = first_op; oi < pipeline->operators.size(); ++oi) {
      const PhysicalPlan* op = pipeline->operators[oi];
      if (chunk->num_rows() == 0 &&
          op->kind != PhysicalPlan::Kind::kHashJoin) {
        *names = op->output_names;
        chunk->Own(DataChunk(op->output_types));
        continue;
      }
      switch (op->kind) {
        case PhysicalPlan::Kind::kFilter: {
          DataChunk in = std::move(*chunk).Materialize();
          Evaluator ev(names);
          SelectionVector sel;
          COSTDB_ASSIGN_OR_RETURN(sel,
                                  ev.EvaluateSelection(*op->predicate, in));
          in.Slice(sel);
          chunk->Own(std::move(in));
          break;
        }
        case PhysicalPlan::Kind::kProject: {
          const DataChunk in = std::move(*chunk).Materialize();
          Evaluator ev(names);
          DataChunk out;
          for (const auto& p : op->projections) {
            ColumnVector v;
            COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*p, in));
            out.AddColumn(std::move(v));
          }
          chunk->Own(std::move(out));
          *names = op->output_names;
          break;
        }
        case PhysicalPlan::Kind::kExchange:
          break;  // no network locally
        case PhysicalPlan::Kind::kLimit:
          break;  // applied at result finalization
        case PhysicalPlan::Kind::kHashJoin: {
          COSTDB_RETURN_NOT_OK(Probe(op, chunk, names));
          break;
        }
        default:
          return Status::Internal("unexpected streaming operator");
      }
    }
    return Status::OK();
  }

  /// Vectorized probe: read only the key columns, hash them column-at-a-
  /// time, collect the matching (probe, build) row pairs, and compose them
  /// into the chunk's selections — no payload column is gathered here.
  Status Probe(const PhysicalPlan* join, LateChunk* chunk,
               std::vector<std::string>* names) const {
    auto it = breakers->find(join);
    if (it == breakers->end()) {
      return Status::Internal("probe before build");
    }
    const LocalEngine::BreakerState& bs = it->second;
    std::vector<const Expr*> key_exprs;
    for (const auto& k : join->probe_keys) key_exprs.push_back(k.get());
    LateScratch scratch;
    std::vector<const ColumnVector*> keys;
    COSTDB_RETURN_NOT_OK(
        EvaluateLate(*chunk, *names, key_exprs, &scratch, &keys));
    ChunkView key_view;
    for (const ColumnVector* k : keys) key_view.AddColumn(k);
    SelectionVector probe_sel;
    std::vector<uint32_t> build_sel;
    bs.build_table.Match(key_view, chunk->num_rows(), &probe_sel, &build_sel);
    chunk->Join(probe_sel, bs.build_data, std::move(build_sel));
    *names = join->output_names;
    return Status::OK();
  }
};

}  // namespace

LocalEngine::LocalEngine(size_t num_threads) : pool_(num_threads) {}

Status LocalEngine::RunPipeline(const Pipeline& pipeline, ExecContext* ctx,
                                PipelineTiming* timing) {
  // ---- 1. Build the morsel list ----
  struct Morsel {
    const DataChunk* source_chunk = nullptr;  // row group or materialized
    size_t begin = 0;
    size_t end = 0;  // rows [begin, end)
    const RowGroup* row_group = nullptr;
    size_t group_index = 0;  // index into the table's row groups
  };
  std::vector<Morsel> morsels;
  std::vector<std::string> source_names;
  const PhysicalPlan* src = pipeline.source;
  if (src == nullptr) return Status::Internal("pipeline without source");

  if (!pipeline.source_is_breaker) {
    // TableScan source: one morsel per row group that survives zone-map
    // pruning. A pruned morsel is never touched again — its rows are not
    // read, filtered, or materialized.
    source_names = src->output_names;
    const auto& groups = src->table->row_groups();
    // A sharded worker scans only its contiguous row-group share; the
    // default [0, SIZE_MAX) covers the whole table.
    const size_t g_end = std::min(groups.size(), src->scan_group_end);
    for (size_t g = std::min(src->scan_group_begin, g_end); g < g_end; ++g) {
      const RowGroup& group = groups[g];
      ++scan_stats_.morsels_total;
      bool prunable = false;
      for (const auto& f : src->scan_filters) {
        std::string col;
        CompareOp op;
        Value constant;
        if (!MatchColumnCompareConstant(f, &col, &op, &constant)) continue;
        // Strip the alias qualifier to find the base column.
        auto dot = col.find('.');
        std::string base = dot == std::string::npos ? col : col.substr(dot + 1);
        auto idx = src->table->ColumnIndex(base);
        if (!idx.ok()) continue;
        if (!group.zones[*idx].MayMatch(op, constant)) {
          prunable = true;
          break;
        }
      }
      if (prunable) {
        ++scan_stats_.morsels_pruned;
        scan_stats_.rows_pruned += group.num_rows();
        continue;
      }
      scan_stats_.rows_scanned += group.num_rows();
      Morsel m;
      m.row_group = &group;
      m.group_index = g;
      m.begin = 0;
      m.end = group.num_rows();
      morsels.push_back(m);
    }
  } else {
    auto it = ctx->breakers.find(src);
    if (it == ctx->breakers.end() || !it->second.materialized_valid) {
      return Status::Internal("pipeline source not materialized");
    }
    source_names = src->output_names;
    const DataChunk& data = it->second.materialized;
    for (size_t begin = 0; begin < data.num_rows(); begin += kMorselRows) {
      Morsel m;
      m.source_chunk = &data;
      m.begin = begin;
      m.end = std::min(begin + kMorselRows, data.num_rows());
      morsels.push_back(m);
    }
    if (data.num_rows() == 0) {
      Morsel m;
      m.source_chunk = &data;
      morsels.push_back(m);  // empty morsel keeps global aggregates alive
    }
  }

  // ---- 2. Process morsels in parallel, collecting per-slot outputs ----
  std::vector<DataChunk> slot_outputs(morsels.size());
  std::vector<Status> slot_status(morsels.size());
  std::vector<SlotAggPartial> slot_aggs;  // aggregate sink partials

  MorselProcessor processor{&pipeline, ctx, &ctx->breakers};
  const PhysicalPlan* sink = pipeline.sink;
  const bool agg_sink =
      sink != nullptr && sink->kind == PhysicalPlan::Kind::kHashAggregate &&
      !pipeline.sink_is_build_side;
  if (agg_sink) slot_aggs.resize(morsels.size());
  const ExprPtr combined_scan_filter =
      (!pipeline.source_is_breaker && !src->scan_filters.empty())
          ? CombineConjuncts(src->scan_filters)
          : nullptr;

  // ---- fused-kernel setup (annotations from the fuse_kernels pass) ----
  // Compiled once per pipeline through the same registry the optimizer
  // priced with; a shape that fails to compile here (stale annotation on a
  // hand-built plan) falls back to the vectorized path per morsel.
  const FusedKernelRegistry& fused_registry = FusedKernelRegistry::Global();
  std::optional<FusedPredicate> fused_pred;
  if (!pipeline.source_is_breaker && src->fuse_scan_filter &&
      combined_scan_filter != nullptr) {
    fused_pred = fused_registry.Compile(*combined_scan_filter,
                                        src->output_names, src->output_types);
  }
  const bool fused_filter_bound =
      combined_scan_filter == nullptr || fused_pred.has_value();
  // Fused filter→aggregate: global-agg sink fed by the scan through
  // exchanges only, every aggregate input a bare scan column.
  std::vector<FusedAggSpec> fused_agg_specs;
  bool fused_agg = false;
  if (agg_sink && sink->fuse_aggregate && sink->group_by.empty() &&
      !pipeline.source_is_breaker && fused_filter_bound) {
    bool ops_ok = true;
    for (const PhysicalPlan* op : pipeline.operators) {
      if (op->kind != PhysicalPlan::Kind::kExchange) ops_ok = false;
    }
    fused_agg = ops_ok && fused_registry.CompileAggregates(
                              sink->aggregates, src->output_names,
                              src->output_types, &fused_agg_specs);
  }
  // Fused filter→hash-probe: the first non-exchange streaming operator is
  // the annotated join and its probe keys are bare scan columns.
  const PhysicalPlan* fused_join = nullptr;
  size_t fused_join_index = 0;
  if (!pipeline.source_is_breaker && !fused_agg && fused_filter_bound) {
    for (size_t i = 0; i < pipeline.operators.size(); ++i) {
      const PhysicalPlan* op = pipeline.operators[i];
      if (op->kind == PhysicalPlan::Kind::kExchange) continue;
      if (op->kind == PhysicalPlan::Kind::kHashJoin && op->fuse_probe) {
        bool ok = !op->probe_keys.empty();
        for (const auto& k : op->probe_keys) {
          ok = ok && k->kind == Expr::Kind::kColumn &&
               src->FindColumn(k->column) != static_cast<size_t>(-1);
        }
        if (ok) {
          fused_join = op;
          fused_join_index = i;
        }
      }
      break;  // only the operator adjacent to the scan can fuse with it
    }
  }
  std::vector<FusedExecStats> slot_fused(morsels.size());
  // Per-slot cold-read counters; merged after the barrier like slot_fused.
  std::vector<BlockCacheStats> slot_blocks(morsels.size());

  double source_rows = 0.0;
  for (const Morsel& m : morsels) source_rows += double(m.end - m.begin);

  // Streaming result path: the final pipeline pushes each morsel's output
  // to the client sink as soon as every earlier morsel has been delivered
  // — deterministic morsel order without materializing the whole result.
  const bool streaming = sink == nullptr && ctx->result_sink != nullptr;
  int64_t limit_remaining = -1;  // result-pipeline LIMIT, applied on push
  if (streaming) {
    for (const PhysicalPlan* op : pipeline.operators) {
      if (op->kind == PhysicalPlan::Kind::kLimit && op->limit >= 0) {
        limit_remaining = op->limit;
      }
    }
  }
  Mutex push_mu;
  std::vector<uint8_t> slot_ready(morsels.size(), 0);
  size_t next_push = 0;
  size_t pushed_rows = 0;
  Status push_status;  // first sink failure; surfaced after the barrier

  auto fused_elapsed = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  auto process_inner = [&](size_t slot) {
    const Morsel& m = morsels[slot];
    // Pin the group's payload for the duration of the morsel: resident
    // groups borrow in place, cold groups come through the block cache
    // (or one object-store GET) — the engine itself never sees the
    // storage tier, only this Table-level pin. The chunk below borrows the
    // pinned columns until the sink has consumed it, so the pin outlives
    // every operator of the pipeline.
    Table::RowGroupPin pin;
    LateChunk chunk;
    std::vector<std::string> names = source_names;
    size_t first_op = 0;  // fused probes resume Apply after their join
    if (m.row_group != nullptr) {
      {
        auto pinned = src->table->PinRowGroup(m.group_index,
                                              &slot_blocks[slot]);
        if (!pinned.ok()) {
          slot_status[slot] = pinned.status();
          return;
        }
        pin = std::move(*pinned);
      }
      const DataChunk& group_data = *pin.chunk;
      ChunkView view;
      for (size_t idx : src->scan_column_indices) {
        view.AddColumn(&group_data.column(idx));
      }
      const size_t view_rows = view.num_rows();
      FusedExecStats& fstats = slot_fused[slot];
      bool scan_done = false;
      bool pred_bind_failed = false;

      if (fused_agg) {
        // Fused filter→aggregate fold: survivors go straight from the
        // borrowed row-group columns into the aggregate states — no
        // materialization at all.
        std::vector<FusedAggState> states(fused_agg_specs.size());
        SelectionVector sel;
        auto t0 = std::chrono::steady_clock::now();
        Result<size_t> survivors =
            FusedFilterAggregate(fused_pred ? &*fused_pred : nullptr, view,
                                 fused_agg_specs, &states, &sel);
        if (survivors.ok()) {
          fstats.fused_seconds += fused_elapsed(t0);
          ++fstats.fused_agg_morsels;
          fstats.fused_rows += view_rows;
          if (*survivors > 0) {
            SlotAggPartial& partial = slot_aggs[slot];
            partial.rows_folded += *survivors;
            GroupState& gs = partial.Global(sink->aggregates.size());
            for (size_t a = 0; a < fused_agg_specs.size(); ++a) {
              AggState& st = gs.aggs[a];
              const FusedAggState& fs = states[a];
              st.count += fs.count;
              st.isum += fs.isum;
              st.dsum += fs.dsum;
              if (fs.has_value) {
                st.min = fs.min;
                st.max = fs.max;
                st.has_value = true;
              }
            }
          }
          return;  // nothing materialized per slot
        }
        ++fstats.fallback_morsels;  // stale shape: interpreted path below
        pred_bind_failed = true;
      }

      if (!scan_done && !pred_bind_failed && fused_join != nullptr) {
        // Fused filter→hash-probe: one fused pass selects the survivors,
        // and the shared Probe runs on the borrowed columns read through
        // that selection (the keys borrowed outright when every row
        // survives).
        SelectionVector sel;
        Status fst;
        auto t0 = std::chrono::steady_clock::now();
        if (fused_pred.has_value()) fst = fused_pred->Select(view, &sel);
        if (fst.ok()) {
          chunk.Borrow(view, fused_pred.has_value() ? &sel : nullptr);
          Status pst = processor.Probe(fused_join, &chunk, &names);
          fstats.fused_seconds += fused_elapsed(t0);
          if (!pst.ok()) {
            slot_status[slot] = pst;  // real error (e.g. probe before build)
            return;
          }
          ++fstats.fused_probe_morsels;
          fstats.fused_rows += view_rows;
          first_op = fused_join_index + 1;
          scan_done = true;
        } else {
          ++fstats.fallback_morsels;
          pred_bind_failed = true;
        }
      }

      if (!scan_done && !pred_bind_failed && fused_pred.has_value()) {
        // Fused select: one pass decides survivors — no per-conjunct
        // selection vectors — and the chunk borrows the columns through it.
        SelectionVector sel;
        auto t0 = std::chrono::steady_clock::now();
        Status fst = fused_pred->Select(view, &sel);
        if (fst.ok()) {
          fstats.fused_seconds += fused_elapsed(t0);
          ++fstats.fused_filter_morsels;
          fstats.fused_rows += view_rows;
          chunk.Borrow(view, &sel);
          scan_done = true;
        } else {
          ++fstats.fallback_morsels;
        }
      }
      if (!scan_done && src->fuse_scan_filter &&
          combined_scan_filter != nullptr && !fused_pred.has_value()) {
        ++fstats.fallback_morsels;  // annotated fused, shape never compiled
      }

      if (!scan_done) {
        if (combined_scan_filter != nullptr) {
          // The predicate runs on borrowed row-group columns, and the
          // chunk borrows them through its selection.
          Evaluator ev(&names);
          auto sel = ev.EvaluateSelection(*combined_scan_filter, view);
          if (!sel.ok()) {
            slot_status[slot] = sel.status();
            return;
          }
          chunk.Borrow(view, &*sel);
        } else {
          chunk.Borrow(view, nullptr);
        }
      }
    } else {
      DataChunk sliced(m.source_chunk->Types());
      sliced.AppendRange(*m.source_chunk, m.begin, m.end);
      chunk.Own(std::move(sliced));
    }
    Status st = processor.Apply(&chunk, &names, first_op);
    if (!st.ok()) {
      slot_status[slot] = st;
      return;
    }
    if (agg_sink) {
      // Fold this chunk into the slot-local partial aggregation, reading
      // only the columns the GROUP BY and aggregate inputs reference.
      std::vector<const Expr*> exprs;
      for (const auto& g : sink->group_by) exprs.push_back(g.get());
      for (const auto& a : sink->aggregates) {
        // COUNT(*) has no input.
        exprs.push_back(a->children.empty() ? nullptr : a->children[0].get());
      }
      LateScratch scratch;
      std::vector<const ColumnVector*> inputs;
      st = EvaluateLate(chunk, names, exprs, &scratch, &inputs);
      if (!st.ok()) {
        slot_status[slot] = st;
        return;
      }
      const size_t rows = chunk.num_rows();
      if (rows == 0) return;
      const size_t num_groups = sink->group_by.size();
      const std::vector<const ColumnVector*> agg_inputs(
          inputs.begin() + num_groups, inputs.end());
      if (num_groups == 0) {
        slot_status[slot] =
            FoldChunkIntoGlobal(sink, agg_inputs, rows, &slot_aggs[slot]);
      } else {
        ChunkView group_keys;
        for (size_t g = 0; g < num_groups; ++g) {
          group_keys.AddColumn(inputs[g]);
        }
        slot_status[slot] = FoldChunkIntoGroups(sink, group_keys, agg_inputs,
                                                rows, &slot_aggs[slot]);
      }
      return;  // nothing materialized per slot
    }
    slot_outputs[slot] = std::move(chunk).Materialize();
  };

  auto process_one = [&](size_t slot) {
    process_inner(slot);
    if (!streaming) return;
    // Mark this slot delivered (even on error — a stuck prefix would
    // otherwise pin every later chunk) and push all consecutive ready
    // slots. The lock serializes pushes; order is morsel order.
    MutexLock lock(push_mu);
    slot_ready[slot] = 1;
    while (next_push < slot_ready.size() && slot_ready[next_push]) {
      DataChunk& ready = slot_outputs[next_push];
      // A failed morsel latches: nothing after it is pushed, so whatever
      // the client streamed before the error is a correct prefix of the
      // true result (never a row sequence with a hole in the middle).
      if (push_status.ok() && !slot_status[next_push].ok()) {
        push_status = slot_status[next_push];
      }
      const bool ok_to_push = push_status.ok() && ready.num_rows() > 0 &&
                              limit_remaining != 0;
      ++next_push;
      if (!ok_to_push) continue;
      if (limit_remaining > 0 &&
          static_cast<int64_t>(ready.num_rows()) > limit_remaining) {
        std::vector<uint32_t> head(static_cast<size_t>(limit_remaining));
        for (size_t i = 0; i < head.size(); ++i) {
          head[i] = static_cast<uint32_t>(i);
        }
        ready.Slice(head);
      }
      if (limit_remaining > 0) {
        limit_remaining -= static_cast<int64_t>(ready.num_rows());
      }
      pushed_rows += ready.num_rows();
      push_status = ctx->result_sink->Push(std::move(ready));
    }
  };

  if (pool_.num_threads() > 1 && morsels.size() > 1) {
    for (size_t slot = 0; slot < morsels.size(); ++slot) {
      pool_.Submit([&, slot] { process_one(slot); });
    }
    pool_.WaitIdle();
  } else {
    for (size_t slot = 0; slot < morsels.size(); ++slot) process_one(slot);
  }
  for (const auto& st : slot_status) {
    COSTDB_RETURN_NOT_OK(st);
  }
  // Per-slot fused counters merge after the barrier (no atomics on the
  // morsel path), like the aggregate partials.
  for (const auto& fs : slot_fused) fused_stats_.MergeFrom(fs);
  for (const auto& bs : slot_blocks) block_stats_.MergeFrom(bs);

  // Merge aggregate partials in morsel order (deterministic for any thread
  // count; the per-row path above never took a lock).
  std::map<std::string, GroupState> agg_groups;
  size_t agg_rows_folded = 0;
  for (auto& partial : slot_aggs) {
    agg_rows_folded += partial.rows_folded;
    for (auto& [key, gs] : partial.groups) {
      auto [it, inserted] = agg_groups.try_emplace(key, std::move(gs));
      if (inserted) continue;
      GroupState& into = it->second;
      for (size_t a = 0; a < into.aggs.size(); ++a) {
        MergeAggState(&into.aggs[a], gs.aggs[a]);
      }
    }
  }

  if (timing != nullptr) {
    timing->source_rows = source_rows;
  }

  // ---- 3. Finalize the sink ----
  // Concatenate slot outputs in morsel order (deterministic).
  auto concatenate = [&](std::vector<LogicalType> types) {
    DataChunk all(std::move(types));
    for (auto& s : slot_outputs) {
      if (s.num_columns() == all.num_columns()) all.Append(s);
    }
    return all;
  };

  if (sink == nullptr && ctx->result_sink != nullptr) {
    // Streaming result: every chunk already went out in morsel order.
    COSTDB_RETURN_NOT_OK(push_status);
    ctx->result_valid = true;
    ctx->rows_streamed += pushed_rows;
    if (timing != nullptr) timing->output_rows = double(pushed_rows);
    return Status::OK();
  }

  if (sink == nullptr) {
    // Result sink. The streamed schema is the root's output schema.
    std::vector<LogicalType> types = pipeline.operators.empty()
                                         ? src->output_types
                                         : pipeline.operators.back()->output_types;
    ctx->result = concatenate(types);
    // Apply any LIMIT in this pipeline (root-level semantics).
    for (const PhysicalPlan* op : pipeline.operators) {
      if (op->kind == PhysicalPlan::Kind::kLimit && op->limit >= 0 &&
          static_cast<int64_t>(ctx->result.num_rows()) > op->limit) {
        std::vector<uint32_t> head(static_cast<size_t>(op->limit));
        for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<uint32_t>(i);
        ctx->result.Slice(head);
      }
    }
    ctx->result_valid = true;
    if (timing != nullptr) timing->output_rows = double(ctx->result.num_rows());
    return Status::OK();
  }

  if (pipeline.sink_is_build_side) {
    BreakerState& bs = ctx->breakers[sink];
    bs.build_data = concatenate(sink->children[1]->output_types);
    // Evaluate build keys and index them.
    std::vector<std::string> build_names = sink->children[1]->output_names;
    Evaluator ev(&build_names);
    std::vector<bool> keys_as_double;
    std::vector<ColumnVector> key_vectors;
    for (size_t k = 0; k < sink->build_keys.size(); ++k) {
      keys_as_double.push_back(
          sink->build_keys[k]->type == LogicalType::kDouble ||
          sink->probe_keys[k]->type == LogicalType::kDouble);
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*sink->build_keys[k],
                                             bs.build_data));
      key_vectors.push_back(std::move(v));
    }
    const size_t rows = bs.build_data.num_rows();
    bs.build_table.Build(std::move(key_vectors), std::move(keys_as_double),
                         rows);
    if (timing != nullptr) timing->output_rows = double(rows);
    return Status::OK();
  }

  if (sink->kind == PhysicalPlan::Kind::kHashAggregate) {
    BreakerState& bs = ctx->breakers[sink];
    DataChunk out(sink->output_types);
    // Result chunks stay NULL-free by convention: empty inputs and
    // all-NULL MIN/MAX groups zero-fill instead of emitting NULL (the
    // engine's consumers index typed payloads directly).
    auto type_zero = [](LogicalType t) {
      switch (PhysicalTypeOf(t)) {
        case PhysicalType::kDouble:
          return Value(0.0);
        case PhysicalType::kString:
          return Value(std::string());
        case PhysicalType::kInt64:
        default:
          return Value(int64_t{0});
      }
    };
    if (agg_rows_folded == 0 && sink->group_by.empty() &&
        !sink->agg_is_partial) {
      // Global aggregate over empty input: one row of zeros. A *partial*
      // aggregate instead emits nothing — its consumer is the final
      // aggregate, and a fabricated zero from one empty shard would
      // poison the global MIN/MAX merged across workers.
      agg_groups.clear();
      std::vector<Value> row;
      for (const auto& a : sink->aggregates) {
        row.push_back(type_zero(a->type));
      }
      out.AppendRow(row);
    }
    for (const auto& [key, gs] : agg_groups) {
      std::vector<Value> row = gs.group_values;
      for (size_t a = 0; a < sink->aggregates.size(); ++a) {
        const Expr& agg = *sink->aggregates[a];
        const AggState& st = gs.aggs[a];
        switch (agg.agg) {
          case AggFunc::kCountStar:
          case AggFunc::kCount:
            row.push_back(Value(st.count));
            break;
          case AggFunc::kSum:
            if (agg.type == LogicalType::kInt64) {
              row.push_back(Value(st.isum));
            } else {
              row.push_back(Value(st.dsum));
            }
            break;
          case AggFunc::kAvg:
            row.push_back(Value(st.count == 0
                                    ? 0.0
                                    : st.dsum / static_cast<double>(st.count)));
            break;
          case AggFunc::kMin:
          case AggFunc::kMax: {
            // Value-less MIN/MAX: the NULL-free result convention
            // zero-fills — except in a partial, whose consumer (the
            // final aggregate) skips NULL inputs, so NULL is the only
            // emission that cannot corrupt the merged extremum.
            const Value& extremum = agg.agg == AggFunc::kMin ? st.min : st.max;
            if (st.has_value) {
              row.push_back(extremum);
            } else {
              row.push_back(sink->agg_is_partial ? Value::Null()
                                                 : type_zero(agg.type));
            }
            break;
          }
        }
      }
      out.AppendRow(row);
    }
    bs.materialized = std::move(out);
    bs.materialized_valid = true;
    if (timing != nullptr) {
      timing->output_rows = double(bs.materialized.num_rows());
    }
    return Status::OK();
  }

  if (sink->kind == PhysicalPlan::Kind::kSort) {
    BreakerState& bs = ctx->breakers[sink];
    DataChunk all = concatenate(sink->output_types);
    std::vector<std::string> names = sink->output_names;
    Evaluator ev(&names);
    std::vector<ColumnVector> key_vecs;
    for (const auto& k : sink->sort_keys) {
      ColumnVector v;
      COSTDB_ASSIGN_OR_RETURN(v, ev.Evaluate(*k.expr, all));
      key_vecs.push_back(std::move(v));
    }
    std::vector<uint32_t> order(all.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < key_vecs.size(); ++k) {
        const int c = CompareSortKey(key_vecs[k], a, b);
        if (c == 0) continue;
        return sink->sort_keys[k].descending ? c > 0 : c < 0;
      }
      return false;
    });
    all.Slice(order);
    bs.materialized = std::move(all);
    bs.materialized_valid = true;
    if (timing != nullptr) {
      timing->output_rows = double(bs.materialized.num_rows());
    }
    return Status::OK();
  }

  return Status::Internal("unknown sink kind");
}

Status LocalEngine::RunAll(const PhysicalPlan* root, ExecContext* ctx) {
  PipelineGraph graph = BuildPipelines(root);
  timings_.clear();
  scan_stats_ = ScanStats();
  fused_stats_ = FusedExecStats();
  block_stats_ = BlockCacheStats();
  for (const auto& pipeline : graph.pipelines) {
    PipelineTiming t;
    t.pipeline_id = pipeline.id;
    auto start = std::chrono::steady_clock::now();
    COSTDB_RETURN_NOT_OK(RunPipeline(pipeline, ctx, &t));
    auto end = std::chrono::steady_clock::now();
    t.seconds = std::chrono::duration<double>(end - start).count();
    timings_.push_back(t);
  }
  if (!ctx->result_valid) {
    return Status::Internal("query produced no result sink");
  }
  return Status::OK();
}

Result<QueryResult> LocalEngine::Execute(const PhysicalPlan* root) {
  ExecContext ctx;
  COSTDB_RETURN_NOT_OK(RunAll(root, &ctx));
  QueryResult result;
  result.names = root->output_names;
  result.types = root->output_types;
  result.chunk = std::move(ctx.result);
  return result;
}

Result<StreamedResult> LocalEngine::ExecuteToSink(const PhysicalPlan* root,
                                                  ChunkSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("ExecuteToSink requires a sink");
  }
  ExecContext ctx;
  ctx.result_sink = sink;
  COSTDB_RETURN_NOT_OK(RunAll(root, &ctx));
  StreamedResult out;
  out.names = root->output_names;
  out.types = root->output_types;
  out.rows_streamed = ctx.rows_streamed;
  return out;
}

}  // namespace costdb
