#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "cloud/object_store.h"
#include "cloud/pricing.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/evaluator.h"
#include "optimizer/optimizer.h"
#include "storage/cache.h"
#include "storage/persistent.h"

namespace costdb {
namespace {

/// Fixture: two small tables with hand-checkable contents.
///
/// orders: id 0..9, cid = id % 3, amount = 10*id, odate = 1995-01-01 + id
/// customer: id 0..2, name in {alice, bob, carol}, tier = id
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto orders = std::make_shared<Table>(
        "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                         {"cid", LogicalType::kInt64},
                                         {"amount", LogicalType::kDouble},
                                         {"odate", LogicalType::kDate}},
        4);  // tiny row groups to exercise morsels + zone maps
    int64_t base_date = 0;
    EXPECT_TRUE(ParseDate("1995-01-01", &base_date));
    DataChunk oc({LogicalType::kInt64, LogicalType::kInt64,
                  LogicalType::kDouble, LogicalType::kDate});
    for (int64_t i = 0; i < 10; ++i) {
      oc.AppendRow({Value(i), Value(i % 3), Value(10.0 * i),
                    Value(base_date + i)});
    }
    orders->Append(oc);

    auto customer = std::make_shared<Table>(
        "customer", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                           {"name", LogicalType::kVarchar},
                                           {"tier", LogicalType::kInt64}});
    DataChunk cc({LogicalType::kInt64, LogicalType::kVarchar,
                  LogicalType::kInt64});
    cc.AppendRow({Value(int64_t{0}), Value(std::string("alice")), Value(int64_t{0})});
    cc.AppendRow({Value(int64_t{1}), Value(std::string("bob")), Value(int64_t{1})});
    cc.AppendRow({Value(int64_t{2}), Value(std::string("carol")), Value(int64_t{2})});
    customer->Append(cc);

    meta_.RegisterTable(orders);
    meta_.RegisterTable(customer);
    meta_.AnalyzeAll();
  }

  QueryResult Run(const std::string& sql, size_t threads = 4) {
    Optimizer opt(&meta_);
    auto plan = opt.OptimizeSql(sql);
    EXPECT_TRUE(plan.ok()) << sql << " -> " << plan.status().ToString();
    LocalEngine engine(threads);
    auto result = engine.Execute(plan->get());
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  MetadataService meta_;
};

TEST_F(ExecTest, ScanAll) {
  auto r = Run("SELECT id FROM orders");
  EXPECT_EQ(r.chunk.num_rows(), 10u);
}

TEST_F(ExecTest, FilterInt) {
  auto r = Run("SELECT id FROM orders WHERE id >= 7");
  ASSERT_EQ(r.chunk.num_rows(), 3u);
}

TEST_F(ExecTest, FilterDoubleAndArithmetic) {
  auto r = Run("SELECT amount * 2 AS dbl FROM orders WHERE amount > 75.0");
  // amounts 80, 90 -> doubled 160, 180
  ASSERT_EQ(r.chunk.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r.chunk.column(0).GetDouble(0) +
                       r.chunk.column(0).GetDouble(1),
                   340.0);
}

TEST_F(ExecTest, FilterDate) {
  auto r = Run(
      "SELECT id FROM orders WHERE odate BETWEEN DATE '1995-01-03' AND "
      "DATE '1995-01-05'");
  EXPECT_EQ(r.chunk.num_rows(), 3u);  // ids 2,3,4
}

TEST_F(ExecTest, FilterString) {
  auto r = Run("SELECT id FROM customer WHERE name = 'bob'");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 1);
}

TEST_F(ExecTest, LikePattern) {
  auto r = Run("SELECT name FROM customer WHERE name LIKE '%o%'");
  EXPECT_EQ(r.chunk.num_rows(), 2u);  // bob, carol
}

TEST_F(ExecTest, InList) {
  auto r = Run("SELECT id FROM orders WHERE id IN (1, 5, 9, 100)");
  EXPECT_EQ(r.chunk.num_rows(), 3u);
}

TEST_F(ExecTest, GlobalAggregates) {
  auto r = Run(
      "SELECT count(*), sum(amount), min(id), max(id), avg(amount) "
      "FROM orders");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 10);
  EXPECT_DOUBLE_EQ(r.chunk.column(1).GetDouble(0), 450.0);
  EXPECT_EQ(r.chunk.column(2).GetInt(0), 0);
  EXPECT_EQ(r.chunk.column(3).GetInt(0), 9);
  EXPECT_DOUBLE_EQ(r.chunk.column(4).GetDouble(0), 45.0);
}

TEST_F(ExecTest, GlobalAggregateOnEmptyInput) {
  auto r = Run("SELECT count(*) FROM orders WHERE id > 1000");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 0);
}

TEST_F(ExecTest, GroupByWithHavingAndOrder) {
  // cid 0: ids 0,3,6,9 -> sum 180 ; cid 1: 1,4,7 -> 120 ; cid 2: 2,5,8 -> 150
  auto r = Run(
      "SELECT cid, sum(amount) AS total FROM orders GROUP BY cid "
      "HAVING sum(amount) > 130 ORDER BY total DESC");
  ASSERT_EQ(r.chunk.num_rows(), 2u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 0);
  EXPECT_DOUBLE_EQ(r.chunk.column(1).GetDouble(0), 180.0);
  EXPECT_EQ(r.chunk.column(0).GetInt(1), 2);
}

TEST_F(ExecTest, JoinTwoWay) {
  auto r = Run(
      "SELECT o.id, c.name FROM orders o JOIN customer c ON o.cid = c.id "
      "WHERE c.name = 'bob' ORDER BY o.id");
  // cid=1 -> ids 1,4,7
  ASSERT_EQ(r.chunk.num_rows(), 3u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 1);
  EXPECT_EQ(r.chunk.column(0).GetInt(2), 7);
  EXPECT_EQ(r.chunk.column(1).GetString(1), "bob");
}

TEST_F(ExecTest, JoinWithAggregation) {
  auto r = Run(
      "SELECT c.name, sum(o.amount) AS total FROM orders o, customer c "
      "WHERE o.cid = c.id GROUP BY c.name ORDER BY total");
  ASSERT_EQ(r.chunk.num_rows(), 3u);
  EXPECT_EQ(r.chunk.column(0).GetString(0), "bob");      // 120
  EXPECT_EQ(r.chunk.column(0).GetString(1), "carol");    // 150
  EXPECT_EQ(r.chunk.column(0).GetString(2), "alice");    // 180
  EXPECT_DOUBLE_EQ(r.chunk.column(1).GetDouble(2), 180.0);
}

TEST_F(ExecTest, OrderByLimit) {
  auto r = Run("SELECT id FROM orders ORDER BY id DESC LIMIT 4");
  ASSERT_EQ(r.chunk.num_rows(), 4u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 9);
  EXPECT_EQ(r.chunk.column(0).GetInt(3), 6);
}

TEST_F(ExecTest, OrderByUnselectedColumn) {
  auto r = Run("SELECT amount FROM orders ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(r.chunk.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r.chunk.column(0).GetDouble(0), 90.0);
}

TEST_F(ExecTest, EmptyJoinResult) {
  auto r = Run(
      "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id "
      "WHERE c.name = 'nobody'");
  EXPECT_EQ(r.chunk.num_rows(), 0u);
}

TEST_F(ExecTest, DeterministicAcrossThreadCounts) {
  const std::string sql =
      "SELECT cid, count(*) AS n FROM orders GROUP BY cid ORDER BY cid";
  auto r1 = Run(sql, 1);
  auto r8 = Run(sql, 8);
  ASSERT_EQ(r1.chunk.num_rows(), r8.chunk.num_rows());
  for (size_t i = 0; i < r1.chunk.num_rows(); ++i) {
    EXPECT_EQ(r1.chunk.column(0).GetInt(i), r8.chunk.column(0).GetInt(i));
    EXPECT_EQ(r1.chunk.column(1).GetInt(i), r8.chunk.column(1).GetInt(i));
  }
}

TEST_F(ExecTest, ZoneMapPruningPreservesCorrectness) {
  // orders is appended in id order with row groups of 4, so id predicates
  // prune groups; the result must match the unpruned logical answer.
  auto r = Run("SELECT count(*) FROM orders WHERE id < 4");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 4);
}

TEST_F(ExecTest, ThreeWayJoinChain) {
  // Self-style chain through customer: orders->customer->customer tier.
  auto r = Run(
      "SELECT count(*) FROM orders o, customer c, customer d "
      "WHERE o.cid = c.id AND c.tier = d.tier");
  ASSERT_EQ(r.chunk.num_rows(), 1u);
  EXPECT_EQ(r.chunk.column(0).GetInt(0), 10);  // tiers unique -> 1:1
}

TEST_F(ExecTest, Int64OrderAboveTwoToThe53) {
  // 2^53 and 2^53+1 are one double; MIN/MAX and ORDER BY must still order
  // them as int64. Row groups of one row put every value in its own
  // morsel, so the cross-morsel merge decides MIN/MAX.
  const int64_t lo = int64_t{1} << 53;
  const int64_t hi = lo + 1;
  auto big = std::make_shared<Table>(
      "big", std::vector<ColumnDef>{{"g", LogicalType::kInt64},
                                    {"v", LogicalType::kInt64}},
      1);
  DataChunk bc({LogicalType::kInt64, LogicalType::kInt64});
  bc.AppendRow({Value(int64_t{1}), Value(hi)});  // group 1: larger first
  bc.AppendRow({Value(int64_t{1}), Value(lo)});
  bc.AppendRow({Value(int64_t{2}), Value(lo)});  // group 2: smaller first
  bc.AppendRow({Value(int64_t{2}), Value(hi)});
  big->Append(bc);
  meta_.RegisterTable(big);
  meta_.AnalyzeAll();

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto global = Run("SELECT min(v), max(v) FROM big WHERE g = 1", threads);
    ASSERT_EQ(global.chunk.num_rows(), 1u);
    EXPECT_EQ(global.chunk.column(0).GetInt(0), lo);
    EXPECT_EQ(global.chunk.column(1).GetInt(0), hi);
    global = Run("SELECT min(v), max(v) FROM big WHERE g = 2", threads);
    ASSERT_EQ(global.chunk.num_rows(), 1u);
    EXPECT_EQ(global.chunk.column(0).GetInt(0), lo);
    EXPECT_EQ(global.chunk.column(1).GetInt(0), hi);

    auto grouped = Run(
        "SELECT g, min(v) AS lo, max(v) AS hi FROM big GROUP BY g "
        "ORDER BY g",
        threads);
    ASSERT_EQ(grouped.chunk.num_rows(), 2u);
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(grouped.chunk.column(1).GetInt(r), lo) << "group row " << r;
      EXPECT_EQ(grouped.chunk.column(2).GetInt(r), hi) << "group row " << r;
    }

    auto asc = Run("SELECT v FROM big ORDER BY v", threads);
    auto desc = Run("SELECT v FROM big ORDER BY v DESC", threads);
    ASSERT_EQ(asc.chunk.num_rows(), 4u);
    ASSERT_EQ(desc.chunk.num_rows(), 4u);
    const int64_t want_asc[] = {lo, lo, hi, hi};
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(asc.chunk.column(0).GetInt(r), want_asc[r]) << "asc " << r;
      EXPECT_EQ(desc.chunk.column(0).GetInt(r), want_asc[3 - r])
          << "desc " << r;
    }
  }
}

/// Fixture for the hash-table tests: seeded random tables whose keys span
/// every key family — int, double (with -0.0 and 0.0), string (with "" and
/// '\x01') — with NULLs, in row groups small enough for many morsels.
class HashTableExecTest : public ExecTest {
 protected:
  static Value RandomKey(Rng* rng, LogicalType type, int64_t domain) {
    if (rng->NextDouble() < 0.08) return Value::Null();
    const double kDoubles[] = {0.0, -0.0, 0.5, -7.25, 1e-300};
    const std::string kStrings[] = {"", "a", "a\x01", "\x01", "b\x01\x01"};
    switch (type) {
      case LogicalType::kDouble:
        return Value(kDoubles[rng->UniformInt(0, 4)]);
      case LogicalType::kVarchar:
        return Value(kStrings[rng->UniformInt(0, 4)]);
      default:
        return Value(rng->UniformInt(0, domain - 1));
    }
  }

  /// (i int, d double, s varchar, x int) with random keys; x is a payload
  /// with its own NULLs.
  std::shared_ptr<Table> MakeKeyTable(const std::string& name, size_t rows,
                                      int64_t domain, size_t row_group,
                                      uint64_t seed) {
    auto t = std::make_shared<Table>(
        name, std::vector<ColumnDef>{{"i", LogicalType::kInt64},
                                     {"d", LogicalType::kDouble},
                                     {"s", LogicalType::kVarchar},
                                     {"x", LogicalType::kInt64}},
        row_group);
    DataChunk c({LogicalType::kInt64, LogicalType::kDouble,
                 LogicalType::kVarchar, LogicalType::kInt64});
    Rng rng(seed);
    for (size_t r = 0; r < rows; ++r) {
      c.AppendRow({RandomKey(&rng, LogicalType::kInt64, domain),
                   RandomKey(&rng, LogicalType::kDouble, domain),
                   RandomKey(&rng, LogicalType::kVarchar, domain),
                   RandomKey(&rng, LogicalType::kInt64, 1000)});
    }
    t->Append(c);
    meta_.RegisterTable(t);
    meta_.AnalyzeAll();
    return t;
  }

  /// Runs `sql` at 1, 2 and 4 engine threads; the three results must be
  /// byte-identical, row order included. Returns the 1-thread result.
  QueryResult RunAtAllWidths(const std::string& sql) {
    QueryResult first = Run(sql, 1);
    for (size_t threads : {2u, 4u}) {
      QueryResult r = Run(sql, threads);
      EXPECT_EQ(r.ToString(-1), first.ToString(-1))
          << sql << " at " << threads << " threads";
    }
    return first;
  }

  /// Table rows in scan order (row groups in append order).
  static std::vector<std::vector<Value>> Rows(const Table& t) {
    std::vector<std::vector<Value>> rows;
    for (const auto& group : t.row_groups()) {
      const DataChunk& data = group.data;
      for (size_t r = 0; r < data.num_rows(); ++r) {
        std::vector<Value> row;
        for (size_t c = 0; c < data.num_columns(); ++c) {
          row.push_back(data.column(c).GetValue(r));
        }
        rows.push_back(std::move(row));
      }
    }
    return rows;
  }
};

TEST_F(HashTableExecTest, GroupByMatchesEncodedKeyReference) {
  // 4000 rows in morsels of 512 over ~40*5*5 key combinations: every
  // morsel's group table outgrows its initial capacity.
  auto t = MakeKeyTable("gk", 4000, 40, 512, 11);
  auto rows = Rows(*t);
  struct Expected {
    std::vector<Value> key;  // first-seen row's key values
    int64_t n = 0;
    int64_t sum = 0;
  };
  const std::vector<std::vector<size_t>> key_sets = {{0, 1, 2}, {1}, {2, 0}};
  for (const auto& key_cols : key_sets) {
    std::string cols;
    for (size_t k : key_cols) {
      cols += (cols.empty() ? "" : ", ") + std::string(1, "idsx"[k]);
    }
    SCOPED_TRACE(cols);
    // Reference: groups keyed by the encoded row key — the engine's
    // grouping identity and output order — built row by row.
    std::map<std::string, Expected> expected;
    std::string key;
    for (const auto& row : rows) {
      std::vector<ColumnVector> vecs;
      for (size_t k : key_cols) {
        vecs.emplace_back(t->columns()[k].type);
        vecs.back().AppendValue(row[k]);
      }
      EncodeRowKeyInto(vecs, 0, &key);
      Expected& e = expected[key];
      if (e.n == 0) {
        for (size_t k : key_cols) e.key.push_back(row[k]);
      }
      ++e.n;
      if (!row[3].is_null()) e.sum += row[3].AsInt();
    }
    QueryResult r = RunAtAllWidths("SELECT " + cols +
                                   ", count(*) AS n, sum(x) AS t FROM gk "
                                   "GROUP BY " + cols);
    ASSERT_EQ(r.chunk.num_rows(), expected.size());
    size_t out = 0;
    for (const auto& [want_key, e] : expected) {
      EncodeChunkKeyInto(r.chunk, key_cols.size(), out, &key);
      EXPECT_EQ(key, want_key) << "row " << out;
      for (size_t k = 0; k < key_cols.size(); ++k) {
        const Value got = r.chunk.column(k).GetValue(out);
        EXPECT_EQ(got.is_null(), e.key[k].is_null());
        if (!got.is_null()) {
          EXPECT_EQ(got, e.key[k]) << "row " << out;
        }
      }
      EXPECT_EQ(r.chunk.column(key_cols.size()).GetInt(out), e.n);
      EXPECT_EQ(r.chunk.column(key_cols.size() + 1).GetInt(out), e.sum);
      ++out;
    }
    if (key_cols == std::vector<size_t>{1}) {
      // -0.0 and 0.0 are one group; NULL is one group.
      size_t zeros = 0, nulls = 0;
      for (size_t g = 0; g < r.chunk.num_rows(); ++g) {
        if (r.chunk.column(0).IsNull(g)) {
          ++nulls;
        } else if (r.chunk.column(0).GetDouble(g) == 0.0) {
          ++zeros;
        }
      }
      EXPECT_EQ(zeros, 1u);
      EXPECT_EQ(nulls, 1u);
    }
  }
}

TEST_F(HashTableExecTest, JoinMatchesNestedLoopNewestBuildRowFirst) {
  // A small build side with duplicate keys (domain 6) and NULL keys, a
  // larger probe side with NULL keys of its own.
  auto build = MakeKeyTable("jb", 120, 6, 32, 21);
  auto probe = MakeKeyTable("jp", 3000, 8, 256, 22);
  const auto build_rows = Rows(*build);
  const auto probe_rows = Rows(*probe);
  const std::vector<std::vector<size_t>> key_sets = {{0}, {0, 2}, {2, 1}};
  for (const auto& key_cols : key_sets) {
    std::string on;
    for (size_t k : key_cols) {
      const std::string c(1, "idsx"[k]);
      on += (on.empty() ? "" : " AND ") + ("jp." + c + " = jb." + c);
    }
    SCOPED_TRACE(on);
    const std::string sql = "SELECT jp.x, jb.x FROM jp JOIN jb ON " + on;
    // The reference order assumes jb is the build side.
    Optimizer opt(&meta_);
    auto plan = opt.OptimizeSql(sql);
    ASSERT_TRUE(plan.ok());
    const PhysicalPlan* join = plan->get();
    while (join->kind != PhysicalPlan::Kind::kHashJoin) {
      ASSERT_FALSE(join->children.empty()) << "no hash join";
      join = join->children[0].get();
    }
    const PhysicalPlan* build_scan = join->children[1].get();
    while (build_scan->table == nullptr) {
      build_scan = build_scan->children[0].get();
    }
    ASSERT_EQ(build_scan->table->name(), "jb");

    std::vector<std::pair<Value, Value>> want;
    for (const auto& p : probe_rows) {
      for (size_t b = build_rows.size(); b-- > 0;) {
        bool equal = true;
        for (size_t k : key_cols) {
          equal = equal && !p[k].is_null() && !build_rows[b][k].is_null() &&
                  p[k] == build_rows[b][k];
        }
        if (equal) want.emplace_back(p[3], build_rows[b][3]);
      }
    }
    QueryResult r = RunAtAllWidths(sql);
    ASSERT_EQ(r.chunk.num_rows(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const Value got_probe = r.chunk.column(0).GetValue(i);
      const Value got_build = r.chunk.column(1).GetValue(i);
      ASSERT_EQ(got_probe.is_null(), want[i].first.is_null()) << "row " << i;
      ASSERT_EQ(got_build.is_null(), want[i].second.is_null()) << "row " << i;
      if (!got_probe.is_null()) {
        ASSERT_EQ(got_probe, want[i].first) << "row " << i;
      }
      if (!got_build.is_null()) {
        ASSERT_EQ(got_build, want[i].second) << "row " << i;
      }
    }
  }
}

// ------------------------------------------------- late materialization

/// Hand-built plans over a small star schema, each checked row for row —
/// order included — against a row-at-a-time reference executor at 1, 2
/// and 4 engine threads. The plans are built by hand so their shapes are
/// known: which side of each join builds, where a Filter or Project sits
/// between joins, which probe keys are expressions, what is fused.
///
/// f (the probe side, row groups of 64): id, fk1, fk2, fk3, v, s — NULLs
/// in every foreign key and payload column. d1 (k, a, name), d2 (k, b) and
/// d3 (k, c) have duplicate keys (several matches per probe row), a NULL
/// key, and NULL payloads.
class LateMaterializationTest : public ::testing::Test {
 protected:
  using Row = std::vector<Value>;

  void SetUp() override {
    f_ = MakeFact("f");
    d1_ = std::make_shared<Table>(
        "d1", std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                                     {"a", LogicalType::kInt64},
                                     {"name", LogicalType::kVarchar}});
    DataChunk c1({LogicalType::kInt64, LogicalType::kInt64,
                  LogicalType::kVarchar});
    for (int64_t r = 0; r < 14; ++r) {
      c1.AppendRow({Value(r % 10),
                    r % 4 == 1 ? Value::Null() : Value(r * 3),
                    r % 5 == 2 ? Value::Null()
                               : Value("n" + std::to_string(r))});
    }
    c1.AppendRow({Value::Null(), Value(int64_t{99}), Value(std::string("nk"))});
    d1_->Append(c1);
    d2_ = MakeDim("d2", LogicalType::kInt64, 10, 9, 4);
    d3_ = MakeDim("d3", LogicalType::kVarchar, 5, 5, 3);
  }

  /// The fact table, `row_group` rows per group.
  static std::shared_ptr<Table> MakeFact(const std::string& name,
                                         size_t row_group = 64) {
    auto t = std::make_shared<Table>(
        name, std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                     {"fk1", LogicalType::kInt64},
                                     {"fk2", LogicalType::kInt64},
                                     {"fk3", LogicalType::kInt64},
                                     {"v", LogicalType::kInt64},
                                     {"s", LogicalType::kVarchar}},
        row_group);
    DataChunk c({LogicalType::kInt64, LogicalType::kInt64,
                 LogicalType::kInt64, LogicalType::kInt64,
                 LogicalType::kInt64, LogicalType::kVarchar});
    auto maybe_null = [](int64_t id, int64_t every, Value v) {
      return id % every == every - 1 ? Value::Null() : v;
    };
    for (int64_t id = 0; id < 600; ++id) {
      c.AppendRow({Value(id), maybe_null(id, 37, Value(id * 7 % 11)),
                   maybe_null(id, 53, Value(id * 3 % 9)),
                   maybe_null(id, 41, Value(id % 6)),
                   maybe_null(id, 13, Value(id % 97)),
                   maybe_null(id, 19, Value("s" + std::to_string(id % 17)))});
    }
    t->Append(c);
    return t;
  }

  /// (k, payload) with `rows` rows, k = row % `domain`, and the payload
  /// NULL on row `null_row`.
  static std::shared_ptr<Table> MakeDim(const std::string& name,
                                        LogicalType payload, int64_t rows,
                                        int64_t domain, int64_t null_row) {
    auto t = std::make_shared<Table>(
        name, std::vector<ColumnDef>{{"k", LogicalType::kInt64},
                                     {"p", payload}});
    DataChunk c({LogicalType::kInt64, payload});
    for (int64_t r = 0; r < rows; ++r) {
      Value p = payload == LogicalType::kVarchar
                    ? Value(name + "_" + std::to_string(r))
                    : Value(r * 10);
      c.AppendRow({Value(r % domain), r == null_row ? Value::Null() : p});
    }
    t->Append(c);
    return t;
  }

  // ---- plan builders

  static ExprPtr Col(const std::string& name, LogicalType type) {
    return Expr::MakeColumn(name, type);
  }
  static ExprPtr Int(int64_t v) {
    return Expr::MakeConstant(Value(v), LogicalType::kInt64);
  }

  static PhysicalPlanPtr Scan(const std::shared_ptr<Table>& t,
                              std::vector<ExprPtr> filters = {}) {
    auto p = std::make_shared<PhysicalPlan>();
    p->kind = PhysicalPlan::Kind::kTableScan;
    p->table = t;
    p->alias = t->name();
    for (size_t c = 0; c < t->columns().size(); ++c) {
      p->scan_column_indices.push_back(c);
      p->output_names.push_back(t->name() + "." + t->columns()[c].name);
      p->output_types.push_back(t->columns()[c].type);
    }
    p->scan_filters = std::move(filters);
    return p;
  }

  static PhysicalPlanPtr Join(PhysicalPlanPtr probe, PhysicalPlanPtr build,
                              ExprPtr probe_key, ExprPtr build_key) {
    auto p = std::make_shared<PhysicalPlan>();
    p->kind = PhysicalPlan::Kind::kHashJoin;
    p->output_names = probe->output_names;
    p->output_types = probe->output_types;
    p->output_names.insert(p->output_names.end(),
                           build->output_names.begin(),
                           build->output_names.end());
    p->output_types.insert(p->output_types.end(),
                           build->output_types.begin(),
                           build->output_types.end());
    p->probe_keys = {std::move(probe_key)};
    p->build_keys = {std::move(build_key)};
    p->children = {std::move(probe), std::move(build)};
    return p;
  }

  /// Join on probe column `probe_col` = build column `<build>.k`.
  static PhysicalPlanPtr JoinOn(PhysicalPlanPtr probe,
                                const std::shared_ptr<Table>& build,
                                const std::string& probe_col) {
    return Join(std::move(probe), Scan(build),
                Col(probe_col, LogicalType::kInt64),
                Col(build->name() + ".k", LogicalType::kInt64));
  }

  static PhysicalPlanPtr Filter(PhysicalPlanPtr child, ExprPtr predicate) {
    auto p = std::make_shared<PhysicalPlan>();
    p->kind = PhysicalPlan::Kind::kFilter;
    p->output_names = child->output_names;
    p->output_types = child->output_types;
    p->predicate = std::move(predicate);
    p->children = {std::move(child)};
    return p;
  }

  static PhysicalPlanPtr Project(
      PhysicalPlanPtr child,
      std::vector<std::pair<std::string, ExprPtr>> columns) {
    auto p = std::make_shared<PhysicalPlan>();
    p->kind = PhysicalPlan::Kind::kProject;
    for (auto& [name, e] : columns) {
      p->output_names.push_back(name);
      p->output_types.push_back(e->type);
      p->projections.push_back(std::move(e));
    }
    p->children = {std::move(child)};
    return p;
  }

  static PhysicalPlanPtr Aggregate(PhysicalPlanPtr child,
                                   std::vector<ExprPtr> group_by,
                                   std::vector<ExprPtr> aggregates) {
    auto p = std::make_shared<PhysicalPlan>();
    p->kind = PhysicalPlan::Kind::kHashAggregate;
    for (const auto& g : group_by) {
      p->output_names.push_back("g" + std::to_string(p->output_names.size()));
      p->output_types.push_back(g->type);
    }
    for (const auto& a : aggregates) {
      p->output_names.push_back("a" + std::to_string(p->output_names.size()));
      p->output_types.push_back(a->type);
      p->agg_names.push_back(p->output_names.back());
    }
    p->group_by = std::move(group_by);
    p->aggregates = std::move(aggregates);
    p->children = {std::move(child)};
    return p;
  }

  static PhysicalPlanPtr Limit(PhysicalPlanPtr child, int64_t n) {
    auto p = std::make_shared<PhysicalPlan>();
    p->kind = PhysicalPlan::Kind::kLimit;
    p->output_names = child->output_names;
    p->output_types = child->output_types;
    p->limit = n;
    p->children = {std::move(child)};
    return p;
  }

  // ---- row-at-a-time reference executor

  /// Every row of `rows` evaluated with the scalar reference path.
  static std::vector<Value> EvalRows(const Expr& e, const PhysicalPlan& node,
                                     const std::vector<Row>& rows) {
    DataChunk chunk(node.output_types);
    for (const Row& r : rows) chunk.AppendRow(r);
    Evaluator ev(&node.output_names);
    std::vector<Value> out;
    for (size_t r = 0; r < rows.size(); ++r) {
      auto v = ev.EvaluateRow(e, chunk, r);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      out.push_back(v.ok() ? *v : Value::Null());
    }
    return out;
  }

  static bool Truthy(const Value& v) {
    if (v.is_null() || v.is_string()) return false;
    return v.is_int() ? v.AsInt() != 0 : v.AsDouble() != 0.0;
  }

  /// Scans visit row groups in order; a join is a nested loop in the
  /// engine's match-order contract — probe rows ascending, each probe
  /// row's matches newest build row first, NULL keys matching nothing;
  /// groups come out in encoded-key order, and a global aggregate over no
  /// rows is one row of zeros.
  static std::vector<Row> Reference(const PhysicalPlan& p) {
    std::vector<Row> out;
    switch (p.kind) {
      case PhysicalPlan::Kind::kTableScan: {
        auto data = p.table->ScanPinned();
        EXPECT_TRUE(data.ok());
        std::vector<Row> rows;
        for (size_t r = 0; data.ok() && r < data->num_rows(); ++r) {
          Row row;
          for (size_t c : p.scan_column_indices) {
            row.push_back(data->column(c).GetValue(r));
          }
          rows.push_back(std::move(row));
        }
        std::vector<bool> keep(rows.size(), true);
        for (const auto& f : p.scan_filters) {
          const std::vector<Value> v = EvalRows(*f, p, rows);
          for (size_t r = 0; r < rows.size(); ++r) {
            keep[r] = keep[r] && Truthy(v[r]);
          }
        }
        for (size_t r = 0; r < rows.size(); ++r) {
          if (keep[r]) out.push_back(rows[r]);
        }
        return out;
      }
      case PhysicalPlan::Kind::kFilter: {
        const std::vector<Row> in = Reference(*p.children[0]);
        const std::vector<Value> v = EvalRows(*p.predicate, p, in);
        for (size_t r = 0; r < in.size(); ++r) {
          if (Truthy(v[r])) out.push_back(in[r]);
        }
        return out;
      }
      case PhysicalPlan::Kind::kProject: {
        const PhysicalPlan& child = *p.children[0];
        const std::vector<Row> in = Reference(child);
        out.assign(in.size(), Row());
        for (const auto& e : p.projections) {
          const std::vector<Value> v = EvalRows(*e, child, in);
          for (size_t r = 0; r < in.size(); ++r) out[r].push_back(v[r]);
        }
        return out;
      }
      case PhysicalPlan::Kind::kHashJoin: {
        const PhysicalPlan& probe = *p.children[0];
        const PhysicalPlan& build = *p.children[1];
        const std::vector<Row> probe_rows = Reference(probe);
        const std::vector<Row> build_rows = Reference(build);
        const std::vector<Value> pk = EvalRows(*p.probe_keys[0], probe,
                                               probe_rows);
        const std::vector<Value> bk = EvalRows(*p.build_keys[0], build,
                                               build_rows);
        for (size_t r = 0; r < probe_rows.size(); ++r) {
          for (size_t b = build_rows.size(); b-- > 0;) {
            if (pk[r].is_null() || bk[b].is_null() || !(pk[r] == bk[b])) {
              continue;
            }
            Row row = probe_rows[r];
            row.insert(row.end(), build_rows[b].begin(), build_rows[b].end());
            out.push_back(std::move(row));
          }
        }
        return out;
      }
      case PhysicalPlan::Kind::kLimit: {
        out = Reference(*p.children[0]);
        if (static_cast<int64_t>(out.size()) > p.limit) out.resize(p.limit);
        return out;
      }
      case PhysicalPlan::Kind::kHashAggregate:
        return ReferenceAggregate(p);
      default:
        ADD_FAILURE() << "reference has no " << p.KindName();
        return out;
    }
  }

  /// COUNT(*), COUNT(x), SUM(int x) and MAX(x) only.
  static std::vector<Row> ReferenceAggregate(const PhysicalPlan& p) {
    const PhysicalPlan& child = *p.children[0];
    const std::vector<Row> in = Reference(child);
    std::vector<std::vector<Value>> keys;
    for (const auto& g : p.group_by) keys.push_back(EvalRows(*g, child, in));
    std::vector<std::vector<Value>> inputs;
    for (const auto& a : p.aggregates) {
      inputs.push_back(a->children.empty()
                           ? std::vector<Value>(in.size())
                           : EvalRows(*a->children[0], child, in));
    }
    struct Group {
      Row key;
      std::vector<int64_t> n;
      std::vector<Value> max;
    };
    std::map<std::string, Group> groups;
    std::string encoded;
    for (size_t r = 0; r < in.size(); ++r) {
      std::vector<ColumnVector> key_cols;
      for (size_t g = 0; g < keys.size(); ++g) {
        key_cols.emplace_back(p.group_by[g]->type);
        key_cols.back().AppendValue(keys[g][r]);
      }
      EncodeRowKeyInto(key_cols, 0, &encoded);
      auto [it, inserted] = groups.try_emplace(encoded);
      Group& grp = it->second;
      if (inserted) {
        for (const auto& k : keys) grp.key.push_back(k[r]);
        grp.n.assign(p.aggregates.size(), 0);
        grp.max.assign(p.aggregates.size(), Value::Null());
      }
      for (size_t a = 0; a < p.aggregates.size(); ++a) {
        const Value& v = inputs[a][r];
        switch (p.aggregates[a]->agg) {
          case AggFunc::kCountStar:
            ++grp.n[a];
            break;
          case AggFunc::kCount:
            if (!v.is_null()) ++grp.n[a];
            break;
          case AggFunc::kSum:
            if (!v.is_null()) grp.n[a] += v.AsInt();
            break;
          default:  // kMax
            if (!v.is_null() && (grp.max[a].is_null() || grp.max[a] < v)) {
              grp.max[a] = v;
            }
        }
      }
    }
    if (groups.empty() && p.group_by.empty()) {
      Group& zero = groups[""];
      zero.n.assign(p.aggregates.size(), 0);
      zero.max.assign(p.aggregates.size(), Value::Null());
    }
    std::vector<Row> out;
    for (const auto& [key, grp] : groups) {
      Row row = grp.key;
      for (size_t a = 0; a < p.aggregates.size(); ++a) {
        if (p.aggregates[a]->agg != AggFunc::kMax) {
          row.push_back(Value(grp.n[a]));
        } else if (!grp.max[a].is_null()) {
          row.push_back(grp.max[a]);
        } else {  // the NULL-free result convention zero-fills
          row.push_back(p.aggregates[a]->type == LogicalType::kVarchar
                            ? Value(std::string())
                            : Value(int64_t{0}));
        }
      }
      out.push_back(std::move(row));
    }
    return out;
  }

  /// The reference result as printed rows.
  static std::string ReferenceText(const PhysicalPlan& plan) {
    DataChunk want(plan.output_types);
    for (const Row& r : Reference(plan)) want.AppendRow(r);
    return want.ToString(-1);
  }

  /// Executes `plan` at 1, 2 and 4 threads; each result must print exactly
  /// like the reference. Returns the reference row count.
  static size_t ExpectMatchesReference(const PhysicalPlanPtr& plan) {
    const std::string want = ReferenceText(*plan);
    for (size_t threads : {1u, 2u, 4u}) {
      LocalEngine engine(threads);
      auto got = engine.Execute(plan.get());
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok()) return 0;
      EXPECT_EQ(got->chunk.ToString(-1), want) << threads << " threads";
    }
    return static_cast<size_t>(std::count(want.begin(), want.end(), '\n'));
  }

  /// The star f ⋈ d1 ⋈ d2 ⋈ d3 (f probes every join), with `scan_filters`
  /// on f.
  PhysicalPlanPtr Star(std::vector<ExprPtr> scan_filters = {}) const {
    PhysicalPlanPtr p = JoinOn(Scan(f_, std::move(scan_filters)), d1_,
                               "f.fk1");
    p = JoinOn(std::move(p), d2_, "f.fk2");
    return JoinOn(std::move(p), d3_, "f.fk3");
  }

  std::shared_ptr<Table> f_, d1_, d2_, d3_;
};

TEST_F(LateMaterializationTest, StarJoinGathersBuildColumnsOnlyWhereRead) {
  // d1.name (a build column of join 1) is first read by the GROUP BY after
  // join 3; d1.a is never read. Unfused, then with the scan filter and the
  // first probe fused.
  for (bool fused : {false, true}) {
    SCOPED_TRACE(fused ? "fused" : "unfused");
    PhysicalPlanPtr star = Star({Expr::MakeCompare(
        CompareOp::kLt, Col("f.v", LogicalType::kInt64), Int(90))});
    PhysicalPlan* scan = star.get();
    while (scan->kind != PhysicalPlan::Kind::kTableScan) {
      scan = scan->children[0].get();
    }
    scan->fuse_scan_filter = fused;
    star->children[0]->children[0]->fuse_probe = fused;
    PhysicalPlanPtr agg = Aggregate(
        star, {Col("d1.name", LogicalType::kVarchar)},
        {Expr::MakeAgg(AggFunc::kCountStar, nullptr),
         Expr::MakeAgg(AggFunc::kSum, Col("f.v", LogicalType::kInt64)),
         Expr::MakeAgg(AggFunc::kCount, Col("d3.p", LogicalType::kVarchar)),
         Expr::MakeAgg(AggFunc::kMax, Col("f.s", LogicalType::kVarchar))});
    EXPECT_GT(ExpectMatchesReference(agg), 3u);

    LocalEngine engine(2);
    ASSERT_TRUE(engine.Execute(agg.get()).ok());
    EXPECT_EQ(engine.last_fused_stats().fused_probe_morsels > 0, fused);
  }
}

TEST_F(LateMaterializationTest, NullPayloadsSurviveComposedSelections) {
  // Every column of the star comes out: NULL validity of probe payloads
  // (f.v, f.s) and build payloads (d1.a, d1.name, d2.p, d3.p) must follow
  // rows through three composed selections, with and without a filter.
  EXPECT_GT(ExpectMatchesReference(Star()), 100u);
  EXPECT_GT(ExpectMatchesReference(Star({Expr::MakeCompare(
                CompareOp::kGe, Col("f.id", LogicalType::kInt64),
                Int(100))})),
            100u);
}

TEST_F(LateMaterializationTest, FilterAndProjectBetweenJoins) {
  // f ⋈ d1, then a Filter reading both sides (NULL d1.a deselects), a
  // Project, and a join on a computed probe key.
  PhysicalPlanPtr p = JoinOn(Scan(f_), d1_, "f.fk1");
  p = Filter(p, Expr::MakeCompare(
                    CompareOp::kGt,
                    Expr::MakeArith('+', Col("f.v", LogicalType::kInt64),
                                    Col("d1.a", LogicalType::kInt64)),
                    Int(40)));
  p = Project(p, {{"p.fk2", Col("f.fk2", LogicalType::kInt64)},
                  {"p.name", Col("d1.name", LogicalType::kVarchar)},
                  {"p.v", Col("f.v", LogicalType::kInt64)}});
  p = Join(p, Scan(d2_),
           Expr::MakeArith('+', Col("p.fk2", LogicalType::kInt64), Int(1)),
           Expr::MakeArith('+', Col("d2.k", LogicalType::kInt64), Int(1)));
  EXPECT_GT(ExpectMatchesReference(p), 50u);
  // The same chain into a grouped aggregate.
  PhysicalPlanPtr agg = Aggregate(
      p, {Col("d2.p", LogicalType::kInt64)},
      {Expr::MakeAgg(AggFunc::kSum, Col("p.v", LogicalType::kInt64)),
       Expr::MakeAgg(AggFunc::kMax, Col("p.name", LogicalType::kVarchar))});
  EXPECT_GT(ExpectMatchesReference(agg), 3u);
}

TEST_F(LateMaterializationTest, EmptyMorselsFeedAGlobalAggregate) {
  auto global = [](PhysicalPlanPtr child) {
    return Aggregate(
        std::move(child), {},
        {Expr::MakeAgg(AggFunc::kCountStar, nullptr),
         Expr::MakeAgg(AggFunc::kSum, Col("f.v", LogicalType::kInt64)),
         Expr::MakeAgg(AggFunc::kMax, Col("d1.name", LogicalType::kVarchar))});
  };
  // Every row filtered out.
  EXPECT_EQ(ExpectMatchesReference(global(Star({Expr::MakeCompare(
                CompareOp::kGt, Col("f.v", LogicalType::kInt64),
                Int(1000))}))),
            1u);
  // No probe row matches.
  auto none = MakeDim("none", LogicalType::kInt64, 5, 5, -1);
  PhysicalPlanPtr p = Join(JoinOn(Scan(f_), d1_, "f.fk1"), Scan(none),
                           Col("f.fk2", LogicalType::kInt64),
                           Expr::MakeArith('+', Col("none.k",
                                                    LogicalType::kInt64),
                                           Int(100)));
  EXPECT_EQ(ExpectMatchesReference(global(p)), 1u);
  // Only the first morsel keeps rows; the others arrive empty.
  EXPECT_EQ(ExpectMatchesReference(global(Star({Expr::MakeCompare(
                CompareOp::kLt, Col("f.id", LogicalType::kInt64),
                Int(40))}))),
            1u);
}

/// Collects streamed chunks in push order.
class CollectingSink : public ChunkSink {
 public:
  Status Push(DataChunk chunk) override {
    if (all_.num_columns() == 0) all_ = DataChunk(chunk.Types());
    all_.Append(chunk);
    return Status::OK();
  }
  const DataChunk& all() const { return all_; }

 private:
  DataChunk all_;
};

TEST_F(LateMaterializationTest, ExecuteToSinkLimitOverJoin) {
  for (int64_t limit : {0, 7, 150}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    PhysicalPlanPtr plan = Limit(
        JoinOn(Scan(f_, {Expr::MakeCompare(CompareOp::kGe,
                                          Col("f.id", LogicalType::kInt64),
                                          Int(30))}),
               d1_, "f.fk1"),
        limit);
    const std::string want = ReferenceText(*plan);
    for (size_t threads : {1u, 2u, 4u}) {
      LocalEngine engine(threads);
      CollectingSink sink;
      auto streamed = engine.ExecuteToSink(plan.get(), &sink);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(streamed->rows_streamed, static_cast<size_t>(limit));
      EXPECT_EQ(sink.all().ToString(-1), want) << threads << " threads";
    }
  }
}

TEST_F(LateMaterializationTest, PersistedProbeSideBehindATinyBlockCache) {
  // The block cache holds less than one block, so every cold row group is
  // decoded, handed to the scan and evicted at once: the morsel's pin is
  // the only holder of the columns the chunk borrows.
  PricingCatalog pricing = PricingCatalog::Default();
  SimulatedObjectStore store(&pricing);
  const auto spill =
      std::filesystem::temp_directory_path() / "costdb_test_late_cold";
  std::filesystem::remove_all(spill);
  ASSERT_TRUE(store.EnableSpill(spill.string()).ok());
  BlockCache cache(/*capacity_bytes=*/256);
  auto cold = MakeFact("f");
  std::vector<LogicalType> types;
  for (const auto& c : cold->columns()) types.push_back(c.type);
  ASSERT_TRUE(cold->AttachStorage(std::make_shared<TableStorage>(
                                      cold->name(), std::move(types),
                                      cold->row_group_size(), &store,
                                      &cache, StorageOptions(),
                                      [] { return StoragePricing(); }))
                  .ok());
  for (const auto& g : cold->row_groups()) ASSERT_FALSE(g.resident);
  f_ = cold;

  EXPECT_GT(ExpectMatchesReference(Star()), 100u);
  PhysicalPlanPtr agg = Aggregate(
      Star(), {Col("d1.name", LogicalType::kVarchar)},
      {Expr::MakeAgg(AggFunc::kSum, Col("f.v", LogicalType::kInt64)),
       Expr::MakeAgg(AggFunc::kMax, Col("f.s", LogicalType::kVarchar))});
  EXPECT_GT(ExpectMatchesReference(agg), 3u);
  LocalEngine engine(4);
  ASSERT_TRUE(engine.Execute(agg.get()).ok());
  EXPECT_GT(engine.last_block_stats().misses, 0);
  EXPECT_EQ(cache.entries(), 0u);
  std::filesystem::remove_all(spill);
}

TEST(EvaluatorTest, EvaluateRefBorrowsBareColumns) {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kVarchar});
  chunk.AppendRow({Value(int64_t{4}), Value(std::string("x"))});
  chunk.AppendRow({Value(int64_t{6}), Value::Null()});
  std::vector<std::string> names = {"a", "s"};
  Evaluator ev(&names);
  ColumnVector scratch;

  auto bare = ev.EvaluateRef(*Expr::MakeColumn("s", LogicalType::kVarchar),
                             chunk, &scratch);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(*bare, &chunk.column(1));  // the chunk's own column, no copy
  EXPECT_EQ(scratch.size(), 0u);

  auto computed = ev.EvaluateRef(
      *Expr::MakeArith('+', Expr::MakeColumn("a", LogicalType::kInt64),
                       Expr::MakeConstant(Value(int64_t{1}),
                                          LogicalType::kInt64)),
      chunk, &scratch);
  ASSERT_TRUE(computed.ok());
  EXPECT_EQ(*computed, &scratch);
  ASSERT_EQ(scratch.size(), 2u);
  EXPECT_EQ(scratch.GetInt(0), 5);
  EXPECT_EQ(scratch.GetInt(1), 7);

  EXPECT_FALSE(ev.EvaluateRef(*Expr::MakeColumn("nope", LogicalType::kInt64),
                              chunk, &scratch)
                   .ok());
}

TEST(LikeMatchTest, Patterns) {
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_abc"));
  EXPECT_FALSE(LikeMatch("hello", "hello!"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
}

TEST(EvaluatorTest, ArithmeticAndLogic) {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kDouble});
  chunk.AppendRow({Value(int64_t{4}), Value(2.0)});
  chunk.AppendRow({Value(int64_t{6}), Value(3.0)});
  std::vector<std::string> names = {"a", "b"};
  Evaluator ev(&names);

  auto sum = Expr::MakeArith('+', Expr::MakeColumn("a", LogicalType::kInt64),
                             Expr::MakeColumn("b", LogicalType::kDouble));
  auto v = ev.Evaluate(*sum, chunk);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->GetDouble(0), 6.0);
  EXPECT_DOUBLE_EQ(v->GetDouble(1), 9.0);

  auto div = Expr::MakeArith('/', Expr::MakeColumn("a", LogicalType::kInt64),
                             Expr::MakeColumn("b", LogicalType::kDouble));
  v = ev.Evaluate(*div, chunk);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->GetDouble(1), 2.0);

  auto cmp = Expr::MakeCompare(CompareOp::kGt,
                               Expr::MakeColumn("a", LogicalType::kInt64),
                               Expr::MakeConstant(Value(int64_t{5}),
                                                  LogicalType::kInt64));
  auto sel = ev.EvaluateSelection(*cmp, chunk);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->size(), 1u);
  EXPECT_EQ((*sel)[0], 1u);
}

}  // namespace
}  // namespace costdb
