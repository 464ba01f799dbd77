#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "exec/engine.h"
#include "exec/evaluator.h"
#include "optimizer/optimizer.h"

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
