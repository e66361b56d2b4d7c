// Executor tests: each operator, hash-vs-nested-loop equivalence, masks.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "exec/operators.h"
#include "expr/binder.h"
#include "sql/parser.h"
#include "tests/oracle/row_engine.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER);"
        "INSERT INTO r VALUES (1,10),(2,20),(3,30),(4,40);"
        "INSERT INTO s VALUES (2,20),(3,33),(5,50)"));
  }

  ResultSet Run(const std::string& q) {
    auto rs = db_.Query(q);
    EXPECT_OK(rs.status()) << q;
    return std::move(rs).value();
  }

  Database db_;
};

TEST_F(ExecTest, ScanAll) {
  EXPECT_EQ(Run("SELECT * FROM r").NumRows(), 4u);
}

TEST_F(ExecTest, FilterComparisons) {
  EXPECT_EQ(Run("SELECT * FROM r WHERE a > 2").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM r WHERE a >= 2 AND b <= 30").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM r WHERE a = 1 OR a = 4").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM r WHERE NOT (a = 1)").NumRows(), 3u);
}

TEST_F(ExecTest, ProjectionAndDedup) {
  // b%10=0 for all but (3,33); project b%10 -> duplicates collapse.
  ResultSet rs = Run("SELECT b % 10 FROM s");
  EXPECT_EQ(rs.NumRows(), 2u);  // {0, 3}
}

TEST_F(ExecTest, HashJoinOnEquality) {
  ResultSet rs = Run("SELECT * FROM r, s WHERE r.a = s.a");
  EXPECT_EQ(rs.NumRows(), 2u);
  EXPECT_TRUE(rs.Contains(Row{Value::Int(2), Value::Int(20), Value::Int(2),
                              Value::Int(20)}));
}

TEST_F(ExecTest, JoinWithResidualPredicate) {
  ResultSet rs = Run("SELECT * FROM r, s WHERE r.a = s.a AND r.b < s.b");
  EXPECT_EQ(rs.NumRows(), 1u);  // (3,30,3,33)
}

TEST_F(ExecTest, NestedLoopJoinOnInequality) {
  // Pairs with r.a < s.a: (1,2),(1,3),(1,5),(2,3),(2,5),(3,5),(4,5).
  ResultSet rs = Run("SELECT * FROM r, s WHERE r.a < s.a");
  EXPECT_EQ(rs.NumRows(), 7u);
}

TEST_F(ExecTest, CartesianProduct) {
  EXPECT_EQ(Run("SELECT * FROM r, s").NumRows(), 12u);
}

TEST_F(ExecTest, UnionDeduplicates) {
  EXPECT_EQ(Run("SELECT * FROM r UNION SELECT * FROM s").NumRows(), 6u);
  EXPECT_EQ(Run("SELECT * FROM r UNION SELECT * FROM r").NumRows(), 4u);
}

TEST_F(ExecTest, Difference) {
  ResultSet rs = Run("SELECT * FROM r EXCEPT SELECT * FROM s");
  EXPECT_EQ(rs.NumRows(), 3u);  // r minus (2,20)
  EXPECT_FALSE(rs.Contains(Row{Value::Int(2), Value::Int(20)}));
}

TEST_F(ExecTest, Intersect) {
  ResultSet rs = Run("SELECT * FROM r INTERSECT SELECT * FROM s");
  EXPECT_EQ(rs.NumRows(), 1u);
  EXPECT_TRUE(rs.Contains(Row{Value::Int(2), Value::Int(20)}));
}

TEST_F(ExecTest, SortAscDesc) {
  ResultSet rs = Run("SELECT * FROM r ORDER BY a DESC");
  ASSERT_EQ(rs.NumRows(), 4u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(4));
  EXPECT_EQ(rs.rows[3][0], Value::Int(1));
  ResultSet asc = Run("SELECT * FROM s ORDER BY b");
  EXPECT_EQ(asc.rows[0][1], Value::Int(20));
}

TEST_F(ExecTest, EmptyInputsFlowThrough) {
  ASSERT_OK(db_.Execute("CREATE TABLE e (a INTEGER, b INTEGER)"));
  EXPECT_EQ(Run("SELECT * FROM e").NumRows(), 0u);
  EXPECT_EQ(Run("SELECT * FROM e, r").NumRows(), 0u);
  EXPECT_EQ(Run("SELECT * FROM r EXCEPT SELECT * FROM e").NumRows(), 4u);
  EXPECT_EQ(Run("SELECT * FROM e UNION SELECT * FROM r").NumRows(), 4u);
  EXPECT_EQ(Run("SELECT * FROM e INTERSECT SELECT * FROM r").NumRows(), 0u);
}

TEST_F(ExecTest, NullJoinKeysNeverMatch) {
  ASSERT_OK(db_.Execute(
      "CREATE TABLE n1 (a INTEGER); CREATE TABLE n2 (a INTEGER);"
      "INSERT INTO n1 VALUES (NULL), (1); INSERT INTO n2 VALUES (NULL), (1)"));
  EXPECT_EQ(Run("SELECT * FROM n1, n2 WHERE n1.a = n2.a").NumRows(), 1u);
}

TEST_F(ExecTest, RowMaskHidesRows) {
  auto plan = db_.Plan("SELECT * FROM r");
  ASSERT_OK(plan.status());
  RowMask mask;
  mask.SetAllowed(0, {true, false, true, false});
  ExecContext ctx{&db_.catalog(), &mask};
  auto rs = Execute(*plan.value(), ctx);
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 2u);
}

TEST_F(ExecTest, ResultSetHelpers) {
  ResultSet rs = Run("SELECT * FROM r");
  EXPECT_TRUE(rs.Contains(Row{Value::Int(1), Value::Int(10)}));
  EXPECT_FALSE(rs.Contains(Row{Value::Int(9), Value::Int(9)}));
  rs.SortRows();
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
  std::string str = rs.ToString(2);
  EXPECT_NE(str.find("more"), std::string::npos);
}

// Property: hash join and nested-loop join agree on random inputs.
class JoinEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalence, HashEqualsNestedLoop) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE l (a INTEGER, b INTEGER);"
      "CREATE TABLE r (a INTEGER, b INTEGER)"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(db.InsertRow("l", Row{Value::Int(rng.UniformInt(0, 9)),
                                    Value::Int(rng.UniformInt(0, 9))}));
    ASSERT_OK(db.InsertRow("r", Row{Value::Int(rng.UniformInt(0, 9)),
                                    Value::Int(rng.UniformInt(0, 9))}));
  }
  // Equi-join (hash path)...
  auto hash_rs = db.Query("SELECT * FROM l, r WHERE l.a = r.a AND l.b <= r.b");
  ASSERT_OK(hash_rs.status());
  // ...same semantics phrased so no equi-pair is extractable (NL path):
  // l.a <= r.a AND l.a >= r.a  ⇔  l.a = r.a.
  auto nl_rs = db.Query(
      "SELECT * FROM l, r WHERE l.a <= r.a AND l.a >= r.a AND l.b <= r.b");
  ASSERT_OK(nl_rs.status());
  EXPECT_EQ(SortedRows(hash_rs.value()), SortedRows(nl_rs.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: set operations satisfy algebraic identities on random inputs.
class SetOpLaws : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetOpLaws, IntersectionViaDoubleDifference) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE x (a INTEGER); CREATE TABLE y (a INTEGER)"));
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(db.InsertRow("x", Row{Value::Int(rng.UniformInt(0, 14))}));
    ASSERT_OK(db.InsertRow("y", Row{Value::Int(rng.UniformInt(0, 14))}));
  }
  auto direct = db.Query("SELECT * FROM x INTERSECT SELECT * FROM y");
  auto derived = db.Query(
      "SELECT * FROM x EXCEPT (SELECT * FROM x EXCEPT SELECT * FROM y)");
  ASSERT_OK(direct.status());
  ASSERT_OK(derived.status());
  EXPECT_EQ(SortedRows(direct.value()), SortedRows(derived.value()));
}

TEST_P(SetOpLaws, UnionIdempotentAndCommutative) {
  Rng rng(GetParam() + 100);
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE x (a INTEGER); CREATE TABLE y (a INTEGER)"));
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(db.InsertRow("x", Row{Value::Int(rng.UniformInt(0, 14))}));
    ASSERT_OK(db.InsertRow("y", Row{Value::Int(rng.UniformInt(0, 14))}));
  }
  auto xy = db.Query("SELECT * FROM x UNION SELECT * FROM y");
  auto yx = db.Query("SELECT * FROM y UNION SELECT * FROM x");
  auto xx = db.Query("SELECT * FROM x UNION SELECT * FROM x");
  auto x = db.Query("SELECT * FROM x");
  ASSERT_OK(xy.status());
  EXPECT_EQ(SortedRows(xy.value()), SortedRows(yx.value()));
  EXPECT_EQ(SortedRows(xx.value()), SortedRows(x.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpLaws,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(OperatorsTest, DedupPreservesFirstOccurrenceOrder) {
  std::vector<Row> rows = {{Value::Int(2)}, {Value::Int(1)}, {Value::Int(2)},
                           {Value::Int(3)}, {Value::Int(1)}};
  std::vector<Row> out = exec::DedupRows(std::move(rows));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0], Value::Int(2));
  EXPECT_EQ(out[1][0], Value::Int(1));
  EXPECT_EQ(out[2][0], Value::Int(3));
}

TEST(OperatorsTest, AntiJoinKernel) {
  // left rows with no right partner under l0 = r0.
  std::vector<Row> left = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}};
  std::vector<Row> right = {{Value::Int(2)}};
  auto cond = std::make_unique<ComparisonExpr>(
      CompareOp::kEq, ColumnRefExpr::Bound(0, TypeId::kInt),
      ColumnRefExpr::Bound(1, TypeId::kInt));
  cond->set_result_type(TypeId::kBool);
  std::vector<Row> out;
  oracle::AntiJoinRows(left, right, *cond, 1, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0], Value::Int(1));
  EXPECT_EQ(out[1][0], Value::Int(3));
}

// ---------------------------------------------------------------------------
// Batch kernels against the row oracle's kernels: exact row sequences.

/// NULL, or 1..3 as an INT or as the equal DOUBLE (1 vs 1.0): builds see
/// duplicate keys, NULL keys and cross-type-equal keys.
Value RandomKey(Rng* rng) {
  int64_t k = rng->UniformInt(0, 3);
  if (k == 0) return Value::Null();
  if (rng->UniformInt(0, 1) == 0) return Value::Int(k);
  return Value::Double(static_cast<double>(k));
}

std::vector<Row> RandomKeyedRows(Rng* rng, size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Value key = RandomKey(rng);
    rows.push_back(Row{key, Value::Int(rng->UniformInt(0, 4))});
  }
  return rows;
}

/// (key INTEGER, v INTEGER); DOUBLE keys make the key column mixed-mode.
/// Every other row is selected away, so kernels read through a selection.
ColumnBatch KeyedBatch(const std::vector<Row>& rows,
                       std::vector<Row>* selected) {
  std::vector<uint32_t> keep;
  for (uint32_t i = 0; i < rows.size(); i += 2) {
    keep.push_back(i);
    selected->push_back(rows[i]);
  }
  return ColumnBatch::FromRows(rows, {TypeId::kInt, TypeId::kInt})
      .Narrow(keep);
}

/// Binds `text` over `tables` copies of (key, v), qualified t0, t1, ...
ExprPtr BindOverCopies(const std::string& text, size_t tables) {
  Schema schema;
  for (size_t t = 0; t < tables; ++t) {
    std::string q = "t" + std::to_string(t);
    schema.AddColumn(Column("key", TypeId::kInt, q));
    schema.AddColumn(Column("v", TypeId::kInt, q));
  }
  auto parsed = sql::ParseExpression(text);
  EXPECT_OK(parsed.status()) << text;
  ExprPtr e = std::move(parsed).value();
  EXPECT_OK(ExprBinder(schema).BindPredicate(e.get())) << text;
  return e;
}

class BatchKernelOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchKernelOracle, JoinChainMatchesRowKernel) {
  Rng rng(GetParam());
  std::vector<Row> probe_all = RandomKeyedRows(&rng, 40);
  std::vector<Row> b0_all = RandomKeyedRows(&rng, 30);
  std::vector<Row> b1_all = RandomKeyedRows(&rng, 30);
  std::vector<Row> probe, b0, b1;
  ColumnBatch probe_batch = KeyedBatch(probe_all, &probe);
  ColumnBatch b0_batch = KeyedBatch(b0_all, &b0);
  ColumnBatch b1_batch = KeyedBatch(b1_all, &b1);
  ExprPtr c0 = BindOverCopies("t0.key = t1.key AND t0.v <= t1.v", 2);
  ExprPtr c1 = BindOverCopies("t1.key = t2.key", 3);

  oracle::JoinChain rows(2, {{&b0, c0.get(), 2}, {&b1, c1.get(), 2}},
                         nullptr);
  std::vector<Row> expected;
  rows.Probe(probe, 0, probe.size(), &expected);
  exec::BatchJoinChain batch(&probe_batch,
                             {{&b0_batch, c0.get()}, {&b1_batch, c1.get()}},
                             nullptr);
  std::vector<uint32_t> tuples;
  batch.Probe(0, probe_batch.NumRows(), &tuples);
  EXPECT_EQ(batch.Materialize(tuples).ToRows(), expected);
}

TEST_P(BatchKernelOracle, AntiJoinMatchesRowKernel) {
  Rng rng(GetParam());
  std::vector<Row> left_all = RandomKeyedRows(&rng, 40);
  std::vector<Row> right_all = RandomKeyedRows(&rng, 12);
  std::vector<Row> left, right;
  ColumnBatch left_batch = KeyedBatch(left_all, &left);
  ColumnBatch right_batch = KeyedBatch(right_all, &right);
  for (const char* text :
       {"t0.key = t1.key", "t0.key = t1.key AND t0.v <> t1.v"}) {
    ExprPtr cond = BindOverCopies(text, 2);
    std::vector<Row> expected;
    oracle::AntiJoinRows(left, right, *cond, 2, &expected);
    exec::BatchAntiJoinProbe probe(&left_batch, &right_batch, cond.get());
    std::vector<uint32_t> keep;
    probe.Probe(0, left_batch.NumRows(), &keep);
    EXPECT_EQ(left_batch.Narrow(keep).ToRows(), expected) << text;
  }
}

TEST_P(BatchKernelOracle, DedupMatchesRowKernel) {
  Rng rng(GetParam());
  std::vector<Row> all = RandomKeyedRows(&rng, 80);
  std::vector<Row> selected;
  ColumnBatch batch = KeyedBatch(all, &selected);
  EXPECT_EQ(exec::DedupBatch(batch).ToRows(), exec::DedupRows(selected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKernelOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace hippo
