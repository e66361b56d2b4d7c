// End-to-end tests of the Database facade: the paper's running scenario
// (FD-violating employee data) plus each answering method.
#include "db/database.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace hippo {
namespace {

// The classic CQA example: two sources disagree about Smith's salary.
class InconsistentEmpDb : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE emp (name VARCHAR, salary INTEGER);"
        "INSERT INTO emp VALUES ('smith', 50000), ('smith', 60000),"
        "                       ('jones', 40000), ('brown', 70000);"
        "CREATE CONSTRAINT fd_emp FD ON emp (name -> salary)"));
  }
  Database db_;
};

TEST_F(InconsistentEmpDb, PlainQuerySeesEverything) {
  auto rs = db_.Query("SELECT * FROM emp");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 4u);
}

TEST_F(InconsistentEmpDb, DetectsOneConflict) {
  auto graph = db_.Hypergraph();
  ASSERT_OK(graph.status());
  EXPECT_EQ(graph.value()->NumEdges(), 1u);
  EXPECT_EQ(graph.value()->NumConflictingVertices(), 2u);
}

TEST_F(InconsistentEmpDb, HasTwoRepairs) {
  auto count = db_.CountRepairs();
  ASSERT_OK(count.status());
  EXPECT_EQ(count.value(), 2u);
}

TEST_F(InconsistentEmpDb, ConsistentAnswersDropOnlyConflictedFacts) {
  auto rs = db_.ConsistentAnswers("SELECT * FROM emp");
  ASSERT_OK(rs.status());
  // Both smith tuples are uncertain; jones and brown are consistent.
  EXPECT_EQ(rs.value().NumRows(), 2u);
  EXPECT_TRUE(rs.value().Contains(
      Row{Value::String("jones"), Value::Int(40000)}));
  EXPECT_TRUE(rs.value().Contains(
      Row{Value::String("brown"), Value::Int(70000)}));
}

TEST_F(InconsistentEmpDb, ParallelDetectionOptionReachesTheDetector) {
  // HippoOptions::detect is used when the hypergraph cache is cold: the
  // graph is built with 4 detection threads (1-row partitions force a real
  // probe-side split even on this tiny table) and the answers must not
  // change.
  cqa::HippoOptions options;
  options.detect = DetectOptions();
  options.detect->num_threads = 4;
  options.detect->partition_rows = 1;
  auto rs = db_.ConsistentAnswers("SELECT * FROM emp", options);
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 2u);
  auto graph = db_.Hypergraph();
  ASSERT_OK(graph.status());
  EXPECT_EQ(graph.value()->NumEdges(), 1u);
  // proves the knob arrived
  EXPECT_EQ(db_.detect_stats().generic_partitions, 4u);
}

TEST_F(InconsistentEmpDb, IgnoredDetectOptionsAreReported) {
  // Once a hypergraph is cached, an explicitly set HippoOptions::detect
  // has no effect — the cache is reused. The engine must say so instead of
  // silently dropping the knob (a mismatched DetectOptions would otherwise
  // masquerade as a detection-perf change in benchmarks).
  ASSERT_OK(db_.Hypergraph().status());  // warm the cache

  cqa::HippoOptions options;
  options.detect = DetectOptions();
  options.detect->num_threads = 4;
  options.detect->partition_rows = 1;
  cqa::HippoStats stats;
  auto rs = db_.ConsistentAnswers("SELECT * FROM emp", options, &stats);
  ASSERT_OK(rs.status());
  EXPECT_EQ(stats.detect_options_ignored, 1u);
  // knob did NOT arrive
  EXPECT_NE(db_.detect_stats().generic_partitions, 4u);

  // Without an explicit detect request nothing is reported, cache or not.
  cqa::HippoStats plain_stats;
  ASSERT_OK(db_.ConsistentAnswers("SELECT * FROM emp", cqa::HippoOptions(),
                                  &plain_stats)
                .status());
  EXPECT_EQ(plain_stats.detect_options_ignored, 0u);

  // A cold cache honors the options, so nothing is reported either.
  db_.InvalidateHypergraph();
  cqa::HippoStats cold_stats;
  ASSERT_OK(db_.ConsistentAnswers("SELECT * FROM emp", options, &cold_stats)
                .status());
  EXPECT_EQ(cold_stats.detect_options_ignored, 0u);
  // knob arrived this time
  EXPECT_EQ(db_.detect_stats().generic_partitions, 4u);
}

TEST_F(InconsistentEmpDb, SelectionOnUncertainValue) {
  // smith earns > 45000 in *every* repair (50000 or 60000), but neither
  // individual salary fact is certain. The selection query keeps tuples,
  // so smith does not appear; the union query below recovers the
  // disjunctive knowledge.
  auto rs = db_.ConsistentAnswers(
      "SELECT * FROM emp WHERE salary > 45000");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 1u);  // brown only
}

TEST_F(InconsistentEmpDb, UnionExtractsDisjunctiveInformation) {
  // "smith appears with 50000 or with 60000" is true in every repair:
  // the union query SELECT ... WHERE salary=50000 OR salary=60000 over
  // name alone would need projection; instead ask with both tuples:
  auto rs = db_.ConsistentAnswers(
      "SELECT * FROM emp WHERE name = 'smith' AND salary = 50000 "
      "UNION "
      "SELECT * FROM emp WHERE name = 'smith' AND salary = 60000");
  ASSERT_OK(rs.status());
  // Neither tuple alone is consistent... and the union's answer is a
  // TUPLE-level set: each candidate tuple is checked separately, and
  // neither (smith,50000) nor (smith,60000) is in every repair.
  EXPECT_EQ(rs.value().NumRows(), 0u);
}

TEST_F(InconsistentEmpDb, AllMethodsAgreeOnSjQuery) {
  const std::string q = "SELECT * FROM emp WHERE salary >= 40000";
  auto hippo_rs = db_.ConsistentAnswers(q);
  auto rewr_rs = db_.ConsistentAnswersByRewriting(q);
  auto exact_rs = db_.ConsistentAnswersAllRepairs(q);
  ASSERT_OK(hippo_rs.status());
  ASSERT_OK(rewr_rs.status());
  ASSERT_OK(exact_rs.status());
  EXPECT_EQ(SortedRows(hippo_rs.value()), SortedRows(exact_rs.value()));
  EXPECT_EQ(SortedRows(rewr_rs.value()), SortedRows(exact_rs.value()));
}

TEST_F(InconsistentEmpDb, CoreEqualsConsistentForSelections) {
  const std::string q = "SELECT * FROM emp";
  auto core = db_.QueryOverCore(q);
  auto cqa = db_.ConsistentAnswers(q);
  ASSERT_OK(core.status());
  ASSERT_OK(cqa.status());
  EXPECT_EQ(SortedRows(core.value()), SortedRows(cqa.value()));
}

TEST_F(InconsistentEmpDb, NarrowingProjectionRoutedToRewriting) {
  // Narrowing projection is outside the prover's SJUD class, but the router
  // serves it through the Koutris–Wijsen rewriting: 'smith' has *some*
  // salary in every repair, so all three names are certain.
  cqa::HippoStats stats;
  auto rs = db_.ConsistentAnswers("SELECT name FROM emp", cqa::HippoOptions(),
                                  &stats);
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 3u);
  EXPECT_TRUE(rs.value().Contains(Row{Value::String("smith")}));
  EXPECT_EQ(stats.route, RouteKind::kRewriteKw);

  // Pinning the prover route keeps the historical rejection.
  cqa::HippoOptions prover;
  prover.route = RouteMode::kForceProver;
  auto pinned = db_.ConsistentAnswers("SELECT name FROM emp", prover);
  EXPECT_EQ(pinned.status().code(), StatusCode::kNotSupported);
}

TEST_F(InconsistentEmpDb, ReorderingProjectionIsAccepted) {
  auto rs = db_.ConsistentAnswers("SELECT salary, name FROM emp");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 2u);
  EXPECT_TRUE(rs.value().Contains(
      Row{Value::Int(40000), Value::String("jones")}));
}

// Difference queries: the envelope must include tuples not in Q(DB).
TEST(DatabaseDifference, AnswerAbsentFromCurrentInstance) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE r (a INTEGER, b INTEGER);"
      "CREATE TABLE s (a INTEGER, b INTEGER);"
      "INSERT INTO r VALUES (1, 10), (2, 20);"
      "INSERT INTO s VALUES (1, 10), (1, 11);"  // FD conflict inside s
      "CREATE CONSTRAINT fd_s FD ON s (a -> b)"));
  // Plain evaluation of r − s: (1,10) is suppressed by s's (1,10).
  auto plain = db.Query("SELECT * FROM r EXCEPT SELECT * FROM s");
  ASSERT_OK(plain.status());
  EXPECT_EQ(plain.value().NumRows(), 1u);
  // But in the repair where s keeps (1,11), r−s contains (1,10) as well —
  // so (1,10) is NOT a consistent answer; and in the repair keeping (1,10)
  // it is not an answer. (2,20) is an answer everywhere.
  auto cqa = db.ConsistentAnswers("SELECT * FROM r EXCEPT SELECT * FROM s");
  ASSERT_OK(cqa.status());
  EXPECT_EQ(cqa.value().NumRows(), 1u);
  EXPECT_TRUE(cqa.value().Contains(Row{Value::Int(2), Value::Int(20)}));
  auto exact = db.ConsistentAnswersAllRepairs(
      "SELECT * FROM r EXCEPT SELECT * FROM s");
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(cqa.value()), SortedRows(exact.value()));
}

TEST(DatabaseDifference, CqaFindsMoreThanCore) {
  // The demo's first claim: CQA extracts more information than evaluating
  // over the conflict-stripped database.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE r (a INTEGER, b INTEGER);"
      "INSERT INTO r VALUES (1, 10), (1, 11), (2, 20), (3, 30);"
      "CREATE CONSTRAINT fd_r FD ON r (a -> b)"));
  // Union query: "(1,10) or (1,11) is in r" — true in every repair.
  const std::string q =
      "SELECT * FROM r WHERE a = 1 UNION SELECT * FROM r WHERE a = 2";
  auto core = db.QueryOverCore(q);
  auto cqa = db.ConsistentAnswers(q);
  ASSERT_OK(core.status());
  ASSERT_OK(cqa.status());
  // Core loses both (1,·) tuples; CQA keeps none of them either (tuple
  // granularity) but keeps (2,20) in both. Counts equal here...
  EXPECT_EQ(core.value().NumRows(), 1u);
  EXPECT_EQ(cqa.value().NumRows(), 1u);
  // ...the genuine separation needs difference (see next test).
}

TEST(DatabaseDifference, DifferenceSeparatesCqaFromCore) {
  // r − s where the subtrahend tuple is conflicted: the core approach
  // removes the conflicting s-tuples entirely, making (1,10) an answer of
  // the cleaned database — but (1,10) is NOT a consistent answer (in the
  // repair keeping s(1,10) it is suppressed). The core OVER-claims here.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE r (a INTEGER, b INTEGER);"
      "CREATE TABLE s (a INTEGER, b INTEGER);"
      "INSERT INTO r VALUES (1, 10), (2, 20);"
      "INSERT INTO s VALUES (1, 10), (1, 11);"
      "CREATE CONSTRAINT fd_s FD ON s (a -> b)"));
  const std::string q = "SELECT * FROM r EXCEPT SELECT * FROM s";
  auto core = db.QueryOverCore(q);
  auto cqa = db.ConsistentAnswers(q);
  auto exact = db.ConsistentAnswersAllRepairs(q);
  ASSERT_OK(core.status());
  ASSERT_OK(cqa.status());
  ASSERT_OK(exact.status());
  EXPECT_TRUE(core.value().Contains(Row{Value::Int(1), Value::Int(10)}));
  EXPECT_FALSE(cqa.value().Contains(Row{Value::Int(1), Value::Int(10)}));
  EXPECT_EQ(SortedRows(cqa.value()), SortedRows(exact.value()));
}

TEST(DatabaseConstraints, ExclusionConstraint) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE cert (vid INTEGER);"
      "CREATE TABLE revk (vid INTEGER);"
      "INSERT INTO cert VALUES (1), (2);"
      "INSERT INTO revk VALUES (2), (3);"
      "CREATE CONSTRAINT excl EXCLUSION ON cert (vid), revk (vid)"));
  auto graph = db.Hypergraph();
  ASSERT_OK(graph.status());
  EXPECT_EQ(graph.value()->NumEdges(), 1u);
  auto rs = db.ConsistentAnswers("SELECT * FROM cert");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 1u);
  EXPECT_TRUE(rs.value().Contains(Row{Value::Int(1)}));
}

TEST(DatabaseConstraints, UnaryDenialConstraint) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE acct (id INTEGER, balance INTEGER);"
      "INSERT INTO acct VALUES (1, 100), (2, -50), (3, 30);"
      "CREATE CONSTRAINT no_negative DENIAL (acct AS a WHERE a.balance < 0)"));
  auto graph = db.Hypergraph();
  ASSERT_OK(graph.status());
  ASSERT_EQ(graph.value()->NumEdges(), 1u);
  EXPECT_EQ(graph.value()->edge(0).size(), 1u);  // unary edge
  // The violating tuple is in no repair.
  auto rs = db.ConsistentAnswers("SELECT * FROM acct");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 2u);
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM acct");
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rs.value()), SortedRows(exact.value()));
}

TEST(DatabaseConstraints, MultiAtomDenialConstraint) {
  // Three-atom denial: a manager may not earn less than two subordinates
  // combined (artificial but exercises arity-3 hyperedges).
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE pay (name VARCHAR, role INTEGER, amt INTEGER);"
      "INSERT INTO pay VALUES ('m', 1, 10), ('a', 0, 7), ('b', 0, 6);"
      "CREATE CONSTRAINT mgr DENIAL (pay AS m, pay AS x, pay AS y WHERE "
      "m.role = 1 AND x.role = 0 AND y.role = 0 AND x.name < y.name AND "
      "m.amt < x.amt + y.amt)"));
  auto graph = db.Hypergraph();
  ASSERT_OK(graph.status());
  ASSERT_EQ(graph.value()->NumEdges(), 1u);
  EXPECT_EQ(graph.value()->edge(0).size(), 3u);
  // Repairs: delete any one of the three tuples -> 3 repairs.
  auto count = db.CountRepairs();
  ASSERT_OK(count.status());
  EXPECT_EQ(count.value(), 3u);
  auto rs = db.ConsistentAnswers("SELECT * FROM pay");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 0u);  // every tuple is uncertain
}

TEST(DatabaseMisc, ConsistentDatabaseIsItsOwnRepair) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, 1), (2, 2);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  auto consistent = db.IsConsistent();
  ASSERT_OK(consistent.status());
  EXPECT_TRUE(consistent.value());
  auto count = db.CountRepairs();
  ASSERT_OK(count.status());
  EXPECT_EQ(count.value(), 1u);
  auto cqa = db.ConsistentAnswers("SELECT * FROM t");
  auto plain = db.Query("SELECT * FROM t");
  ASSERT_OK(cqa.status());
  ASSERT_OK(plain.status());
  EXPECT_EQ(SortedRows(cqa.value()), SortedRows(plain.value()));
}

TEST(DatabaseMisc, OrderByOnConsistentAnswers) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (3, 1), (1, 1), (2, 2), (2, 3);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  auto rs = db.ConsistentAnswers("SELECT * FROM t ORDER BY a DESC");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs.value().NumRows(), 2u);
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(3));
  EXPECT_EQ(rs.value().rows[1][0], Value::Int(1));
}

TEST(DatabaseMisc, StatsAreFilled) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, 1), (1, 2), (2, 2);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  cqa::HippoStats stats;
  cqa::HippoOptions options;
  options.route = RouteMode::kForceProver;  // candidate stats are prover-only
  auto rs = db.ConsistentAnswers("SELECT * FROM t", options, &stats);
  ASSERT_OK(rs.status());
  EXPECT_EQ(stats.candidates, 3u);
  EXPECT_EQ(stats.answers, 1u);
  EXPECT_GT(stats.membership_checks, 0u);
  EXPECT_EQ(stats.route, RouteKind::kProver);
  EXPECT_EQ(stats.routed_prover, 1u);

  // The same query routes to ABC rewriting on auto, with identical answers.
  cqa::HippoStats auto_stats;
  auto auto_rs =
      db.ConsistentAnswers("SELECT * FROM t", cqa::HippoOptions(), &auto_stats);
  ASSERT_OK(auto_rs.status());
  EXPECT_EQ(SortedRows(auto_rs.value()), SortedRows(rs.value()));
  EXPECT_EQ(auto_stats.route, RouteKind::kRewriteAbc);
  EXPECT_EQ(auto_stats.routed_rewrite, 1u);
}

TEST(DatabaseErrors, UsefulDiagnostics) {
  Database db;
  EXPECT_EQ(db.Query("SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
  ASSERT_OK(db.Execute("CREATE TABLE t (a INTEGER)"));
  EXPECT_EQ(db.Execute("CREATE TABLE t (a INTEGER)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.Query("SELECT b FROM t").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.Execute("INSERT INTO t VALUES (1, 2)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Query("SELECT * FROM t UNION ALL SELECT * FROM t")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

}  // namespace
}  // namespace hippo
