// Query-rewriting baseline tests: correctness on its supported class and
// rejection outside it.
#include "rewriting/rewriter.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

class RewritingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER);"
        "INSERT INTO r VALUES (1, 10), (1, 11), (2, 20), (3, 30);"
        "INSERT INTO s VALUES (2, 20), (3, 33), (4, 40);"
        "CREATE CONSTRAINT fd_r FD ON r (a -> b)"));
  }
  Database db_;
};

TEST_F(RewritingTest, SelectionMatchesHippoAndExact) {
  const std::string q = "SELECT * FROM r WHERE b >= 10";
  auto rewr = db_.ConsistentAnswersByRewriting(q);
  auto hippo_rs = db_.ConsistentAnswers(q);
  auto exact = db_.ConsistentAnswersAllRepairs(q);
  ASSERT_OK(rewr.status());
  ASSERT_OK(hippo_rs.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
  EXPECT_EQ(SortedRows(hippo_rs.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, JoinMatchesExact) {
  const std::string q = "SELECT * FROM r, s WHERE r.a = s.a";
  auto rewr = db_.ConsistentAnswersByRewriting(q);
  auto exact = db_.ConsistentAnswersAllRepairs(q);
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, RewrittenPlanContainsAntiJoin) {
  auto plan = db_.Plan("SELECT * FROM r");
  ASSERT_OK(plan.status());
  rewriting::QueryRewriter rewriter(db_.catalog(), db_.constraints());
  auto rewritten = rewriter.Rewrite(*plan.value());
  ASSERT_OK(rewritten.status());
  EXPECT_NE(rewritten.value()->ToString().find("AntiJoin"),
            std::string::npos);
  // Schema is preserved.
  EXPECT_EQ(rewritten.value()->schema().NumColumns(), 2u);
}

/// Number of plan nodes of `kind` in `plan`.
size_t CountNodes(const PlanNode& plan, PlanKind kind) {
  size_t n = plan.kind() == kind ? 1 : 0;
  for (size_t i = 0; i < plan.NumChildren(); ++i) {
    n += CountNodes(plan.child(i), kind);
  }
  return n;
}

TEST_F(RewritingTest, FdResidueIsOneAntiJoinWithoutSelfPairFilter) {
  // An FD's φ(t, t) is never TRUE and φ is symmetric in its two atoms: the
  // guarded scan needs no self-pair filter and one residue, not two.
  auto plan = db_.Plan("SELECT * FROM r");
  ASSERT_OK(plan.status());
  rewriting::QueryRewriter rewriter(db_.catalog(), db_.constraints());
  auto rewritten = rewriter.Rewrite(*plan.value());
  ASSERT_OK(rewritten.status());
  EXPECT_EQ(CountNodes(*rewritten.value(), PlanKind::kAntiJoin), 1u);
  EXPECT_EQ(CountNodes(*rewritten.value(), PlanKind::kFilter), 0u);
}

TEST_F(RewritingTest, UnionRejected) {
  EXPECT_EQ(db_.ConsistentAnswersByRewriting(
                    "SELECT * FROM r UNION SELECT * FROM s")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(RewritingTest, DifferenceRejected) {
  EXPECT_EQ(db_.ConsistentAnswersByRewriting(
                    "SELECT * FROM r EXCEPT SELECT * FROM s")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(RewritingTest, NarrowingProjectionServedByKoutrisWijsen) {
  // `SELECT a FROM r` drops a column, so the ABC residues reject it, but
  // r is a primary-key table and the (single-atom) attack graph is
  // trivially acyclic: the Koutris–Wijsen certain rewriting serves it.
  auto rewr = db_.ConsistentAnswersByRewriting("SELECT a FROM r");
  auto exact = db_.ConsistentAnswersAllRepairs("SELECT a FROM r");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
  // Key 1 is certain although its block conflicts: both repairs keep a=1.
  EXPECT_EQ(rewr.value().NumRows(), 3u);
}

TEST_F(RewritingTest, NarrowingSelfJoinStillRejected) {
  // Self-joins are outside the Koutris–Wijsen class, and the narrowing
  // projection keeps the ABC residues out too.
  EXPECT_EQ(db_.ConsistentAnswersByRewriting(
                    "SELECT r1.a FROM r AS r1, r AS r2 WHERE r1.b = r2.b")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(RewritingTest, UnaryConstraintBecomesFilter) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (v INTEGER);"
      "INSERT INTO t VALUES (-1), (2), (3);"
      "CREATE CONSTRAINT pos DENIAL (t AS x WHERE x.v < 0)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM t");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM t");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
  EXPECT_EQ(rewr.value().NumRows(), 2u);
}

TEST_F(RewritingTest, ExclusionConstraintGuardsBothTables) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE a (k INTEGER); CREATE TABLE b (k INTEGER);"
      "INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (2), (3);"
      "CREATE CONSTRAINT ex EXCLUSION ON a (k), b (k)"));
  for (const char* q : {"SELECT * FROM a", "SELECT * FROM b"}) {
    auto rewr = db.ConsistentAnswersByRewriting(q);
    auto exact = db.ConsistentAnswersAllRepairs(q);
    ASSERT_OK(rewr.status());
    ASSERT_OK(exact.status());
    EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value())) << q;
  }
}

TEST_F(RewritingTest, OrderByPreserved) {
  auto rewr = db_.ConsistentAnswersByRewriting(
      "SELECT * FROM r ORDER BY a DESC");
  ASSERT_OK(rewr.status());
  ASSERT_EQ(rewr.value().NumRows(), 2u);
  EXPECT_EQ(rewr.value().rows[0][0], Value::Int(3));
}

TEST_F(RewritingTest, ThreeAtomConstraintRejected) {
  // The paper scopes the rewriting method to *universal binary*
  // constraints: a residue against a 3-atom constraint would have to check
  // that the two remaining atoms are jointly realizable in one repair,
  // which a single anti-join cannot express (it is complete only by
  // coincidence on instances whose partner pairs never conflict). The
  // rewriter rejects such constraints; Hippo itself covers them.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (k INTEGER, v INTEGER);"
      "INSERT INTO t VALUES (1, 1), (1, 2), (1, 3), (2, 9);"
      "CREATE CONSTRAINT trip DENIAL (t AS x, t AS y, t AS z WHERE "
      "x.k = y.k AND y.k = z.k AND x.v < y.v AND y.v < z.v)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM t");
  ASSERT_FALSE(rewr.ok());
  EXPECT_EQ(rewr.status().code(), StatusCode::kNotSupported);

  auto hippo_rs = db.ConsistentAnswers("SELECT * FROM t");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM t");
  ASSERT_OK(hippo_rs.status());
  ASSERT_OK(exact.status());
  EXPECT_EQ(SortedRows(hippo_rs.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, ResiduePartnersMustBePossible) {
  // Completeness regression test: a residue partner that is in NO repair
  // (here: an FK orphan) can never force a deletion. The naive residue
  // counted it and under-approximated the consistent answers.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE dir (k INTEGER);"
      "CREATE TABLE p (k INTEGER, v INTEGER);"
      "CREATE TABLE q (k INTEGER, v INTEGER);"
      "INSERT INTO dir VALUES (1);"
      "INSERT INTO p VALUES (9, 6);"   // k=9 has no parent: orphan
      "INSERT INTO q VALUES (1, 6);"   // excluded only by the orphan
      "CREATE CONSTRAINT ex EXCLUSION ON p (v), q (v);"
      "CREATE CONSTRAINT fk FOREIGN KEY p (k) REFERENCES dir (k)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM q");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM q");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  ASSERT_EQ(exact.value().NumRows(), 1u);  // q(1,6) is in every repair
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, ResiduePartnersExcludeUnaryViolators) {
  // Same completeness property with a unary constraint: a partner that
  // violates a unary denial rule is in no repair.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (v INTEGER);"
      "CREATE TABLE q (v INTEGER);"
      "INSERT INTO p VALUES (60);"     // violates cap: always deleted
      "INSERT INTO q VALUES (60);"
      "CREATE CONSTRAINT cap DENIAL (p AS x WHERE x.v > 50);"
      "CREATE CONSTRAINT ex EXCLUSION ON p (v), q (v)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM q");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM q");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  ASSERT_EQ(exact.value().NumRows(), 1u);
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, ResiduePartnersExcludeSelfPairViolators) {
  // And with a self-pair: p(5) satisfies x.v = y.v with itself, giving a
  // unary hyperedge — it is in no repair, so q(5) stays consistent.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (v INTEGER);"
      "CREATE TABLE q (v INTEGER);"
      "INSERT INTO p VALUES (5);"
      "INSERT INTO q VALUES (5);"
      "CREATE CONSTRAINT selfp DENIAL (p AS x, p AS y WHERE x.v = y.v);"
      "CREATE CONSTRAINT ex EXCLUSION ON p (v), q (v)"));
  auto rewr = db.ConsistentAnswersByRewriting("SELECT * FROM q");
  auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM q");
  ASSERT_OK(rewr.status());
  ASSERT_OK(exact.status());
  ASSERT_EQ(exact.value().NumRows(), 1u);
  EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value()));
}

TEST_F(RewritingTest, SelfPairDenialKeepsFilterAndBothResidues) {
  // selfp's φ(t, t) can be TRUE (p(5) conflicts with itself) and nothing
  // makes φ symmetric, so p keeps the self-pair filter — on the guarded
  // scan and on both residue partners — and one residue per atom.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (v INTEGER);"
      "CREATE TABLE q (v INTEGER);"
      "INSERT INTO p VALUES (5), (NULL), (7);"
      "INSERT INTO q VALUES (5), (6);"
      "CREATE CONSTRAINT selfp DENIAL (p AS x, p AS y WHERE x.v = y.v);"
      "CREATE CONSTRAINT ex EXCLUSION ON p (v), q (v)"));
  auto plan = db.Plan("SELECT * FROM p");
  ASSERT_OK(plan.status());
  rewriting::QueryRewriter rewriter(db.catalog(), db.constraints());
  auto rewritten = rewriter.Rewrite(*plan.value());
  ASSERT_OK(rewritten.status());
  // Two selfp residues plus the exclusion's residue against q.
  EXPECT_EQ(CountNodes(*rewritten.value(), PlanKind::kAntiJoin), 3u);
  EXPECT_EQ(CountNodes(*rewritten.value(), PlanKind::kFilter), 3u);
  for (const char* q : {"SELECT * FROM p", "SELECT * FROM q"}) {
    auto rewr = db.ConsistentAnswersByRewriting(q);
    auto exact = db.ConsistentAnswersAllRepairs(q);
    ASSERT_OK(rewr.status()) << q;
    ASSERT_OK(exact.status()) << q;
    EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value())) << q;
  }
}

// Property: on random FD-inconsistent instances, rewriting equals Hippo
// equals exact all-repairs for conjunctive queries.
class RewritingDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewritingDifferential, AgreesOnRandomInstances) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE TABLE q (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b);"
      "CREATE CONSTRAINT fd_q FD ON q (a -> b)"));
  for (int i = 0; i < 16; ++i) {
    ASSERT_OK(db.InsertRow("p", Row{Value::Int(rng.UniformInt(0, 5)),
                                    Value::Int(rng.UniformInt(0, 2))}));
    ASSERT_OK(db.InsertRow("q", Row{Value::Int(rng.UniformInt(0, 5)),
                                    Value::Int(rng.UniformInt(0, 2))}));
  }
  for (const char* q :
       {"SELECT * FROM p", "SELECT * FROM p WHERE b > 0",
        "SELECT * FROM p, q WHERE p.a = q.a",
        "SELECT * FROM p, q WHERE p.a = q.a AND p.b <= q.b"}) {
    auto rewr = db.ConsistentAnswersByRewriting(q);
    auto hippo_rs = db.ConsistentAnswers(q);
    auto exact = db.ConsistentAnswersAllRepairs(q);
    ASSERT_OK(rewr.status()) << q;
    ASSERT_OK(hippo_rs.status()) << q;
    ASSERT_OK(exact.status()) << q;
    EXPECT_EQ(SortedRows(rewr.value()), SortedRows(exact.value())) << q;
    EXPECT_EQ(SortedRows(hippo_rs.value()), SortedRows(exact.value())) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritingDifferential,
                         ::testing::Range<uint64_t>(200, 216));

}  // namespace
}  // namespace hippo
