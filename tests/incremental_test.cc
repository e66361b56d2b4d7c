// Incremental hypergraph maintenance: differential testing against full
// re-detection, FK parent/child transitions, and CQA correctness across
// update sequences (the paper's "long-running activity" scenario).
#include "detect/incremental.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "detect/detector.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

/// Canonical edge multiset of the maintained graph vs a fresh detection run
/// over the same instance and constraints.
void ExpectGraphMatchesScratch(Database* db, const std::string& where) {
  auto maintained = db->Hypergraph();
  ASSERT_OK(maintained.status());
  ConflictDetector detector(db->catalog());
  auto scratch = detector.DetectAll(db->constraints(), db->foreign_keys());
  ASSERT_OK(scratch.status());
  EXPECT_EQ(maintained.value()->CanonicalEdges(),
            scratch.value().CanonicalEdges())
      << "incremental graph diverged from scratch detection " << where;
}

class IncrementalFdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE emp (name VARCHAR, salary INTEGER);"
        "INSERT INTO emp VALUES ('ann', 10), ('bob', 20);"
        "CREATE CONSTRAINT fd FD ON emp (name -> salary)"));
    ASSERT_OK(db_.EnableIncrementalMaintenance());
  }
  Database db_;
};

TEST_F(IncrementalFdTest, InsertCreatesConflict) {
  ASSERT_OK(db_.Execute("INSERT INTO emp VALUES ('ann', 11)"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 1u);
  EXPECT_EQ(db_.incremental_stats().edges_added, 1u);
  ExpectGraphMatchesScratch(&db_, "after conflicting insert");
}

TEST_F(IncrementalFdTest, DeleteResolvesConflict) {
  ASSERT_OK(db_.Execute("INSERT INTO emp VALUES ('ann', 11)"));
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE salary = 11"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 0u);
  EXPECT_EQ(db_.incremental_stats().edges_removed, 1u);
  ExpectGraphMatchesScratch(&db_, "after resolving delete");
}

TEST_F(IncrementalFdTest, UpdateRestoresConsistency) {
  // The paper's motivating scenario: a temporary violation, later repaired
  // by an ordinary update — no detection re-run in between.
  ASSERT_OK(db_.Execute("INSERT INTO emp VALUES ('ann', 11)"));
  auto before = db_.IsConsistent();
  ASSERT_OK(before.status());
  EXPECT_FALSE(before.value());
  ASSERT_OK(db_.Execute("UPDATE emp SET salary = 10 WHERE name = 'ann'"));
  auto after = db_.IsConsistent();
  ASSERT_OK(after.status());
  EXPECT_TRUE(after.value());  // both ann rows merged onto salary 10
  ExpectGraphMatchesScratch(&db_, "after repairing update");
}

TEST_F(IncrementalFdTest, ConflictGrowsQuadraticallyWithinGroup) {
  ASSERT_OK(db_.Execute(
      "INSERT INTO emp VALUES ('ann', 11), ('ann', 12), ('ann', 13)"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 6u);  // C(4,2) pairs of ann rows
  ExpectGraphMatchesScratch(&db_, "after group growth");
}

TEST_F(IncrementalFdTest, NullDeterminantNeverConflicts) {
  ASSERT_OK(db_.Execute(
      "INSERT INTO emp VALUES (NULL, 1), (NULL, 2), ('ann', 10)"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 0u);
  ExpectGraphMatchesScratch(&db_, "with NULL determinants");
}

TEST_F(IncrementalFdTest, ConstraintChangeRebuildsMaintainer) {
  ASSERT_OK(db_.Execute("CREATE TABLE other (x INTEGER);"
                        "CREATE CONSTRAINT u DENIAL (other AS o WHERE "
                        "o.x < 0)"));
  ASSERT_OK(db_.Execute("INSERT INTO other VALUES (-1), (3)"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 1u);
  ExpectGraphMatchesScratch(&db_, "after constraint change + DML");
}

class IncrementalFkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE dept (did INTEGER);"
        "CREATE TABLE emp (eid INTEGER, did INTEGER);"
        "INSERT INTO dept VALUES (1), (2);"
        "INSERT INTO emp VALUES (10, 1), (11, 2), (12, 3);"
        "CREATE CONSTRAINT fk FOREIGN KEY emp (did) REFERENCES dept (did)"));
    ASSERT_OK(db_.EnableIncrementalMaintenance());
  }
  Database db_;
};

TEST_F(IncrementalFkTest, ParentInsertCuresOrphan) {
  auto g0 = db_.Hypergraph();
  ASSERT_OK(g0.status());
  EXPECT_EQ(g0.value()->NumEdges(), 1u);  // emp 12 references missing dept 3
  ASSERT_OK(db_.Execute("INSERT INTO dept VALUES (3)"));
  auto g1 = db_.Hypergraph();
  ASSERT_OK(g1.status());
  EXPECT_EQ(g1.value()->NumEdges(), 0u);
  ExpectGraphMatchesScratch(&db_, "after curing parent insert");
}

TEST_F(IncrementalFkTest, ParentDeleteOrphansChildren) {
  ASSERT_OK(db_.Execute("INSERT INTO emp VALUES (13, 1)"));
  ASSERT_OK(db_.Execute("DELETE FROM dept WHERE did = 1"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  // emp 10 and emp 13 (did=1) plus the pre-existing orphan emp 12.
  EXPECT_EQ(g.value()->NumEdges(), 3u);
  ExpectGraphMatchesScratch(&db_, "after parent delete");
}

TEST_F(IncrementalFkTest, DuplicateKeyParentsCountedNotBoolean) {
  // Two parents share did=2 (distinct rows); deleting one must NOT orphan
  // the children of did=2.
  ASSERT_OK(db_.Execute("CREATE TABLE d2 (did INTEGER, tag VARCHAR);"
                        "CREATE TABLE e2 (eid INTEGER, did INTEGER);"
                        "INSERT INTO d2 VALUES (2, 'a'), (2, 'b');"
                        "INSERT INTO e2 VALUES (20, 2);"
                        "CREATE CONSTRAINT fk2 FOREIGN KEY e2 (did) "
                        "REFERENCES d2 (did)"));
  ASSERT_OK(db_.EnableIncrementalMaintenance());
  ASSERT_OK(db_.Execute("DELETE FROM d2 WHERE tag = 'a'"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  ExpectGraphMatchesScratch(&db_, "after deleting one of two key-sharing "
                                  "parents");
  ASSERT_OK(db_.Execute("DELETE FROM d2 WHERE tag = 'b'"));
  ExpectGraphMatchesScratch(&db_, "after deleting the last parent");
}

TEST_F(IncrementalFkTest, NullKeyedChildIsPermanentOrphan) {
  ASSERT_OK(db_.Execute("INSERT INTO emp VALUES (14, NULL)"));
  ExpectGraphMatchesScratch(&db_, "after NULL-keyed child insert");
  ASSERT_OK(db_.Execute("DELETE FROM emp WHERE eid = 14"));
  ExpectGraphMatchesScratch(&db_, "after NULL-keyed child delete");
}

class IncrementalExclusionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE certified (vendor VARCHAR);"
        "CREATE TABLE revoked (vendor VARCHAR);"
        "CREATE CONSTRAINT excl EXCLUSION ON certified (vendor), "
        "revoked (vendor)"));
    ASSERT_OK(db_.EnableIncrementalMaintenance());
  }
  Database db_;
};

TEST_F(IncrementalExclusionTest, CrossTableConflictLifecycle) {
  ASSERT_OK(db_.Execute("INSERT INTO certified VALUES ('v1'), ('v2')"));
  ASSERT_OK(db_.Execute("INSERT INTO revoked VALUES ('v2'), ('v3')"));
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 1u);  // v2 in both
  ExpectGraphMatchesScratch(&db_, "after exclusion conflict");
  ASSERT_OK(db_.Execute("DELETE FROM revoked WHERE vendor = 'v2'"));
  auto g2 = db_.Hypergraph();
  ASSERT_OK(g2.status());
  EXPECT_EQ(g2.value()->NumEdges(), 0u);
  ExpectGraphMatchesScratch(&db_, "after exclusion resolution");
}

// Generic (non-equi) binary constraint goes through the nested-loop
// fallback; same-table self-pairs must match the full detector.
TEST(IncrementalFallbackTest, InequalityOnlyConstraint) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE ev (t INTEGER, kind VARCHAR);"
      // No two events may be within 1 tick of each other with kind 'x'.
      "CREATE CONSTRAINT near DENIAL (ev AS a, ev AS b WHERE "
      "a.kind = 'x' AND b.kind = 'x' AND a.t < b.t AND b.t - a.t < 2)"));
  ASSERT_OK(db.EnableIncrementalMaintenance());
  ASSERT_OK(db.Execute("INSERT INTO ev VALUES (1, 'x'), (5, 'x')"));
  ExpectGraphMatchesScratch(&db, "fallback: no conflict");
  ASSERT_OK(db.Execute("INSERT INTO ev VALUES (2, 'x'), (6, 'y')"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 1u);  // (1,'x') vs (2,'x')
  ExpectGraphMatchesScratch(&db, "fallback: conflict created");
  ASSERT_OK(db.Execute("DELETE FROM ev WHERE t = 1"));
  ExpectGraphMatchesScratch(&db, "fallback: conflict removed");
}

TEST(IncrementalFallbackTest, SelfPairUnaryEdgeViaEquality) {
  // A same-table binary constraint that a tuple can satisfy with itself:
  // the full detector's self-join emits {t, t} which collapses to a unary
  // edge. The incremental path must do the same.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE r (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT c DENIAL (r AS x, r AS y WHERE x.a = y.a AND "
      "x.b > 0 AND y.b > 0)"));
  ASSERT_OK(db.EnableIncrementalMaintenance());
  ASSERT_OK(db.Execute("INSERT INTO r VALUES (1, 5)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  ASSERT_EQ(g.value()->NumEdges(), 1u);
  EXPECT_EQ(g.value()->edge(0).size(), 1u);
  ExpectGraphMatchesScratch(&db, "self-pair unary edge");
}

TEST(IncrementalTernaryTest, ThreeAtomConstraint) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t3 (x INTEGER);"
      // No three distinct values may sum below 10 — exercises arity 3.
      "CREATE CONSTRAINT c3 DENIAL (t3 AS a, t3 AS b, t3 AS c WHERE "
      "a.x < b.x AND b.x < c.x AND a.x + b.x + c.x < 10)"));
  ASSERT_OK(db.EnableIncrementalMaintenance());
  ASSERT_OK(db.Execute("INSERT INTO t3 VALUES (1), (2)"));
  ExpectGraphMatchesScratch(&db, "ternary: below arity");
  ASSERT_OK(db.Execute("INSERT INTO t3 VALUES (3)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 1u);  // {1,2,3}
  ExpectGraphMatchesScratch(&db, "ternary: full edge");
  ASSERT_OK(db.Execute("DELETE FROM t3 WHERE x = 2"));
  ExpectGraphMatchesScratch(&db, "ternary: edge removed");
}

// ---------------------------------------------------------------------------
// Randomized differential sweep: a long mixed DML sequence over a schema
// with an FD, an exclusion constraint, a fallback constraint, and an FK.
// The exclusion pairs an INTEGER column with a DOUBLE one (5 = 5.0 must
// meet through one key hash; half-integral values must not), and one step
// re-inserts a previously deleted exact row, which resurrects its slot.
// After every operation the maintained hypergraph must equal scratch
// detection; periodically, CQA answers must match all-repairs evaluation.
// ---------------------------------------------------------------------------

class IncrementalRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalRandomSweep, MatchesScratchDetection) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE parent (k INTEGER);"
      "CREATE TABLE emp (name INTEGER, salary INTEGER, pk INTEGER);"
      "CREATE TABLE black (name DOUBLE);"
      "CREATE CONSTRAINT fd FD ON emp (name -> salary);"
      "CREATE CONSTRAINT ex EXCLUSION ON emp (name), black (name);"
      "CREATE CONSTRAINT ineq DENIAL (black AS a, black AS b WHERE "
      "a.name < b.name AND b.name - a.name < 2);"
      "CREATE CONSTRAINT fk FOREIGN KEY emp (pk) REFERENCES parent (k)"));
  ASSERT_OK(db.EnableIncrementalMaintenance());

  // Small domains force frequent conflicts and FK transitions.
  auto random_emp = [&] {
    return Row{Value::Int(static_cast<int64_t>(rng.Uniform(6))),
               Value::Int(static_cast<int64_t>(rng.Uniform(4))),
               Value::Int(static_cast<int64_t>(rng.Uniform(4)))};
  };
  auto random_black = [&] {
    return Row{Value::Double(static_cast<double>(rng.Uniform(16)) / 2)};
  };
  auto random_parent = [&] {
    return Row{Value::Int(static_cast<int64_t>(rng.Uniform(4)))};
  };

  // Exact emp rows a delete actually removed, for the resurrection step.
  std::vector<Row> deleted_emp;
  size_t resurrections = 0;
  auto emp_live = [&](const Row& row) {
    return std::as_const(db).catalog().GetTable("emp").value()->Find(row)
        .has_value();
  };

  for (int step = 0; step < 120; ++step) {
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
        ASSERT_OK(db.InsertRow("emp", random_emp()));
        break;
      case 2:
        ASSERT_OK(db.InsertRow("black", random_black()));
        break;
      case 3:
        ASSERT_OK(db.InsertRow("parent", random_parent()));
        break;
      case 4: {
        Row victim = random_emp();
        if (emp_live(victim)) deleted_emp.push_back(victim);
        ASSERT_OK(db.DeleteRow("emp", victim));
        break;
      }
      case 5:
        ASSERT_OK(db.DeleteRow("parent", random_parent()));
        break;
      case 6:
        ASSERT_OK(db.DeleteRow("black", random_black()));
        break;
      case 7:
        if (!deleted_emp.empty()) {
          const Row& back = deleted_emp[rng.Uniform(deleted_emp.size())];
          if (!emp_live(back)) ++resurrections;
          ASSERT_OK(db.InsertRow("emp", back));
        }
        break;
    }
    ExpectGraphMatchesScratch(&db, "at step " + std::to_string(step));
    if (HasFatalFailure()) return;

    if (step % 30 == 29) {
      auto hippo = db.ConsistentAnswers("SELECT * FROM emp");
      auto exact = db.ConsistentAnswersAllRepairs("SELECT * FROM emp");
      ASSERT_OK(hippo.status());
      ASSERT_OK(exact.status());
      EXPECT_EQ(SortedRows(hippo.value()), SortedRows(exact.value()))
          << "CQA diverged at step " << step;
    }
  }
  EXPECT_GT(resurrections, 0u) << "the sweep never resurrected a row";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 11u, 42u,
                                           1234u));

// ---------------------------------------------------------------------------
// FK-churn differential: a random insert/delete stream deliberately biased
// toward parent-table churn, so the restricted-foreign-key orphan/cure
// transitions (the one non-anti-monotone case) fire constantly: parent
// deletes orphan children (new unary edges), parent re-inserts cure them
// (edge removals), duplicate-key parents exercise the per-key counts, and
// NULL-keyed children stay permanent orphans throughout. After every single
// operation the maintained graph must be structurally identical to a fresh
// ConflictDetector::DetectAll — same canonical edge multiset, same
// constraint provenance.
// ---------------------------------------------------------------------------

class FkChurnDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FkChurnDifferential, MaintainedGraphEqualsFreshDetectAll) {
  Rng rng(GetParam());
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE dept (did INTEGER);"
      "CREATE TABLE proj (pid INTEGER);"
      "CREATE TABLE emp (eid INTEGER, did INTEGER, pid INTEGER);"
      "CREATE CONSTRAINT fk_dept FOREIGN KEY emp (did) REFERENCES "
      "dept (did);"
      "CREATE CONSTRAINT fk_proj FOREIGN KEY emp (pid) REFERENCES "
      "proj (pid)"));
  // A permanent orphan (NULL key) that no parent churn may ever cure,
  // and duplicate-key parents whose counts must not go boolean.
  ASSERT_OK(db.Execute(
      "INSERT INTO dept VALUES (0), (0), (1);"
      "INSERT INTO proj VALUES (0);"
      "INSERT INTO emp VALUES (100, NULL, 0), (101, 0, 0)"));
  ASSERT_OK(db.EnableIncrementalMaintenance());
  ExpectGraphMatchesScratch(&db, "initial instance");

  // Tiny key domains so deletes/re-inserts keep hitting live keys.
  auto random_parent_key = [&] {
    return Row{Value::Int(static_cast<int64_t>(rng.Uniform(3)))};
  };
  auto random_child = [&] {
    Value did = rng.Chance(0.1)
                    ? Value::Null()
                    : Value::Int(static_cast<int64_t>(rng.Uniform(3)));
    return Row{Value::Int(static_cast<int64_t>(rng.Uniform(5))),
               std::move(did),
               Value::Int(static_cast<int64_t>(rng.Uniform(3)))};
  };

  size_t cures = 0, orphanings = 0;
  for (int step = 0; step < 100; ++step) {
    size_t edges_before = 0;
    {
      auto g = db.Hypergraph();
      ASSERT_OK(g.status());
      edges_before = g.value()->NumEdges();
    }
    // Parent tables churn twice as often as the child table.
    switch (rng.Uniform(6)) {
      case 0:
        ASSERT_OK(db.InsertRow("dept", random_parent_key()));
        break;
      case 1:
        ASSERT_OK(db.DeleteRow("dept", random_parent_key()));
        break;
      case 2:
        ASSERT_OK(db.InsertRow("proj", random_parent_key()));
        break;
      case 3:
        ASSERT_OK(db.DeleteRow("proj", random_parent_key()));
        break;
      case 4:
        ASSERT_OK(db.InsertRow("emp", random_child()));
        break;
      case 5:
        ASSERT_OK(db.DeleteRow("emp", random_child()));
        break;
    }
    ExpectGraphMatchesScratch(&db, "FK churn step " + std::to_string(step));
    if (HasFatalFailure()) return;
    auto g = db.Hypergraph();
    ASSERT_OK(g.status());
    if (g.value()->NumEdges() < edges_before) ++cures;
    if (g.value()->NumEdges() > edges_before) ++orphanings;
  }
  // The stream is biased so both directions of the FK transition actually
  // happened — otherwise this test silently stops covering the cure path.
  EXPECT_GT(orphanings, 0u) << "churn never orphaned a child";
  EXPECT_GT(cures, 0u) << "churn never cured an orphan";

  // Maintained stats stay coherent with the observed transitions: every
  // step that grew (shrank) the graph added (removed) at least one edge.
  EXPECT_GE(db.incremental_stats().edges_added, orphanings);
  EXPECT_GE(db.incremental_stats().edges_removed, cures);
  ExpectGraphMatchesScratch(&db, "after the full FK churn stream");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FkChurnDifferential,
                         ::testing::Values(7u, 13u, 77u, 2024u, 31415u));

// ---------------------------------------------------------------------------
// Incremental maintenance on top of a PARALLEL-built hypergraph: the graph
// is constructed with multiple detection threads (edge ids come from
// BulkLoad's deterministic merge, not serial insertion order), then the
// FK-churn stream runs on it. After every operation the maintained graph
// must match a fresh parallel re-detection — guarding the min-provenance
// invariant across both subsystems regardless of how the initial graph was
// decomposed into threads and partitions.
// ---------------------------------------------------------------------------

TEST(IncrementalAfterParallelTest, FkChurnMatchesParallelRedetection) {
  Rng rng(8086);
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE dept (did INTEGER);"
      "CREATE TABLE emp (eid INTEGER, salary INTEGER, did INTEGER);"
      // An FD on the child table too, so the parallel build exercises FD
      // probe partitions and the FK fan-out in one graph and the
      // maintainer keeps both edge flavours coherent.
      "CREATE CONSTRAINT fd FD ON emp (eid -> salary);"
      "CREATE CONSTRAINT fk FOREIGN KEY emp (did) REFERENCES dept (did)"));
  ASSERT_OK(db.Execute(
      "INSERT INTO dept VALUES (0), (1);"
      "INSERT INTO emp VALUES (1, 10, 0), (1, 20, 1), (2, 10, 9), "
      "(3, 5, NULL)"));

  // Force real parallelism on a tiny instance: 4 threads, partitions of 2
  // rows.
  DetectOptions popt;
  popt.num_threads = 4;
  popt.partition_rows = 2;
  db.SetDetectOptions(popt);
  ASSERT_OK(db.EnableIncrementalMaintenance());  // builds the graph in parallel

  auto expect_matches_parallel_scratch = [&](const std::string& where) {
    auto maintained = db.Hypergraph();
    ASSERT_OK(maintained.status());
    ConflictDetector detector(db.catalog(), popt);
    auto scratch = detector.DetectAll(db.constraints(), db.foreign_keys());
    ASSERT_OK(scratch.status());
    EXPECT_EQ(maintained.value()->CanonicalEdges(),
              scratch.value().CanonicalEdges())
        << "maintained graph diverged from parallel re-detection " << where;
  };
  expect_matches_parallel_scratch("after the parallel initial build");

  auto random_parent = [&] {
    return Row{Value::Int(static_cast<int64_t>(rng.Uniform(3)))};
  };
  auto random_emp = [&] {
    Value did = rng.Chance(0.1)
                    ? Value::Null()
                    : Value::Int(static_cast<int64_t>(rng.Uniform(3)));
    return Row{Value::Int(static_cast<int64_t>(rng.Uniform(4))),
               Value::Int(static_cast<int64_t>(rng.Uniform(3))),
               std::move(did)};
  };
  for (int step = 0; step < 80; ++step) {
    switch (rng.Uniform(5)) {
      case 0:
        ASSERT_OK(db.InsertRow("dept", random_parent()));
        break;
      case 1:
        ASSERT_OK(db.DeleteRow("dept", random_parent()));
        break;
      case 2:
      case 3:
        ASSERT_OK(db.InsertRow("emp", random_emp()));
        break;
      case 4:
        ASSERT_OK(db.DeleteRow("emp", random_emp()));
        break;
    }
    expect_matches_parallel_scratch("at step " + std::to_string(step));
    if (HasFatalFailure()) return;
  }
}

// Hypergraph removal primitives.
TEST(HypergraphRemovalTest, RemoveEdgeScrubsIncidence) {
  ConflictHypergraph g;
  RowId a{0, 1}, b{0, 2}, c{0, 3};
  auto e1 = g.AddEdge({a, b}, 0);
  g.AddEdge({b, c}, 1);
  EXPECT_EQ(g.NumEdges(), 2u);
  g.RemoveEdge(e1);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.IsConflicting(a));
  EXPECT_TRUE(g.IsConflicting(b));
  EXPECT_EQ(g.IncidentEdges(b).size(), 1u);
  g.RemoveEdge(e1);  // idempotent
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(HypergraphRemovalTest, ReviveKeepsEdgeId) {
  ConflictHypergraph g;
  RowId a{0, 1}, b{0, 2};
  auto e = g.AddEdge({a, b}, 0);
  g.RemoveEdge(e);
  EXPECT_EQ(g.NumEdges(), 0u);
  auto e2 = g.AddEdge({b, a}, 3);  // same vertex set, new provenance
  EXPECT_EQ(e2, e);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.edge_constraint(e2), 3u);
  EXPECT_TRUE(g.IsConflicting(a));
}

TEST(HypergraphRemovalTest, RemoveIncidentEdges) {
  ConflictHypergraph g;
  RowId a{0, 1}, b{0, 2}, c{0, 3};
  g.AddEdge({a, b}, 0);
  g.AddEdge({a, c}, 0);
  g.AddEdge({b, c}, 0);
  EXPECT_EQ(g.RemoveIncidentEdges(a), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.IsConflicting(a));
  EXPECT_EQ(g.RemoveIncidentEdges(a), 0u);
}

}  // namespace
}  // namespace hippo
