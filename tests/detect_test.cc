// Conflict-detection tests: FD, exclusion, unary and multi-atom denial
// constraints, and DetectOptions validation. FD detection against the
// naive detector lives in detector_differential_test.cc (FdPathFuzz).
#include "detect/detector.h"

#include <gtest/gtest.h>

#include <set>

#include "db/database.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

TEST(DetectTest, FdViolationPairs) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, 10), (1, 11), (1, 12), (2, 20);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  // Three mutually conflicting tuples -> 3 pairwise edges.
  EXPECT_EQ(g.value()->NumEdges(), 3u);
  EXPECT_EQ(g.value()->NumConflictingVertices(), 3u);
}

TEST(DetectTest, NoViolationsNoEdges) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, 10), (2, 20);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 0u);
}

TEST(DetectTest, NullDeterminantIsNotAViolation) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (NULL, 1), (NULL, 2);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  // SQL semantics: NULL = NULL is unknown, so no conflict.
  EXPECT_EQ(g.value()->NumEdges(), 0u);
}

TEST(DetectTest, NullDependentIsNotAViolation) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, NULL), (1, 2);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  // b <> NULL is unknown -> not a violation.
  EXPECT_EQ(g.value()->NumEdges(), 0u);
}

TEST(DetectTest, ExclusionAcrossTables) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE a (k INTEGER); CREATE TABLE b (k INTEGER);"
      "INSERT INTO a VALUES (1), (2), (3);"
      "INSERT INTO b VALUES (2), (3), (4);"
      "CREATE CONSTRAINT ex EXCLUSION ON a (k), b (k)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 2u);
  // Each edge spans both tables.
  for (size_t e = 0; e < g.value()->NumEdges(); ++e) {
    const auto& edge =
        g.value()->edge(static_cast<ConflictHypergraph::EdgeId>(e));
    ASSERT_EQ(edge.size(), 2u);
    EXPECT_NE(edge[0].table, edge[1].table);
  }
}

TEST(DetectTest, UnaryConstraintMakesUnaryEdges) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (v INTEGER);"
      "INSERT INTO t VALUES (-1), (2), (-3);"
      "CREATE CONSTRAINT pos DENIAL (t AS x WHERE x.v < 0)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 2u);
  for (size_t e = 0; e < g.value()->NumEdges(); ++e) {
    EXPECT_EQ(
        g.value()->edge(static_cast<ConflictHypergraph::EdgeId>(e)).size(),
        1u);
  }
}

TEST(DetectTest, ThreeAtomDenial) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (k INTEGER, v INTEGER);"
      "INSERT INTO t VALUES (1, 1), (1, 2), (1, 3), (2, 1);"
      // No three tuples may share a key.
      "CREATE CONSTRAINT trip DENIAL (t AS x, t AS y, t AS z WHERE "
      "x.k = y.k AND y.k = z.k AND x.v < y.v AND y.v < z.v)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  ASSERT_EQ(g.value()->NumEdges(), 1u);
  EXPECT_EQ(g.value()->edge(0).size(), 3u);
}

TEST(DetectTest, SelfConflictBecomesUnaryEdge) {
  // A single tuple satisfying both atoms of a binary denial constraint.
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (5, 5), (1, 2);"
      "CREATE CONSTRAINT d DENIAL (t AS x, t AS y WHERE x.a = y.b)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  // (5,5) matches itself -> unary edge {t#0}.
  bool found_unary = false;
  for (size_t e = 0; e < g.value()->NumEdges(); ++e) {
    if (g.value()->edge(static_cast<ConflictHypergraph::EdgeId>(e)).size() ==
        1u) {
      found_unary = true;
    }
  }
  EXPECT_TRUE(found_unary);
}

TEST(DetectTest, MultipleConstraintsAccumulate) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER);"
      "INSERT INTO t VALUES (1, 10, 7), (1, 11, 7), (2, 20, -1);"
      "CREATE CONSTRAINT fd FD ON t (a -> b);"
      "CREATE CONSTRAINT pos DENIAL (t AS x WHERE x.c < 0)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 2u);
  // Provenance is recorded per edge.
  std::set<uint32_t> constraints;
  for (size_t e = 0; e < g.value()->NumEdges(); ++e) {
    constraints.insert(g.value()->edge_constraint(
        static_cast<ConflictHypergraph::EdgeId>(e)));
  }
  EXPECT_EQ(constraints.size(), 2u);
}

// DetectOptions::Validate rejects nonsensical combinations with a clear
// InvalidArgument instead of a silent fallback (partition_rows == 0 is not
// a hidden "disable"), and DetectAll enforces it on every run — serial and
// parallel alike.
TEST(DetectOptionsValidationTest, RejectsNonsense) {
  DetectOptions ok;
  EXPECT_OK(ok.Validate());

  DetectOptions zero_partition;
  zero_partition.partition_rows = 0;
  Status st = zero_partition.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("partition_rows"), std::string::npos);

  DetectOptions absurd_threads;
  absurd_threads.num_threads = DetectOptions::kMaxThreads + 1;
  EXPECT_EQ(absurd_threads.Validate().code(),
            StatusCode::kInvalidArgument);
  // 0 is a valid sentinel ("all hardware threads"), a SIZE_MAX row
  // threshold is the sanctioned way to disable the split.
  DetectOptions disabled;
  disabled.num_threads = 0;
  disabled.partition_rows = SIZE_MAX;
  EXPECT_OK(disabled.Validate());
}

TEST(DetectOptionsValidationTest, DetectAllSurfacesTheStatus) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, 10), (1, 11);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  DetectOptions bad;
  bad.partition_rows = 0;
  ConflictDetector serial(db.catalog(), bad);
  EXPECT_EQ(serial.DetectAll(db.constraints()).status().code(),
            StatusCode::kInvalidArgument);
  bad.num_threads = 4;  // the parallel path validates too
  ConflictDetector parallel(db.catalog(), bad);
  EXPECT_EQ(parallel.DetectAll(db.constraints()).status().code(),
            StatusCode::kInvalidArgument);
  // And the Database plumbing surfaces it rather than crashing.
  db.SetDetectOptions(bad);
  EXPECT_EQ(db.Hypergraph().status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hippo
