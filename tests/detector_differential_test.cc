// Randomized differential battery for parallel partitioned conflict
// detection.
//
// Three oracles are compared on seeded random schemas/instances:
//
//   1. a naive O(n^arity) reference detector (oracle::NaiveDetect: nested
//      loops over live rows, evaluating each denial constraint's condition
//      on the combined row — no join plans, no partitions);
//   2. serial ConflictDetector::DetectAll (num_threads = 1);
//   3. parallel DetectAll across thread counts {2, 4, 8} and partition_rows
//      settings down to 1 (which splits every constraint into one
//      probe-side partition per worker even on tiny tables).
//
// All three must produce set-equal hypergraphs including constraint
// provenance (CanonicalEdges compares canonical vertex sets AND the
// producing constraint index). A second battery fuzzes FD detection
// against the naive detector over NULL-heavy and dense instances, pinning
// the NULL-determinant and NULL-rhs corners.
#include "detect/detector.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "db/database.h"
#include "tests/oracle/detect.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

using CanonicalEdgeList = std::vector<std::pair<std::vector<RowId>, uint32_t>>;

CanonicalEdgeList DetectWith(Database* db, const DetectOptions& options) {
  ConflictDetector detector(db->catalog(), options);
  auto g = detector.DetectAll(db->constraints(), db->foreign_keys());
  EXPECT_OK(g.status());
  return g.ok() ? g.value().CanonicalEdges() : CanonicalEdgeList{};
}

Value MaybeNullInt(Rng* rng, double null_p, uint64_t domain) {
  if (rng->Chance(null_p)) return Value::Null();
  return Value::Int(static_cast<int64_t>(rng->Uniform(domain)));
}

/// Builds a random instance of a schema exercising every detection path:
/// an FD with a randomized multi-column determinant over `child`, an FD
/// over `other`, an exclusion constraint across the two, a unary CHECK
/// style constraint, a generic inequality-only constraint (product plan),
/// and a restricted foreign key into a constraint-free parent. Column
/// domains are tiny and NULL-seasoned so conflicts, shared-vertex-set
/// duplicates (exercising min-provenance merges) and NULL corners all
/// occur.
void BuildRandomScenario(Database* db, Rng* rng) {
  ASSERT_OK(db->Execute(
      "CREATE TABLE parent (k INTEGER);"
      "CREATE TABLE child (a INTEGER, b INTEGER, c INTEGER);"
      "CREATE TABLE other (a INTEGER, b INTEGER)"));

  // Randomized FD determinant on child: a -> b,c | a,b -> c | b -> a,c.
  static const char* kChildFds[] = {"(a -> b, c)", "(a, b -> c)",
                                    "(b -> a, c)"};
  ASSERT_OK(db->Execute(
      std::string("CREATE CONSTRAINT fd_child FD ON child ") +
      kChildFds[rng->Uniform(3)]));
  ASSERT_OK(db->Execute("CREATE CONSTRAINT fd_other FD ON other (a -> b)"));
  if (rng->Chance(0.75)) {
    ASSERT_OK(db->Execute(
        "CREATE CONSTRAINT excl EXCLUSION ON child (a), other (a)"));
  }
  if (rng->Chance(0.75)) {
    // Unary CHECK-style denial.
    ASSERT_OK(db->Execute(
        "CREATE CONSTRAINT pos DENIAL (child AS x WHERE x.c < 0)"));
  }
  if (rng->Chance(0.75)) {
    // Inequality-only: no equi-conjunct, so the generic path runs a
    // product plan; self-pairs are possible when b values collide.
    ASSERT_OK(db->Execute(
        "CREATE CONSTRAINT near DENIAL (other AS x, other AS y WHERE "
        "x.b < y.b AND y.b - x.b < 2)"));
  }
  ASSERT_OK(db->Execute(
      "CREATE CONSTRAINT fk FOREIGN KEY child (c) REFERENCES parent (k)"));

  size_t n_child = 12 + rng->Uniform(24);
  size_t n_other = 8 + rng->Uniform(16);
  size_t n_parent = 1 + rng->Uniform(4);
  for (size_t i = 0; i < n_parent; ++i) {
    ASSERT_OK(db->InsertRow(
        "parent", Row{Value::Int(static_cast<int64_t>(rng->Uniform(5)))}));
  }
  for (size_t i = 0; i < n_child; ++i) {
    // c doubles as FK key and CHECK subject: small ints, occasional
    // negatives, occasional NULLs.
    Value c = rng->Chance(0.15)
                  ? Value::Null()
                  : Value::Int(rng->UniformInt(-1, 5));
    ASSERT_OK(db->InsertRow(
        "child", Row{MaybeNullInt(rng, 0.15, 4), MaybeNullInt(rng, 0.15, 3),
                     std::move(c)}));
  }
  for (size_t i = 0; i < n_other; ++i) {
    ASSERT_OK(db->InsertRow(
        "other", Row{MaybeNullInt(rng, 0.15, 4), MaybeNullInt(rng, 0.15, 6)}));
  }
}

class DetectorDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DetectorDifferential, ParallelEqualsSerialEqualsNaive) {
  Rng rng(GetParam());
  Database db;
  BuildRandomScenario(&db, &rng);
  if (::testing::Test::HasFatalFailure()) return;

  CanonicalEdgeList naive =
      oracle::NaiveDetect(db.catalog(), db.constraints(), db.foreign_keys())
          .CanonicalEdges();
  DetectOptions serial;
  CanonicalEdgeList reference = DetectWith(&db, serial);
  EXPECT_EQ(reference, naive) << "serial DetectAll diverged from the naive "
                                 "reference detector";

  for (size_t threads : {2u, 4u, 8u}) {
    for (size_t partition_rows : {1u, 7u, 4096u}) {
      DetectOptions parallel;
      parallel.num_threads = threads;
      parallel.partition_rows = partition_rows;
      EXPECT_EQ(DetectWith(&db, parallel), reference)
          << "parallel detection diverged at " << threads << " threads, "
          << "partition_rows=" << partition_rows;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorDifferential,
                         ::testing::Values(1u, 7u, 42u, 101u, 2024u, 90210u));

// Parallel BulkLoad merges are deterministic at the edge-id level too: two
// parallel runs with different thread counts must agree edge by edge (id,
// vertex set, provenance), because BulkLoad orders insertions by canonical
// vertex set independently of the decomposition.
TEST(DetectorDeterminismTest, ParallelEdgeIdsIndependentOfThreadCount) {
  Rng rng(31337);
  Database db;
  BuildRandomScenario(&db, &rng);
  if (::testing::Test::HasFatalFailure()) return;

  auto detect_full = [&](size_t threads, size_t partition_rows) {
    DetectOptions opts;
    opts.num_threads = threads;
    opts.partition_rows = partition_rows;
    ConflictDetector detector(db.catalog(), opts);
    auto g = detector.DetectAll(db.constraints(), db.foreign_keys());
    EXPECT_OK(g.status());
    return std::move(g).value();
  };
  ConflictHypergraph base = detect_full(2, 1);
  for (size_t threads : {3u, 4u, 8u}) {
    ConflictHypergraph other = detect_full(threads, threads == 4 ? 5 : 1);
    ASSERT_EQ(base.NumEdgeSlots(), other.NumEdgeSlots());
    for (size_t e = 0; e < base.NumEdgeSlots(); ++e) {
      auto id = static_cast<ConflictHypergraph::EdgeId>(e);
      EXPECT_EQ(base.edge(id), other.edge(id));
      EXPECT_EQ(base.edge_constraint(id), other.edge_constraint(id));
    }
  }
}

// ---------------------------------------------------------------------------
// FD detection vs the naive detector, NULL corners included.
// ---------------------------------------------------------------------------

/// Serial and 4-thread (one probe partition per row) detection must both
/// equal the naive detector's edges and provenance; returns the latter.
CanonicalEdgeList CheckFdDetectionAgainstNaive(Database* db) {
  CanonicalEdgeList want =
      oracle::NaiveDetect(db->catalog(), db->constraints(), db->foreign_keys())
          .CanonicalEdges();
  EXPECT_EQ(DetectWith(db, DetectOptions()), want)
      << "serial FD detection diverged from the naive detector";
  DetectOptions split;
  split.num_threads = 4;
  split.partition_rows = 1;
  EXPECT_EQ(DetectWith(db, split), want)
      << "partitioned FD detection diverged from the naive detector";
  return want;
}

/// (seed, null-heavy instance?)
class FdPathFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(FdPathFuzz, DetectionEqualsNaive) {
  auto [seed, null_heavy] = GetParam();
  Rng rng(seed);
  Database db;
  if (null_heavy) {
    // Multi-column determinant AND multi-column dependent side, so both
    // the NULL-determinant rule (a NULL anywhere in the key never joins)
    // and the NULL-rhs rule (NULL vs anything is not a difference) fire.
    ASSERT_OK(db.Execute(
        "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, d INTEGER);"
        "CREATE CONSTRAINT fd FD ON t (a, b -> c, d)"));
    double null_p = 0.1 + 0.2 * rng.UniformDouble();
    size_t n = 20 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_OK(db.InsertRow(
          "t",
          Row{MaybeNullInt(&rng, null_p, 3), MaybeNullInt(&rng, null_p, 3),
              MaybeNullInt(&rng, null_p, 4), MaybeNullInt(&rng, null_p, 4)}));
    }
  } else {
    // NULL-free, one-column determinant over ten keys: dense groups where
    // every row meets several partners in both probe orders.
    ASSERT_OK(db.Execute(
        "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER);"
        "CREATE CONSTRAINT fd FD ON t (a -> b, c)"));
    for (int i = 0; i < 60; ++i) {
      ASSERT_OK(db.InsertRow(
          "t", Row{Value::Int(rng.UniformInt(0, 9)),
                   Value::Int(rng.UniformInt(0, 3)),
                   Value::Int(rng.UniformInt(0, 2))}));
    }
  }
  CanonicalEdgeList edges = CheckFdDetectionAgainstNaive(&db);
  if (!null_heavy) {
    EXPECT_FALSE(edges.empty()) << "seeds chosen to collide";
  }
}

INSTANTIATE_TEST_SUITE_P(
    NullHeavy, FdPathFuzz,
    ::testing::Combine(::testing::Values(3u, 17u, 99u, 4242u, 31415u,
                                         271828u),
                       ::testing::Values(true)));
INSTANTIATE_TEST_SUITE_P(
    Dense, FdPathFuzz,
    ::testing::Combine(::testing::Values(21u, 22u, 23u, 24u, 25u, 26u, 27u,
                                         28u, 29u, 30u),
                       ::testing::Values(false)));

// Deterministic pinning of the NULL corners: a NULL determinant never
// joins; a NULL dependent value never witnesses a difference (`<>` is
// unknown), but two non-NULL differing values do, even when another
// dependent column is NULL on either side.
TEST(FdNullCornersTest, PinnedSemantics) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, c INTEGER, d INTEGER);"
      "CREATE CONSTRAINT fd FD ON t (a -> c, d);"
      // NULL determinants: never conflict, even with equal-NULL partners.
      "INSERT INTO t VALUES (NULL, 1, 1), (NULL, 2, 2);"
      // NULL rhs on one side only: not a violation.
      "INSERT INTO t VALUES (1, 1, NULL), (1, 1, 7);"
      // NULL in one rhs column but a real difference in the other: IS a
      // violation.
      "INSERT INTO t VALUES (2, 3, NULL), (2, 4, 5);"
      // NULL in the same rhs column on both sides, NULL vs value in the
      // other: not a violation (two distinct all-NULL-difference rows
      // cannot exist under set semantics — they would be equal).
      "INSERT INTO t VALUES (3, NULL, 1), (3, NULL, NULL)"));

  EXPECT_EQ(CheckFdDetectionAgainstNaive(&db).size(), 1u)
      << "only the a=2 pair violates";
}

// ---------------------------------------------------------------------------
// Intra-constraint partition sweep: probe-side partitioning of the generic
// join path and child partitioning of the FK anti-join.
// ---------------------------------------------------------------------------

/// One giant generic (non-FD) equi-join constraint over a skewed-large
/// table — the workload where all parallelism must come from probe-side
/// row-range partitioning — plus, under `with_satellites`, a couple of
/// tiny satellite constraints and an FK with a partitionable child side,
/// so the skewed mix (one giant + several small units) is covered too.
void BuildIntraPartitionScenario(Database* db, Rng* rng,
                                 bool with_satellites) {
  ASSERT_OK(db->Execute(
      "CREATE TABLE g (a INTEGER, b INTEGER);"
      // Equi-conjunct on a (hash probe) + inequality residual; NOT
      // FD-shaped, so the generic join path runs.
      "CREATE CONSTRAINT giant DENIAL (g AS x, g AS y WHERE "
      "x.a = y.a AND x.b < y.b - 1)"));
  size_t n = 150 + rng->Uniform(250);
  for (size_t i = 0; i < n; ++i) {
    // ~3 rows per key so most probes hit; b collisions keep the edge
    // count moderate.
    ASSERT_OK(db->InsertRow(
        "g", Row{MaybeNullInt(rng, 0.05, n / 3 + 1),
                 MaybeNullInt(rng, 0.05, 6)}));
  }
  if (!with_satellites) return;
  ASSERT_OK(db->Execute(
      "CREATE TABLE parent (k INTEGER);"
      "CREATE TABLE child (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_child FD ON child (a -> b);"
      "CREATE CONSTRAINT tiny DENIAL (g AS x WHERE x.b < -5);"
      "CREATE CONSTRAINT fk FOREIGN KEY child (b) REFERENCES parent (k)"));
  for (size_t i = 0; i < 1 + rng->Uniform(3); ++i) {
    ASSERT_OK(db->InsertRow(
        "parent", Row{Value::Int(static_cast<int64_t>(rng->Uniform(4)))}));
  }
  // Child side is large relative to the parent so the FK anti-join's
  // probe side is worth partitioning in the sweep below.
  for (size_t i = 0; i < 60 + rng->Uniform(60); ++i) {
    ASSERT_OK(db->InsertRow(
        "child", Row{MaybeNullInt(rng, 0.1, 5),
                     MaybeNullInt(rng, 0.1, 6)}));
  }
}

class IntraPartitionSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(IntraPartitionSweep, PartitionedEqualsSerialAndNaive) {
  Rng rng(std::get<0>(GetParam()));
  Database db;
  BuildIntraPartitionScenario(&db, &rng, std::get<1>(GetParam()));
  if (::testing::Test::HasFatalFailure()) return;

  CanonicalEdgeList naive =
      oracle::NaiveDetect(db.catalog(), db.constraints(), db.foreign_keys())
          .CanonicalEdges();
  DetectOptions serial;
  CanonicalEdgeList reference = DetectWith(&db, serial);
  EXPECT_EQ(reference, naive)
      << "serial generic-join detection diverged from the naive reference";
  EXPECT_FALSE(reference.empty()) << "scenario generated no conflicts";

  // partition_rows = 1 forces one probe partition per worker even on the
  // test-sized tables; larger thresholds exercise the partial and
  // no-split plans, so split and whole units interleave in the schedule.
  for (size_t threads : {2u, 4u, 8u}) {
    for (size_t partition_rows : {1u, 7u, 64u, 4096u}) {
      DetectOptions opts;
      opts.num_threads = threads;
      opts.partition_rows = partition_rows;
      EXPECT_EQ(DetectWith(&db, opts), reference)
          << "partitioned detection diverged at " << threads
          << " threads, partition_rows=" << partition_rows;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IntraPartitionSweep,
    ::testing::Combine(::testing::Values(5u, 23u, 77u, 443u, 60601u),
                       ::testing::Bool()));

// Edge-id determinism across intra-partition configs: every parallel
// decomposition — different thread counts and partition thresholds — must
// agree edge by edge (id, vertex set, provenance),
// because BulkLoad orders insertion by canonical vertex set independently
// of the decomposition.
TEST(IntraPartitionDeterminismTest, EdgeIdsIndependentOfPartitioning) {
  Rng rng(8675309);
  Database db;
  BuildIntraPartitionScenario(&db, &rng, /*with_satellites=*/true);
  if (::testing::Test::HasFatalFailure()) return;

  auto detect_full = [&](size_t threads, size_t partition_rows) {
    DetectOptions opts;
    opts.num_threads = threads;
    opts.partition_rows = partition_rows;
    ConflictDetector detector(db.catalog(), opts);
    auto g = detector.DetectAll(db.constraints(), db.foreign_keys());
    EXPECT_OK(g.status());
    return std::move(g).value();
  };
  ConflictHypergraph base = detect_full(2, 1);
  EXPECT_GT(base.NumEdges(), 0u);
  for (auto [threads, partition_rows] :
       {std::pair<size_t, size_t>{3, 7}, {4, 64}, {8, 1}, {2, 4096}}) {
    ConflictHypergraph other = detect_full(threads, partition_rows);
    ASSERT_EQ(base.NumEdgeSlots(), other.NumEdgeSlots())
        << "threads=" << threads << " partition_rows=" << partition_rows;
    for (size_t e = 0; e < base.NumEdgeSlots(); ++e) {
      auto id = static_cast<ConflictHypergraph::EdgeId>(e);
      EXPECT_EQ(base.edge(id), other.edge(id));
      EXPECT_EQ(base.edge_constraint(id), other.edge_constraint(id));
    }
  }
}

// The partition planner actually splits (this pins the sweep above to the
// partitioned code path rather than vacuously passing on unsplit units),
// and tiny constraints below the threshold don't pay for partitioning.
TEST(IntraPartitionDeterminismTest, PlannerSplitsOnlyAboveThreshold) {
  Rng rng(1234);
  Database db;
  BuildIntraPartitionScenario(&db, &rng, /*with_satellites=*/true);
  if (::testing::Test::HasFatalFailure()) return;

  DetectOptions split;
  split.num_threads = 4;
  split.partition_rows = 1;
  ConflictDetector split_detector(db.catalog(), split);
  ASSERT_OK(split_detector.DetectAll(db.constraints(), db.foreign_keys())
                .status());
  EXPECT_GT(split_detector.stats().generic_partitions, 0u);
  EXPECT_GT(split_detector.stats().fk_partitions, 0u);

  DetectOptions unsplit;
  unsplit.num_threads = 4;
  unsplit.partition_rows = SIZE_MAX;
  ConflictDetector unsplit_detector(db.catalog(), unsplit);
  ASSERT_OK(unsplit_detector.DetectAll(db.constraints(), db.foreign_keys())
                .status());
  EXPECT_EQ(unsplit_detector.stats().generic_partitions, 0u);
  EXPECT_EQ(unsplit_detector.stats().fk_partitions, 0u);
}

}  // namespace
}  // namespace hippo
