// Columnar-vs-row differential battery: the columnar engine (Execute) must
// be BIT-identical to the row-at-a-time oracle (oracle::ExecuteRows in
// tests/oracle) — same rows in the same order, serial and partitioned —
// on the plan every router route evaluates (the optimized query on the
// conflict-free route, the optimized rewriting on the first-order routes,
// the envelope on the prover route) as well as on the plain and optimized
// query plans. The prover and the canonical answer sort run on those rows
// and do not depend on the engine, so equal rows mean equal consistent
// answers. Detection on the columnar kernels must produce the same
// conflict hyperedges with the same edge ids and provenance as the
// row-kernel oracle. All of it must survive view-invalidating writes
// (inserts rebuild Table's memoized columnar view, deletes tombstone under
// it). Instances are seeded random and NULL-heavy, since SQL three-valued
// logic and NULL join keys are where vectorized rewrites classically
// diverge.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "cqa/envelope.h"
#include "db/database.h"
#include "detect/detector.h"
#include "plan/optimizer.h"
#include "plan/router.h"
#include "plan/sjud.h"
#include "tests/oracle/detect.h"
#include "tests/oracle/row_engine.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

std::string RandomValue(std::mt19937_64* rng, double null_rate, int domain) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(*rng) < null_rate) return "NULL";
  return std::to_string(
      std::uniform_int_distribution<int>(0, domain - 1)(*rng));
}

/// r(a, b, c) with FD a -> b, c; s(d, e) with FD d -> e and a foreign key
/// into parent(k); t(f, g) unconstrained. Tiny NULL-seasoned domains force
/// conflicts, orphans, and NULL keys on every path.
void BuildRandomInstance(Database* db, uint64_t seed, double null_rate) {
  ASSERT_OK(db->Execute(
      "CREATE TABLE parent (k INTEGER);"
      "CREATE TABLE r (a INTEGER, b INTEGER, c INTEGER);"
      "CREATE CONSTRAINT pk_r FD ON r (a -> b, c);"
      "CREATE TABLE s (d INTEGER, e INTEGER);"
      "CREATE CONSTRAINT fd_s FD ON s (d -> e);"
      "CREATE CONSTRAINT excl EXCLUSION ON r (a), s (d);"
      "CREATE CONSTRAINT fk_s FOREIGN KEY s (e) REFERENCES parent (k);"
      "CREATE TABLE t (f INTEGER, g INTEGER)"));
  std::mt19937_64 rng(seed);
  std::string script;
  for (int i = 0; i < 3; ++i) {
    script += "INSERT INTO parent VALUES (" + RandomValue(&rng, 0.0, 4) + ");";
  }
  for (int i = 0; i < 14; ++i) {
    script += "INSERT INTO r VALUES (" + RandomValue(&rng, null_rate / 2, 5) +
              ", " + RandomValue(&rng, null_rate, 4) + ", " +
              RandomValue(&rng, null_rate, 4) + ");";
  }
  for (int i = 0; i < 10; ++i) {
    script += "INSERT INTO s VALUES (" + RandomValue(&rng, null_rate / 2, 4) +
              ", " + RandomValue(&rng, null_rate, 5) + ");";
  }
  for (int i = 0; i < 6; ++i) {
    script += "INSERT INTO t VALUES (" + RandomValue(&rng, null_rate, 4) +
              ", " + RandomValue(&rng, null_rate, 4) + ");";
  }
  ASSERT_OK(db->Execute(script));
}

/// Queries spanning every batch operator: filter (typed loops, NULL
/// literals, IS NULL over validity bits), zero-copy and computed
/// projection, hash and nested-loop joins, anti-joins (via rewriting),
/// sort (column-key and expression-key), set operations, aggregation.
std::vector<std::string> QueryPool() {
  return {
      "SELECT * FROM r",
      "SELECT * FROM r ORDER BY a",
      "SELECT * FROM r WHERE b > 1",
      "SELECT * FROM r WHERE b IS NULL",
      "SELECT * FROM r WHERE c IS NOT NULL ORDER BY b",
      "SELECT * FROM r WHERE a = 2.0",  // mixed-type comparison loop
      "SELECT c, a, b FROM r",          // zero-copy column reorder
      "SELECT a + b FROM r",            // computed projection
      "SELECT a FROM r ORDER BY a",
      "SELECT * FROM s WHERE e = 2",
      "SELECT * FROM r, s WHERE r.a = s.d",
      "SELECT r.a FROM r, s WHERE r.a = s.d",
      "SELECT * FROM r, s WHERE r.a < s.d",  // no equi-key: NL join
      "SELECT a, b FROM r EXCEPT SELECT d, e FROM s",
      "SELECT d, e FROM s UNION SELECT f, g FROM t",
      "SELECT d, e FROM s INTERSECT SELECT f, g FROM t",
      "SELECT f FROM t ORDER BY f",
  };
}

/// Evaluates `plan` with both engines, serially and in row-range
/// partitions; each pair must agree on the exact row sequence.
void ExpectSameRows(const Database& db, const PlanNode& plan,
                    const std::string& what) {
  for (size_t threads : {1u, 4u}) {
    ExecContext ctx{&db.catalog(), nullptr};
    ctx.parallel.num_threads = threads;
    ctx.parallel.min_partition_rows = 4;
    auto columnar = Execute(plan, ctx);
    auto rows = oracle::ExecuteRows(plan, ctx);
    ASSERT_OK(columnar.status()) << what;
    ASSERT_OK(rows.status()) << what;
    EXPECT_EQ(columnar.value().rows, rows.value())
        << what << " x" << threads
        << ": the columnar engine diverged from the row oracle";
  }
}

/// Checks the plain and optimized plans of `sql`, then, for every forced
/// route that accepts the query, the plan that route evaluates
/// (HippoEngine::ServeFirstOrder / ServeProver). Records the routes that
/// were checked in `routes`.
void CrossCheckPlans(Database* db, const std::string& sql,
                     std::set<RouteKind>* routes) {
  auto planned = db->Plan(sql);
  ASSERT_OK(planned.status()) << sql;
  const PlanNode& plan = *planned.value();
  ExpectSameRows(*db, plan, sql + " [plain]");
  ExpectSameRows(*db, *OptimizePlan(plan), sql + " [optimized]");

  auto graph = db->Hypergraph();
  ASSERT_OK(graph.status());
  for (RouteMode mode : {RouteMode::kForceConflictFree,
                         RouteMode::kForceRewrite, RouteMode::kForceProver}) {
    auto route = ClassifyRoute(plan, db->catalog(), &db->constraints(),
                               &db->foreign_keys(), graph.value(), mode);
    if (!route.ok()) continue;  // the route cannot serve this query
    RouteKind kind = route.value().kind;
    std::string what = sql + " [" + RouteKindName(kind) + "]";
    if (kind == RouteKind::kProver) {
      if (!CheckSjudSupported(plan).ok()) continue;
      ExpectSameRows(*db, *cqa::BuildEnvelope(plan), what);
    } else {
      const PlanNode* body = kind == RouteKind::kConflictFree
                                 ? &plan
                                 : route.value().rewritten.get();
      if (body->kind() == PlanKind::kSort) body = &body->child(0);
      ExpectSameRows(*db, *OptimizePlan(*body), what);
    }
    routes->insert(kind);
  }
}

/// Full id-level dump of a hypergraph: (edge id, vertices, constraint).
using EdgeDump = std::vector<std::tuple<size_t, std::vector<RowId>, uint32_t>>;

EdgeDump DumpEdges(const ConflictHypergraph& g) {
  EdgeDump dump;
  for (size_t e = 0; e < g.NumEdgeSlots(); ++e) {
    auto id = static_cast<ConflictHypergraph::EdgeId>(e);
    if (!g.EdgeAlive(id)) continue;
    dump.emplace_back(e, g.edge(id), g.edge_constraint(id));
  }
  return dump;
}

/// Serial detection of every constraint, FDs included, must produce the
/// row-kernel oracle's edges with the same IDS; serial and parallel
/// (BulkLoad order) detection must produce the naive detector's edges and
/// provenance.
void CrossCheckDetection(Database* db) {
  ConflictDetector serial_det(db->catalog());
  auto serial_g = serial_det.DetectAll(db->constraints(), db->foreign_keys());
  auto oracle_g = oracle::DetectAllRows(db->catalog(), db->constraints(),
                                        db->foreign_keys());
  ASSERT_OK(serial_g.status());
  ASSERT_OK(oracle_g.status());
  EXPECT_EQ(DumpEdges(serial_g.value()), DumpEdges(oracle_g.value()))
      << "columnar serial detection diverged from the row oracle";

  auto naive = oracle::NaiveDetect(db->catalog(), db->constraints(),
                                   db->foreign_keys())
                   .CanonicalEdges();
  EXPECT_EQ(serial_g.value().CanonicalEdges(), naive)
      << "serial detection diverged from the naive detector";
  DetectOptions parallel;
  parallel.num_threads = 4;
  ConflictDetector parallel_det(db->catalog(), parallel);
  auto parallel_g =
      parallel_det.DetectAll(db->constraints(), db->foreign_keys());
  ASSERT_OK(parallel_g.status());
  EXPECT_EQ(parallel_g.value().CanonicalEdges(), naive)
      << "parallel detection diverged from the naive detector";
}

class ColumnarDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarDifferential, EnginesAgreeOnNullHeavyInstances) {
  Database db;
  BuildRandomInstance(&db, GetParam(), /*null_rate=*/0.35);
  if (::testing::Test::HasFatalFailure()) return;

  std::set<RouteKind> routes;
  for (const std::string& sql : QueryPool()) {
    CrossCheckPlans(&db, sql, &routes);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every route's plan shape was compared, not just the plain plans.
  EXPECT_TRUE(routes.count(RouteKind::kConflictFree));
  EXPECT_TRUE(routes.count(RouteKind::kRewriteAbc) ||
              routes.count(RouteKind::kRewriteKw));
  EXPECT_TRUE(routes.count(RouteKind::kProver));
  CrossCheckDetection(&db);
}

TEST_P(ColumnarDifferential, EnginesAgreeAfterViewInvalidatingWrites) {
  Database db;
  BuildRandomInstance(&db, GetParam(), /*null_rate=*/0.35);
  if (::testing::Test::HasFatalFailure()) return;

  // Materialize the columnar views (and the incremental hypergraph) so the
  // writes below exercise invalidation and maintenance, not first builds.
  std::set<RouteKind> routes;
  CrossCheckPlans(&db, "SELECT * FROM r", &routes);
  CrossCheckDetection(&db);
  if (::testing::Test::HasFatalFailure()) return;

  std::mt19937_64 rng(GetParam() ^ 0x5eedULL);
  // Inserts append slots (view rebuilt); deletes tombstone in place (view
  // kept, liveness handled by the scan selection); the UPDATE does both.
  ASSERT_OK(db.Execute(
      "INSERT INTO r VALUES (" + RandomValue(&rng, 0.2, 5) + ", " +
      RandomValue(&rng, 0.2, 4) + ", NULL);"
      "INSERT INTO s VALUES (0, " + RandomValue(&rng, 0.2, 5) + ");"
      "DELETE FROM r WHERE b = 1;"
      "DELETE FROM s WHERE d IS NULL;"
      "UPDATE t SET g = 7 WHERE f = 2"));

  for (const std::string& sql : QueryPool()) {
    CrossCheckPlans(&db, sql, &routes);
    if (::testing::Test::HasFatalFailure()) return;
  }
  CrossCheckDetection(&db);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDifferential,
                         ::testing::Values(1u, 7u, 42u, 101u, 2024u, 90210u));

}  // namespace
}  // namespace hippo
