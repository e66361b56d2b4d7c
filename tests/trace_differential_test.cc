// Trace determinism differential: attaching a TraceSpan to a query must
// not change anything observable — same rows in the same sequence, same
// HippoStats (route, candidates, answers, prover work), and an untouched
// conflict hypergraph (edge ids + constraint provenance) — across all
// three router routes and two thread counts. This is the contract
// that makes EXPLAIN ANALYZE trustworthy: what it times is exactly the
// query the user would have run.
//
// Runs in the ASan lane with every other test and is named into the TSan
// lane: the traced prover path shares one span tree across worker threads.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "db/database.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

std::string RandomValue(std::mt19937_64* rng, double null_rate, int domain) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(*rng) < null_rate) return "NULL";
  return std::to_string(
      std::uniform_int_distribution<int>(0, domain - 1)(*rng));
}

/// r(a, b) with FD a -> b (conflicting blocks), t(f, g) unconstrained
/// (conflict-free route territory). NULLs everywhere.
void BuildInstance(Database* db, uint64_t seed) {
  ASSERT_OK(db->Execute(
      "CREATE TABLE r (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_r FD ON r (a -> b);"
      "CREATE TABLE t (f INTEGER, g INTEGER)"));
  std::mt19937_64 rng(seed);
  std::string script;
  for (int i = 0; i < 16; ++i) {
    script += "INSERT INTO r VALUES (" + RandomValue(&rng, 0.1, 5) + ", " +
              RandomValue(&rng, 0.25, 4) + ");";
  }
  for (int i = 0; i < 8; ++i) {
    script += "INSERT INTO t VALUES (" + RandomValue(&rng, 0.25, 4) + ", " +
              RandomValue(&rng, 0.25, 4) + ");";
  }
  ASSERT_OK(db->Execute(script));
}

struct RouteCase {
  std::string sql;
  RouteMode route;
  RouteKind expect;  ///< route the forced/auto dispatch must land on
};

std::vector<RouteCase> Cases() {
  return {
      // Conflict-free: auto on the unconstrained table.
      {"SELECT * FROM t ORDER BY f", RouteMode::kAuto,
       RouteKind::kConflictFree},
      {"SELECT f FROM t", RouteMode::kAuto, RouteKind::kConflictFree},
      // Rewrite (ABC/KW) forced on the constrained table.
      {"SELECT * FROM r ORDER BY a", RouteMode::kForceRewrite,
       RouteKind::kRewriteAbc},
      {"SELECT a FROM r", RouteMode::kForceRewrite, RouteKind::kRewriteKw},
      // Prover forced (and the prover-only set operation under auto).
      {"SELECT * FROM r WHERE b IS NOT NULL", RouteMode::kForceProver,
       RouteKind::kProver},
      {"SELECT * FROM r EXCEPT SELECT * FROM t", RouteMode::kAuto,
       RouteKind::kProver},
  };
}

void ExpectSameStats(const cqa::HippoStats& off, const cqa::HippoStats& on,
                     const std::string& ctx) {
  EXPECT_EQ(off.route, on.route) << ctx;
  EXPECT_EQ(off.candidates, on.candidates) << ctx;
  EXPECT_EQ(off.answers, on.answers) << ctx;
  EXPECT_EQ(off.prover_invocations, on.prover_invocations) << ctx;
  EXPECT_EQ(off.clauses_checked, on.clauses_checked) << ctx;
  EXPECT_EQ(off.membership_checks, on.membership_checks) << ctx;
  EXPECT_EQ(off.filtered_shortcuts, on.filtered_shortcuts) << ctx;
}

TEST(TraceDifferential, TracingNeverChangesAnswersOrHypergraph) {
  for (uint64_t seed : {11u, 23u}) {
    Database db;
    BuildInstance(&db, seed);

    // Freeze the hypergraph identity before any query runs.
    auto graph = db.Hypergraph();
    ASSERT_OK(graph.status());
    auto edges_before = graph.value()->CanonicalEdges();

    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (const RouteCase& c : Cases()) {
        std::string ctx = c.sql + " [x" + std::to_string(threads) + " seed " +
                          std::to_string(seed) + "]";

        cqa::HippoOptions options;
        options.num_threads = threads;
        options.route = c.route;

        cqa::HippoStats stats_off;
        auto rs_off = db.ConsistentAnswers(c.sql, options, &stats_off);
        ASSERT_OK(rs_off.status()) << ctx;
        EXPECT_EQ(stats_off.route, c.expect) << ctx;

        obs::TraceSpan root("query");
        cqa::HippoOptions traced = options;
        traced.trace = &root;
        cqa::HippoStats stats_on;
        auto rs_on = db.ConsistentAnswers(c.sql, traced, &stats_on);
        root.End();
        ASSERT_OK(rs_on.status()) << ctx;

        // Bit-identical: the exact row sequence, not just the set.
        EXPECT_EQ(rs_off.value().rows, rs_on.value().rows) << ctx;
        ExpectSameStats(stats_off, stats_on, ctx);

        // The trace recorded the route it took.
        EXPECT_EQ(root.Attr("route"), RouteKindName(c.expect)) << ctx;
      }
    }

    // No query — traced or not — may have touched the hypergraph: same
    // edges, same constraint provenance, same generation.
    auto graph_after = db.Hypergraph();
    ASSERT_OK(graph_after.status());
    EXPECT_EQ(graph_after.value()->CanonicalEdges(), edges_before);
  }
}

TEST(TraceDifferential, ExplainAnalyzeMatchesPlainExecution) {
  Database db;
  BuildInstance(&db, 7);
  for (const RouteCase& c : Cases()) {
    cqa::HippoOptions options;
    options.route = c.route;
    auto rs = db.ConsistentAnswers(c.sql, options);
    ASSERT_OK(rs.status()) << c.sql;

    cqa::HippoStats stats;
    auto text = db.ExplainAnalyze(c.sql, options, &stats);
    ASSERT_OK(text.status()) << c.sql;
    EXPECT_EQ(stats.route, c.expect) << c.sql;
    // The annotated plan names the query span, the route, and the answer
    // cardinality; per-operator lines carry wall times ("ms"/"us").
    EXPECT_NE(text.value().find("query"), std::string::npos) << text.value();
    EXPECT_NE(text.value().find(RouteKindName(c.expect)), std::string::npos)
        << text.value();
    EXPECT_NE(text.value().find(
                  "answers=" + std::to_string(rs.value().rows.size())),
              std::string::npos)
        << text.value();
    // Per-operator annotations: every route's plan has at least a scan
    // with a cardinality, and every span line carries a wall time.
    EXPECT_NE(text.value().find("Scan"), std::string::npos) << text.value();
    EXPECT_NE(text.value().find("rows="), std::string::npos) << text.value();
    EXPECT_TRUE(text.value().find(" us") != std::string::npos ||
                text.value().find(" ms") != std::string::npos)
        << text.value();
  }
}

}  // namespace
}  // namespace hippo
