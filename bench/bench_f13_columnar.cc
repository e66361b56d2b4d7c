// F13 — vectorized columnar execution vs the row-at-a-time engine.
//
// The columnar engine (Execute) executes filters as typed loops over
// shared column vectors with selection-vector narrowing, joins as
// index-tuple probes of hash tables keyed by column-slice hashes, and
// scans as zero-copy shares of Table's memoized columnar view. These
// sweeps measure what that buys over the row-at-a-time engine, which
// survives as the test oracle (tests/oracle: oracle::ExecuteRows and
// oracle::DetectAllRows), on the paths the system actually spends time on:
//
//   * F13a — filter + projection over one relation, by input size;
//   * F13b — envelope evaluation of a join query (the relational half of
//     ConsistentAnswers), both engines across thread counts;
//   * F13c — generic-join conflict detection (the F5/F11 giant-constraint
//     shape), row vs batch probes, by input size.
//
// Every row cross-checks result cardinality between the engines; full
// bit-equality (rows, order, edge ids, provenance) is proved by
// tests/columnar_differential_test.cc. The engine comparison is
// single-thread-honest: F13a/F13c pin one thread, and F13b's thread
// column keeps the multi-thread rows out of the single-core perf gate.
#include "bench/bench_common.h"

#include "common/rng.h"
#include "common/str_util.h"
#include "cqa/envelope.h"
#include "detect/detector.h"
#include "exec/executor.h"
#include "tests/oracle/detect.h"
#include "tests/oracle/row_engine.h"

namespace hippo::bench {
namespace {

std::vector<size_t> ScanSizes() {
  if (SmokeMode()) return {1024, 4096};
  return {16384, 65536, 262144};
}

std::vector<size_t> DetectSizes() {
  if (SmokeMode()) return {1024, 4096};
  return {32768, 131072};
}

size_t EnvelopeRows() { return SmokeMode() ? 512 : 32768; }

/// One relation with ~2 rows per key and a wide-gap generic (non-FD)
/// constraint — the F5/F11 giant shape whose detection cost is pure
/// hash-join probe work.
Database* GenericDb(size_t n) {
  static std::map<size_t, std::unique_ptr<Database>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    auto db = std::make_unique<Database>();
    HIPPO_CHECK(db->Execute(
                      "CREATE TABLE g (a INTEGER, b INTEGER);"
                      "CREATE CONSTRAINT giant DENIAL (g AS x, g AS y WHERE "
                      "x.a = y.a AND x.b < y.b - 18000)")
                    .ok());
    Rng rng(1342);
    for (size_t i = 0; i < n; ++i) {
      HIPPO_CHECK(db->InsertRow(
                        "g",
                        Row{Value::Int(static_cast<int64_t>(
                                rng.Uniform(n / 2 + 1))),
                            Value::Int(static_cast<int64_t>(
                                rng.Uniform(20000)))})
                      .ok());
    }
    it = cache.emplace(n, std::move(db)).first;
  }
  return it->second.get();
}

ExecContext EngineCtx(const Database* db, size_t threads) {
  ExecContext ctx{&db->catalog(), nullptr};
  ctx.parallel.num_threads = threads;
  ctx.parallel.min_partition_rows = SmokeMode() ? 64 : 4096;
  return ctx;
}

/// Times one materializing execution on the columnar engine (`row` =
/// false) or the row oracle; returns (seconds, result rows).
std::pair<double, size_t> TimeExecute(const PlanNode& plan,
                                      const ExecContext& ctx, bool row) {
  size_t rows = 0;
  double secs = TimeOnce([&] {
    if (row) {
      auto rs = oracle::ExecuteRows(plan, ctx);
      HIPPO_CHECK_MSG(rs.ok(), rs.status().ToString().c_str());
      rows = rs.value().size();
    } else {
      auto rs = Execute(plan, ctx);
      HIPPO_CHECK_MSG(rs.ok(), rs.status().ToString().c_str());
      rows = rs.value().NumRows();
    }
  });
  return {secs, rows};
}

void PrintFilterSweep() {
  TextTable table({"rows", "row engine", "batch engine", "batch speedup",
                   "result rows"});
  for (size_t n : ScanSizes()) {
    Database* db = DbCache::Get("two_relation_f13", &BuildTwoRelationWorkload,
                                n, /*conflict_rate=*/0.05);
    auto plan = db->Plan(QuerySet::Selection());
    HIPPO_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
    // Warm the columnar view so the row measures engine cost, not the
    // one-time view build.
    auto [warm_secs, warm_rows] =
        TimeExecute(*plan.value(), EngineCtx(db, 1), /*row=*/false);
    (void)warm_secs;
    auto [row_secs, row_rows] =
        TimeExecute(*plan.value(), EngineCtx(db, 1), /*row=*/true);
    auto [batch_secs, batch_rows] =
        TimeExecute(*plan.value(), EngineCtx(db, 1), /*row=*/false);
    HIPPO_CHECK_MSG(row_rows == batch_rows && warm_rows == batch_rows,
                    "engines disagree on the result cardinality");
    table.AddRow({std::to_string(n), FormatSeconds(row_secs),
                  FormatSeconds(batch_secs),
                  StrFormat("%.2fx", row_secs / batch_secs),
                  std::to_string(batch_rows)});
  }
  table.Print(
      "F13a: selection query, row vs batch engine (1 thread, warm "
      "columnar view)");
}

void PrintEnvelopeSweep() {
  Database* db = DbCache::Get("two_relation_f13", &BuildTwoRelationWorkload,
                              EnvelopeRows(), /*conflict_rate=*/0.05);
  auto plan = db->Plan(QuerySet::Join());
  HIPPO_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
  PlanNodePtr envelope = cqa::BuildEnvelope(*plan.value());

  TextTable table({"threads", "row engine", "batch engine", "batch speedup",
                   "candidate rows"});
  size_t base_rows = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto [row_secs, row_rows] =
        TimeExecute(*envelope, EngineCtx(db, threads), /*row=*/true);
    auto [batch_secs, batch_rows] =
        TimeExecute(*envelope, EngineCtx(db, threads), /*row=*/false);
    HIPPO_CHECK_MSG(row_rows == batch_rows,
                    "engines disagree on the candidate cardinality");
    if (threads == 1) base_rows = batch_rows;
    HIPPO_CHECK_MSG(batch_rows == base_rows,
                    "partitioning changed the candidate cardinality");
    table.AddRow({std::to_string(threads), FormatSeconds(row_secs),
                  FormatSeconds(batch_secs),
                  StrFormat("%.2fx", row_secs / batch_secs),
                  std::to_string(batch_rows)});
  }
  table.Print(StrFormat(
      "F13b: envelope evaluation of the join query, row vs batch engine "
      "(%zu rows per relation, 5%% conflicts)",
      EnvelopeRows()));
}

/// One timed serial detection on the columnar kernels (DetectAll) or the
/// row oracle (oracle::DetectAllRows); returns (seconds, edges).
std::pair<double, size_t> TimeDetect(Database* db, bool row) {
  ConflictDetector detector(db->catalog());
  size_t edges = 0;
  double secs = TimeOnce([&] {
    auto g = row ? oracle::DetectAllRows(db->catalog(), db->constraints(),
                                         db->foreign_keys())
                 : detector.DetectAll(db->constraints(), db->foreign_keys());
    HIPPO_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    edges = g.value().NumEdges();
  });
  return {secs, edges};
}

void PrintDetectSweep() {
  TextTable table({"rows", "row engine", "batch engine", "batch speedup",
                   "edges"});
  for (size_t n : DetectSizes()) {
    Database* db = GenericDb(n);
    // Warm the columnar view (one-time table image, shared afterwards).
    TimeDetect(db, /*row=*/false);
    auto [row_secs, row_edges] = TimeDetect(db, /*row=*/true);
    auto [batch_secs, batch_edges] = TimeDetect(db, /*row=*/false);
    HIPPO_CHECK_MSG(row_edges == batch_edges,
                    "engines disagree on the edge count");
    table.AddRow({std::to_string(n), FormatSeconds(row_secs),
                  FormatSeconds(batch_secs),
                  StrFormat("%.2fx", row_secs / batch_secs),
                  std::to_string(batch_edges)});
  }
  table.Print(
      "F13c: generic-join conflict detection, row vs batch probes "
      "(1 thread, warm columnar view)");
}

void PrintFigureTables() {
  PrintFilterSweep();
  PrintEnvelopeSweep();
  PrintDetectSweep();
}

void BM_BatchDetect(benchmark::State& state) {
  Database* db = GenericDb(static_cast<size_t>(state.range(0)));
  bool batch = state.range(1) != 0;
  for (auto _ : state) {
    ConflictDetector detector(db->catalog());
    auto g = batch ? detector.DetectAll(db->constraints())
                   : oracle::DetectAllRows(db->catalog(), db->constraints(),
                                           {});
    HIPPO_CHECK(g.ok());
    benchmark::DoNotOptimize(g.value().NumEdges());
  }
}
BENCHMARK(BM_BatchDetect)
    ->Args({32768, 0})
    ->Args({32768, 1})
    ->Args({131072, 0})
    ->Args({131072, 1})
    ->Unit(benchmark::kMillisecond);

void BM_BatchEnvelope(benchmark::State& state) {
  Database* db = DbCache::Get("two_relation_f13", &BuildTwoRelationWorkload,
                              32768, /*conflict_rate=*/0.05);
  auto plan = db->Plan(QuerySet::Join());
  HIPPO_CHECK(plan.ok());
  PlanNodePtr envelope = cqa::BuildEnvelope(*plan.value());
  ExecContext ctx = EngineCtx(db, 1);
  bool batch = state.range(0) != 0;
  for (auto _ : state) {
    if (batch) {
      auto rs = Execute(*envelope, ctx);
      HIPPO_CHECK(rs.ok());
      benchmark::DoNotOptimize(rs.value().NumRows());
    } else {
      auto rs = oracle::ExecuteRows(*envelope, ctx);
      HIPPO_CHECK(rs.ok());
      benchmark::DoNotOptimize(rs.value().size());
    }
  }
}
BENCHMARK(BM_BatchEnvelope)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTables())
