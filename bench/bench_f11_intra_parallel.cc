// F11 — intra-constraint parallelism (the skewed-workload front door):
// probe-side row-range partitioning of the generic join path, child
// partitioning of the FK anti-join, and partitioned envelope evaluation.
//
// The F8 workloads are a hot FD and a fan-out across FD-heavy constraints;
// these workloads are the other shapes:
//
//   * one giant generic (non-FD) denial constraint — before partitioning,
//     DetectAll ran it as a single serial unit no matter how many workers
//     the pool had;
//   * a skewed mix — one giant constraint plus several tiny ones, where
//     the giant used to serialize the tail of every parallel detection;
//   * one large restricted foreign key (anti-join over the child side);
//   * envelope evaluation of a join query (the relational-engine half of
//     ConsistentAnswers), partitioned by the executor.
//
// Every sweep checks that the result cardinality is thread-invariant
// (full bit-equality incl. edge ids and provenance is proved by
// tests/detector_differential_test.cc and tests/parallel_test.cc).
// Speedups require physical cores: on a single-core host every row
// degenerates to ~1x.
#include "bench/bench_common.h"

#include "common/rng.h"
#include "common/str_util.h"
#include "cqa/envelope.h"
#include "detect/detector.h"
#include "exec/executor.h"

namespace hippo::bench {
namespace {

size_t GiantRows() { return SmokeMode() ? 4096 : 262144; }
size_t SmallRows() { return SmokeMode() ? 256 : 4096; }
size_t EnvelopeRows() { return SmokeMode() ? 512 : 32768; }
// Scaled down in smoke mode so the CI lane still executes the probe
// partitioning path on the tiny workloads.
size_t PartitionRows() { return SmokeMode() ? 512 : 8192; }

/// One giant generic constraint: g(a, b) with ~2 rows per `a` value and a
/// non-FD-shaped condition (equi on a, wide-gap inequality residual on b),
/// so detection runs the generic hash-join path and conflicts are sparse.
Database* GiantDb() {
  static std::unique_ptr<Database> db;
  if (db == nullptr) {
    db = std::make_unique<Database>();
    HIPPO_CHECK(db->Execute(
                      "CREATE TABLE g (a INTEGER, b INTEGER);"
                      "CREATE CONSTRAINT giant DENIAL (g AS x, g AS y WHERE "
                      "x.a = y.a AND x.b < y.b - 18000)")
                    .ok());
    Rng rng(42);
    size_t n = GiantRows();
    for (size_t i = 0; i < n; ++i) {
      HIPPO_CHECK(db->InsertRow(
                        "g",
                        Row{Value::Int(static_cast<int64_t>(
                                rng.Uniform(n / 2 + 1))),
                            Value::Int(static_cast<int64_t>(
                                rng.Uniform(20000)))})
                      .ok());
    }
  }
  return db.get();
}

/// Skewed mix: the giant constraint's table and condition, plus six tiny
/// generic constraints over a small side relation — the workload where a
/// constraint-granular scheduler pins one worker on the giant while the
/// rest go idle.
Database* SkewedDb() {
  static std::unique_ptr<Database> db;
  if (db == nullptr) {
    db = std::make_unique<Database>();
    HIPPO_CHECK(db->Execute(
                      "CREATE TABLE g (a INTEGER, b INTEGER);"
                      "CREATE TABLE s (a INTEGER, b INTEGER);"
                      "CREATE CONSTRAINT giant DENIAL (g AS x, g AS y WHERE "
                      "x.a = y.a AND x.b < y.b - 18000)")
                    .ok());
    for (size_t c = 0; c < 6; ++c) {
      HIPPO_CHECK(db->Execute(StrFormat(
                                  "CREATE CONSTRAINT small%zu DENIAL "
                                  "(s AS x, s AS y WHERE x.a = y.a AND "
                                  "x.b = y.b + %zu)",
                                  c, c + 1))
                      .ok());
    }
    Rng rng(43);
    size_t n = GiantRows();
    for (size_t i = 0; i < n; ++i) {
      HIPPO_CHECK(db->InsertRow(
                        "g",
                        Row{Value::Int(static_cast<int64_t>(
                                rng.Uniform(n / 2 + 1))),
                            Value::Int(static_cast<int64_t>(
                                rng.Uniform(20000)))})
                      .ok());
    }
    for (size_t i = 0; i < SmallRows(); ++i) {
      HIPPO_CHECK(db->InsertRow(
                        "s",
                        Row{Value::Int(static_cast<int64_t>(
                                rng.Uniform(SmallRows() / 2 + 1))),
                            Value::Int(static_cast<int64_t>(
                                rng.Uniform(50)))})
                      .ok());
    }
  }
  return db.get();
}

/// One large restricted FK: a small parent and a giant child side with a
/// sprinkle of orphans — all detection work is the child-side anti-join.
Database* FkDb() {
  static std::unique_ptr<Database> db;
  if (db == nullptr) {
    db = std::make_unique<Database>();
    HIPPO_CHECK(db->Execute(
                      "CREATE TABLE parent (k INTEGER);"
                      "CREATE TABLE child (a INTEGER, k INTEGER);"
                      "CREATE CONSTRAINT fk FOREIGN KEY child (k) "
                      "REFERENCES parent (k)")
                    .ok());
    Rng rng(44);
    size_t parents = SmokeMode() ? 64 : 1024;
    for (size_t i = 0; i < parents; ++i) {
      HIPPO_CHECK(db->InsertRow(
                        "parent",
                        Row{Value::Int(static_cast<int64_t>(i))})
                      .ok());
    }
    for (size_t i = 0; i < GiantRows(); ++i) {
      // ~1% orphans (keys past the parent range).
      int64_t k = rng.Chance(0.01)
                      ? static_cast<int64_t>(parents + rng.Uniform(1000))
                      : static_cast<int64_t>(rng.Uniform(parents));
      HIPPO_CHECK(db->InsertRow(
                        "child",
                        Row{Value::Int(static_cast<int64_t>(
                                rng.Uniform(1000))),
                            Value::Int(k)})
                      .ok());
    }
  }
  return db.get();
}

DetectOptions IntraOptions(size_t threads) {
  DetectOptions options;
  options.num_threads = threads;
  options.partition_rows = PartitionRows();
  return options;
}

/// One timed DetectAll; returns (seconds, edges, intra partitions).
std::tuple<double, size_t, size_t> TimeDetect(Database* db,
                                              const DetectOptions& options) {
  ConflictDetector detector(db->catalog(), options);
  ConflictHypergraph graph;
  double secs = TimeOnce([&] {
    auto g = detector.DetectAll(db->constraints(), db->foreign_keys());
    HIPPO_CHECK(g.ok());
    graph = std::move(g).value();
  });
  return {secs, graph.NumEdges(),
          detector.stats().generic_partitions +
              detector.stats().fk_partitions};
}

void PrintDetectSweep(const std::string& caption, Database* db) {
  TextTable table({"threads", "detect time", "speedup vs 1 thread",
                   "partitions", "edges"});
  // Untimed warm-up, as in F8: the first detection images each table into
  // its memoized columnar view, which every later run reuses. Without it
  // the 1-thread row alone would pay that one-off cost.
  ConflictDetector warm_up(db->catalog());
  HIPPO_CHECK(warm_up.DetectAll(db->constraints(), db->foreign_keys()).ok());
  double base = 0;
  size_t base_edges = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto [secs, edges, partitions] = TimeDetect(db, IntraOptions(threads));
    if (threads == 1) {
      base = secs;
      base_edges = edges;
    }
    HIPPO_CHECK_MSG(edges == base_edges,
                    "partitioned detection changed the edge count");
    table.AddRow({std::to_string(threads), FormatSeconds(secs),
                  StrFormat("%.2fx", base / secs),
                  std::to_string(partitions), std::to_string(edges)});
  }
  table.Print(caption);
}

void PrintEnvelopeSweep() {
  Database* db = DbCache::Get("two_relation_f11",
                              &BuildTwoRelationWorkload, EnvelopeRows(),
                              /*conflict_rate=*/0.05);
  auto plan = db->Plan(QuerySet::Join());
  HIPPO_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
  PlanNodePtr envelope = cqa::BuildEnvelope(*plan.value());

  TextTable table({"threads", "envelope eval time", "speedup vs 1 thread",
                   "candidate rows"});
  // Untimed warm-up: builds the scanned tables' columnar views (see
  // PrintDetectSweep).
  {
    ExecContext ctx{&db->catalog(), nullptr};
    HIPPO_CHECK(Execute(*envelope, ctx).ok());
  }
  double base = 0;
  size_t base_rows = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ExecContext ctx{&db->catalog(), nullptr};
    ctx.parallel.num_threads = threads;
    ctx.parallel.min_partition_rows = SmokeMode() ? 64 : 4096;
    size_t rows = 0;
    double secs = TimeOnce([&] {
      auto rs = Execute(*envelope, ctx);
      HIPPO_CHECK_MSG(rs.ok(), rs.status().ToString().c_str());
      rows = rs.value().NumRows();
    });
    if (threads == 1) {
      base = secs;
      base_rows = rows;
    }
    HIPPO_CHECK_MSG(rows == base_rows,
                    "partitioned envelope changed the candidate count");
    table.AddRow({std::to_string(threads), FormatSeconds(secs),
                  StrFormat("%.2fx", base / secs), std::to_string(rows)});
  }
  table.Print(StrFormat("F11d: partitioned envelope evaluation, join query "
                        "(%zu rows per relation, 5%% conflicts)",
                        EnvelopeRows()));
}

void PrintFigureTables() {
  PrintDetectSweep(
      StrFormat("F11a: one giant generic-join constraint, probe-side "
                "partitioning (%zu rows)",
                GiantRows()),
      GiantDb());
  PrintDetectSweep(
      StrFormat("F11b: skewed mix — 1 giant + 6 tiny constraints "
                "(%zu + 6x%zu rows)",
                GiantRows(), SmallRows()),
      SkewedDb());
  PrintDetectSweep(
      StrFormat("F11c: restricted FK anti-join, child partitioning "
                "(%zu child rows, ~1%% orphans)",
                GiantRows()),
      FkDb());
  PrintEnvelopeSweep();
}

void BM_IntraPartitionGiant(benchmark::State& state) {
  Database* db = GiantDb();
  DetectOptions options =
      IntraOptions(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ConflictDetector detector(db->catalog(), options);
    auto g = detector.DetectAll(db->constraints());
    HIPPO_CHECK(g.ok());
    benchmark::DoNotOptimize(g.value().NumEdges());
  }
}
BENCHMARK(BM_IntraPartitionGiant)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionedEnvelope(benchmark::State& state) {
  Database* db = DbCache::Get("two_relation_f11",
                              &BuildTwoRelationWorkload, EnvelopeRows(),
                              /*conflict_rate=*/0.05);
  auto plan = db->Plan(QuerySet::Join());
  HIPPO_CHECK(plan.ok());
  PlanNodePtr envelope = cqa::BuildEnvelope(*plan.value());
  ExecContext ctx{&db->catalog(), nullptr};
  ctx.parallel.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto rs = Execute(*envelope, ctx);
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_PartitionedEnvelope)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTables())
