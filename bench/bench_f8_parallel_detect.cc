// F8 — parallel partitioned conflict detection (the data-scale front door:
// ROADMAP's "next scale step"). Two workloads:
//
//   * hot FD table: one large relation under a single FD — parallelism can
//     only come from probe-side row-range partitions *within* the
//     constraint, all probing one shared hash build;
//   * constraint fan-out: many constraints over moderate relations —
//     parallelism comes from detecting constraints concurrently.
//
// Each table sweeps the worker count and reports the speedup over one
// thread plus the resulting hypergraph size; the binary checks that every
// configuration produces the same number of edges (full set-equality
// including provenance is proved by tests/detector_differential_test.cc).
// Speedups require physical cores: on a single-core host every row
// degenerates to ~1x.
#include "bench/bench_common.h"

#include <algorithm>
#include <vector>

#include "common/str_util.h"

#include "detect/detector.h"

namespace hippo::bench {
namespace {

constexpr double kConflictRate = 0.05;

size_t HotTableRows() { return SmokeMode() ? 2048 : 262144; }
size_t FanOutRows() { return SmokeMode() ? 512 : 32768; }
// The default partition size at full scale; scaled down in smoke mode so
// the CI lane still splits the tiny tables into probe partitions.
size_t PartitionRows() {
  return SmokeMode() ? 256 : DetectOptions().partition_rows;
}

Database* HotDb() {
  return DbCache::Get("employee_f8", &BuildEmployeeWorkload, HotTableRows(),
                      kConflictRate);
}

// Two FDs plus six selective exclusion-style denial constraints, so the
// worker pool has eight units to schedule even before partitioning.
Database* FanOutDb() {
  static std::unique_ptr<Database> db;
  if (db == nullptr) {
    db = std::make_unique<Database>();
    WorkloadSpec spec;
    spec.tuples_per_relation = FanOutRows();
    spec.conflict_rate = kConflictRate;
    HIPPO_CHECK(BuildTwoRelationWorkload(db.get(), spec).ok());
    for (size_t c = 0; c < 6; ++c) {
      std::string ddl = StrFormat(
          "CREATE CONSTRAINT extra%zu DENIAL (p AS x, q AS y WHERE "
          "x.a = y.a AND x.b = y.b + %zu)",
          c, 1000 + c);
      HIPPO_CHECK(db->Execute(ddl).ok());
    }
  }
  return db.get();
}

DetectOptions ParallelOptions(size_t threads) {
  DetectOptions options;
  options.num_threads = threads;
  options.partition_rows = PartitionRows();
  return options;
}

/// Median of five timed DetectAll runs (one run of a few tens of
/// milliseconds swings by 1.5x on a shared host); returns (seconds, edges).
std::pair<double, size_t> TimeDetect(Database* db,
                                     const DetectOptions& options) {
  std::vector<double> runs;
  size_t edges = 0;
  for (int r = 0; r < 5; ++r) {
    ConflictDetector detector(db->catalog(), options);
    ConflictHypergraph graph;
    runs.push_back(TimeOnce([&] {
      auto g = detector.DetectAll(db->constraints(), db->foreign_keys());
      HIPPO_CHECK(g.ok());
      graph = std::move(g).value();
    }));
    edges = graph.NumEdges();
  }
  std::sort(runs.begin(), runs.end());
  return {runs[runs.size() / 2], edges};
}

void PrintSweep(const std::string& caption, Database* db) {
  TextTable table({"threads", "detect time", "speedup vs 1 thread", "edges"});
  // Untimed warm-up: the first detection images each table into its
  // memoized columnar view, which every later run reuses. Without it the
  // 1-thread row alone would pay that one-off cost.
  ConflictDetector warm_up(db->catalog());
  HIPPO_CHECK(warm_up.DetectAll(db->constraints(), db->foreign_keys()).ok());
  double base = 0;
  size_t base_edges = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto [secs, edges] = TimeDetect(db, ParallelOptions(threads));
    if (threads == 1) {
      base = secs;
      base_edges = edges;
    }
    HIPPO_CHECK_MSG(edges == base_edges,
                    "parallel detection changed the edge count");
    table.AddRow({std::to_string(threads), FormatSeconds(secs),
                  StrFormat("%.2fx", base / secs), std::to_string(edges)});
  }
  table.Print(caption);
}

void PrintFigureTables() {
  PrintSweep(StrFormat("F8a: hot FD table, probe-side partitioning "
                       "(%zu rows, 5%% conflicts)",
                       HotTableRows()),
             HotDb());
  PrintSweep(StrFormat("F8b: constraint fan-out, 8 constraints "
                       "(%zu rows per relation)",
                       FanOutRows()),
             FanOutDb());
}

void BM_ParallelDetectHotFd(benchmark::State& state) {
  Database* db = HotDb();
  DetectOptions options =
      ParallelOptions(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ConflictDetector detector(db->catalog(), options);
    auto g = detector.DetectAll(db->constraints());
    HIPPO_CHECK(g.ok());
    benchmark::DoNotOptimize(g.value().NumEdges());
  }
}
BENCHMARK(BM_ParallelDetectHotFd)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelDetectFanOut(benchmark::State& state) {
  Database* db = FanOutDb();
  DetectOptions options =
      ParallelOptions(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ConflictDetector detector(db->catalog(), options);
    auto g = detector.DetectAll(db->constraints());
    HIPPO_CHECK(g.ok());
    benchmark::DoNotOptimize(g.value().NumEdges());
  }
}
BENCHMARK(BM_ParallelDetectFanOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTables())
