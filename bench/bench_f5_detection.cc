// F5 — conflict detection and hypergraph construction (demo §2: "the
// conflict hypergraph has polynomial size ... allows us to efficiently deal
// even with large databases").
//
// Measures: serial detection time vs N (two FDs, each evaluated as a
// self-join plan); detection time vs number of constraints; and the
// resulting hypergraph sizes (edges, conflicting tuples) confirming the
// polynomial (here: linear in conflicts) size claim.
#include "bench/bench_common.h"

#include "common/str_util.h"

#include "detect/detector.h"

namespace hippo::bench {
namespace {

constexpr double kConflictRate = 0.05;

Database* Db(size_t n) {
  return DbCache::Get("two_rel", &BuildTwoRelationWorkload, n, kConflictRate);
}

void BM_Detect(benchmark::State& state) {
  Database* db = Db(static_cast<size_t>(state.range(0)));
  ConflictDetector detector(db->catalog());
  size_t edges = 0;
  for (auto _ : state) {
    auto g = detector.DetectAll(db->constraints());
    HIPPO_CHECK(g.ok());
    edges = g.value().NumEdges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_Detect)->RangeMultiplier(4)->Range(1024, 262144)
    ->Unit(benchmark::kMillisecond);

// Detection cost with an increasing number of constraints (exclusion
// constraints are added on top of the two FDs).
Database* MultiConstraintDb(size_t n_constraints) {
  static std::map<size_t, std::unique_ptr<Database>> cache;
  auto it = cache.find(n_constraints);
  if (it == cache.end()) {
    auto db = std::make_unique<Database>();
    WorkloadSpec spec;
    spec.tuples_per_relation = 32768;
    spec.conflict_rate = kConflictRate;
    HIPPO_CHECK(BuildTwoRelationWorkload(db.get(), spec).ok());
    for (size_t c = 2; c < n_constraints; ++c) {
      // Each extra constraint denies p.b = q.b + <c> on matching keys —
      // selective, so edge counts stay moderate.
      std::string ddl = StrFormat(
          "CREATE CONSTRAINT extra%zu DENIAL (p AS x, q AS y WHERE "
          "x.a = y.a AND x.b = y.b + %zu)",
          c, 1000 + c);
      HIPPO_CHECK(db->Execute(ddl).ok());
    }
    it = cache.emplace(n_constraints, std::move(db)).first;
  }
  return it->second.get();
}

void BM_DetectManyConstraints(benchmark::State& state) {
  Database* db = MultiConstraintDb(static_cast<size_t>(state.range(0)));
  ConflictDetector detector(db->catalog());
  for (auto _ : state) {
    auto g = detector.DetectAll(db->constraints());
    HIPPO_CHECK(g.ok());
    benchmark::DoNotOptimize(g.value().NumEdges());
  }
}
BENCHMARK(BM_DetectManyConstraints)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void PrintFigureTable() {
  // The detection column keeps its historical "generic join path" header,
  // so the committed baseline cells keep gating it.
  TextTable table({"N per relation", "generic join path", "edges",
                   "conflicting tuples"});
  std::vector<size_t> sizes = SmokeMode()
                                  ? std::vector<size_t>{512}
                                  : std::vector<size_t>{4096, 16384, 65536,
                                                        262144};
  for (size_t n : sizes) {
    Database* db = Db(n);
    ConflictDetector detector(db->catalog());
    ConflictHypergraph graph;
    double secs = TimeOnce([&] {
      auto g = detector.DetectAll(db->constraints());
      HIPPO_CHECK(g.ok());
      graph = std::move(g).value();
    });
    table.AddRow({std::to_string(n), FormatSeconds(secs),
                  std::to_string(graph.NumEdges()),
                  std::to_string(graph.NumConflictingVertices())});
  }
  table.Print("F5: conflict detection & hypergraph size (5% conflicts)");
}

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTable())
