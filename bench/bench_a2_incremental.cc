// A2 — incremental hypergraph maintenance vs recompute-from-scratch.
//
// The paper's second motivating scenario (§1) is "a long-running activity
// where consistency can be violated only temporarily and future updates
// will restore it": the instance keeps changing, and the conflict
// hypergraph must stay current for CQA to be answerable at any moment.
// This ablation compares the two maintenance policies the library offers:
//
//   * recompute  — invalidate on DML, run full conflict detection on the
//                  next read (the demo system's behaviour: "before
//                  processing any input query, the system performs Conflict
//                  Detection");
//   * incremental — maintain the hypergraph per statement via the
//                  IncrementalDetector, which probes the key index the
//                  table keeps on the constraint's equality columns
//                  (declared with the constraint, copy-on-write like the
//                  rows, so enabling maintenance builds nothing).
//
// The update stream is exact-row DML (delete a known row, insert a fresh
// one) so the measured cost is the maintenance itself, not a WHERE scan.
// Expected shape: recompute cost per update is Θ(N) (full detection each
// time) while incremental cost is O(group size) — flat in N — so the
// speedup grows without bound with the database size. Both policies are
// differentially tested for equality in tests/incremental_test.cc.
#include "bench/bench_common.h"

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "detect/incremental.h"

namespace hippo::bench {
namespace {

constexpr double kConflictRate = 0.05;
constexpr size_t kOpsPerRound = 64;

/// A long-running activity: each op replaces this client's row for a key
/// (delete the previous version if any, insert the new one). The underlying
/// workload rows provide the scale and the pre-existing conflicts.
class Activity {
 public:
  Activity(Database* db, size_t n, uint64_t seed)
      : db_(db), n_(n), rng_(seed) {}

  /// One delete+insert pair through the public DML API; returns OK status.
  Status Step() {
    int64_t key = static_cast<int64_t>(rng_.Uniform(n_));
    int64_t val = static_cast<int64_t>(rng_.Uniform(1000));
    auto it = mine_.find(key);
    if (it != mine_.end()) {
      HIPPO_RETURN_NOT_OK(
          db_->DeleteRow("p", Row{Value::Int(key), Value::Int(it->second)}));
    }
    HIPPO_RETURN_NOT_OK(
        db_->InsertRow("p", Row{Value::Int(key), Value::Int(val)}));
    mine_[key] = val;
    return Status::OK();
  }

 private:
  Database* db_;
  size_t n_;
  Rng rng_;
  std::unordered_map<int64_t, int64_t> mine_;
};

/// Keeps the hypergraph current after every statement under the given
/// policy; returns seconds per operation.
double TimePolicy(size_t n, bool incremental, uint64_t seed) {
  Database db;
  WorkloadSpec spec;
  spec.tuples_per_relation = n;
  spec.conflict_rate = kConflictRate;
  spec.seed = seed;
  HIPPO_CHECK(BuildTwoRelationWorkload(&db, spec).ok());
  if (incremental) {
    HIPPO_CHECK(db.EnableIncrementalMaintenance().ok());
  }
  WarmHypergraph(&db);
  Activity activity(&db, n, seed ^ 0xa5a5a5a5ULL);
  double secs = TimeOnce([&] {
    for (size_t i = 0; i < kOpsPerRound; ++i) {
      HIPPO_CHECK(activity.Step().ok());
      // The hypergraph must be current after every statement (the
      // long-running activity interleaves updates and CQA reads).
      WarmHypergraph(&db);
    }
  });
  return secs / static_cast<double>(kOpsPerRound);
}

void PrintFigureTable() {
  TextTable table({"N per relation", "recompute / op", "incremental / op",
                   "speedup"});
  const std::vector<size_t> sizes =
      SmokeMode() ? std::vector<size_t>{1024, 4096}
                  : std::vector<size_t>{4096, 16384, 65536, 131072};
  for (size_t n : sizes) {
    double full = TimePolicy(n, /*incremental=*/false, 42);
    double inc = TimePolicy(n, /*incremental=*/true, 42);
    table.AddRow({std::to_string(n), FormatSeconds(full), FormatSeconds(inc),
                  StrFormat("%.0fx", full / inc)});
  }
  table.Print(
      "A2: hypergraph maintenance cost per exact-row update (interleaved "
      "reads, 5% conflicts)");
}

void BM_RecomputePerOp(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database* db = DbCache::Get("a2", &BuildTwoRelationWorkload, n,
                              kConflictRate);
  Activity activity(db, n, 7);
  for (auto _ : state) {
    for (size_t i = 0; i < kOpsPerRound; ++i) {
      HIPPO_CHECK(activity.Step().ok());
      db->InvalidateHypergraph();
      WarmHypergraph(db);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kOpsPerRound));
}
BENCHMARK(BM_RecomputePerOp)->RangeMultiplier(4)->Range(4096, 65536)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalPerOp(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  // A dedicated database: incremental maintenance stays enabled across
  // iterations, exactly like a long-running session.
  static std::map<size_t, std::unique_ptr<Database>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    auto db = std::make_unique<Database>();
    WorkloadSpec spec;
    spec.tuples_per_relation = n;
    spec.conflict_rate = kConflictRate;
    HIPPO_CHECK(BuildTwoRelationWorkload(db.get(), spec).ok());
    HIPPO_CHECK(db->EnableIncrementalMaintenance().ok());
    it = cache.emplace(n, std::move(db)).first;
  }
  Database* db = it->second.get();
  Activity activity(db, n, 7);
  for (auto _ : state) {
    for (size_t i = 0; i < kOpsPerRound; ++i) {
      HIPPO_CHECK(activity.Step().ok());
      WarmHypergraph(db);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kOpsPerRound));
  state.counters["edges_added"] =
      static_cast<double>(db->incremental_stats().edges_added);
}
BENCHMARK(BM_IncrementalPerOp)->RangeMultiplier(4)->Range(4096, 65536)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTable())
