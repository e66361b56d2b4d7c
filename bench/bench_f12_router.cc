// F12 — the query router: per-route latency, the conflict-density
// crossover, and a tractable-heavy serving mix (DESIGN.md §6).
//
// The two first-order routes evaluate one rewritten plan whose cost does
// not depend on the conflict structure; the prover route pays per-candidate
// work (grounding, CNF, edge choices) that grows with conflict density.
// The workload here therefore controls density directly: conflicting keys
// come in *blocks* of `block` mutually conflicting tuples (all pairs of a
// block violate the FD), so density = rate x block, not just a pair count.
//
//   * F12a: per-route latency by query class on a conflict-dense instance —
//     the rewrite route beats the prover on every tractable-class query;
//     "-" marks routes that soundly refuse (prover cannot serve narrowing
//     projections, rewriting cannot serve difference). The `plain` column
//     times the same SQL as an ordinary query, alternating with the
//     rewrite runs, and `rewrite/plain` is the ABC rows' consistent-answer
//     overhead over it: a same-run ratio, so CI gates it absolutely
//     (first-order CQA should cost what the query costs).
//   * F12b: conflict-density sweep on the selection query — the prover's
//     per-candidate work grows with density (on sparse pair conflicts its
//     conflict-free shortcut decides almost every candidate) while the
//     rewriting's cost does not, and the router's shape-based auto choice
//     tracks the rewrite column.
//   * F12c: a 95%-tractable / 5%-difference request stream through
//     service::QueryService (the engine hippo_serve_driver drives), with
//     the per-route counts and mean latencies the service aggregates from
//     HippoStats. The same stream pinned to force-prover shows what
//     routing buys at the service level.
#include "bench/bench_common.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/str_util.h"
#include "service/query_service.h"

namespace hippo::bench {
namespace {

using service::QueryService;
using service::ServiceOptions;

size_t Rows() { return SmokeMode() ? 512 : 16384; }
size_t MixOps() { return SmokeMode() ? 40 : 400; }
size_t DenseBlock() { return SmokeMode() ? 8 : 64; }
constexpr double kDenseRate = 0.8;

/// SQL script for the conflict-block workload: p and q, each `n` rows with
/// FD a -> b. In `p`, rate*n tuples form blocks of `block` tuples sharing a
/// key with pairwise-distinct b (every pair conflicts); the rest carry
/// unique keys. `q` stays lightly conflicting (pairs) so joins against the
/// dense relation do not explode. Key domains overlap so joins and
/// differences are selective but non-empty.
std::string BlockWorkloadSql(size_t n, size_t block, double rate) {
  std::string script =
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b);"
      "CREATE TABLE q (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_q FD ON q (a -> b)";
  size_t keys = block > 0 ? static_cast<size_t>(n * rate) / block : 0;
  size_t id = 0;
  for (size_t k = 0; k < keys; ++k) {
    for (size_t j = 0; j < block; ++j, ++id) {
      script += ";INSERT INTO p VALUES (" + std::to_string(k) + ", " +
                std::to_string(j) + ")";
    }
  }
  for (; id < n; ++id) {
    script += ";INSERT INTO p VALUES (" + std::to_string(id) + ", " +
              std::to_string(id % 997) + ")";
  }
  for (size_t i = 0; i < n; ++i) {
    script += ";INSERT INTO q VALUES (" + std::to_string(i) + ", " +
              std::to_string((i * 7) % 997) + ")";
    if (i % 20 == 19) {  // sparse pair conflicts in q
      script += ";INSERT INTO q VALUES (" + std::to_string(i) + ", " +
                std::to_string((i * 7 + 1) % 997) + ")";
    }
  }
  return script;
}

Database* BlockDb(size_t n, size_t block, double rate) {
  static std::map<std::string, std::unique_ptr<Database>> cache;
  std::string key = std::to_string(n) + "/" + std::to_string(block) + "/" +
                    std::to_string(static_cast<int>(rate * 100));
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto db = std::make_unique<Database>();
    Status st = db->Execute(BlockWorkloadSql(n, block, rate));
    HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
    it = cache.emplace(key, std::move(db)).first;
  }
  WarmHypergraph(it->second.get());
  return it->second.get();
}

cqa::HippoOptions RouteOptions(RouteMode route) {
  cqa::HippoOptions opt = KgOptions();
  opt.route = route;
  return opt;
}

double Median(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// Median of three timed runs after one warm-up; negative when the route
/// refuses the query.
double TimeRoute(Database* db, const std::string& sql, RouteMode route) {
  auto warm = db->ConsistentAnswers(sql, RouteOptions(route));
  if (!warm.ok()) return -1;
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(TimeOnce([&] {
      HIPPO_CHECK(db->ConsistentAnswers(sql, RouteOptions(route)).ok());
    }));
  }
  return Median(runs);
}

size_t PairedReps() { return SmokeMode() ? 3 : 7; }

struct RewriteVsPlain {
  double rewrite;  ///< negative when the rewrite route refuses the query
  double plain;
};

/// The forced rewrite route and the plain query (`Database::Query`) of the
/// same SQL, timed alternately for PairedReps() rounds after one warm-up
/// each; each side reports the median of its rounds. Host drift lands on
/// both sides alike (F14's method), so their ratio does not depend on the
/// host's speed.
RewriteVsPlain TimeRewriteVsPlain(Database* db, const std::string& sql) {
  auto rewrite = [&] {
    return db->ConsistentAnswers(sql, RouteOptions(RouteMode::kForceRewrite))
        .ok();
  };
  auto plain = [&] { return db->Query(sql).ok(); };
  bool rewrites = rewrite();
  HIPPO_CHECK(plain());
  std::vector<double> rewrite_runs, plain_runs;
  for (size_t i = 0; i < PairedReps(); ++i) {
    if (rewrites) {
      rewrite_runs.push_back(TimeOnce([&] { HIPPO_CHECK(rewrite()); }));
    }
    plain_runs.push_back(TimeOnce([&] { HIPPO_CHECK(plain()); }));
  }
  return {rewrites ? Median(rewrite_runs) : -1, Median(plain_runs)};
}

// --------------------------------------------------------------- F12a

void PrintPerRouteTable() {
  Database* db = BlockDb(Rows(), DenseBlock(), kDenseRate);
  struct RouteCase {
    const char* label;
    std::string sql;
  };
  // The last key is a unique, conflict-free one: the lookup returns a row.
  const RouteCase cases[] = {
      {"point lookup (ABC)",
       StrFormat("SELECT * FROM p WHERE a = %zu", Rows() - 1)},
      {"selection (ABC)", QuerySet::Selection()},
      {"star (ABC)", "SELECT * FROM p"},
      {"narrowing (KW)", "SELECT a FROM p"},
      {"join (ABC)", QuerySet::Join()},
      {"difference (prover)", QuerySet::Difference()},
  };
  TextTable table({"query class", "route(auto)", "auto", "rewrite", "prover",
                   "prover/rewrite", "plain", "rewrite/plain"});
  for (const RouteCase& c : cases) {
    cqa::HippoStats stats;
    auto rs = db->ConsistentAnswers(c.sql, RouteOptions(RouteMode::kAuto),
                                    &stats);
    HIPPO_CHECK_MSG(rs.ok(), rs.status().ToString().c_str());
    double auto_secs = TimeRoute(db, c.sql, RouteMode::kAuto);
    double prover_secs = TimeRoute(db, c.sql, RouteMode::kForceProver);
    auto [rewrite_secs, plain_secs] = TimeRewriteVsPlain(db, c.sql);
    std::string ratio = "-";
    if (rewrite_secs > 0 && prover_secs > 0) {
      ratio = StrFormat("%.1fx", prover_secs / rewrite_secs);
    }
    // A bare float, which tools/check_bench.py --overhead-limit gates.
    std::string overhead = "-";
    if (stats.route == RouteKind::kRewriteAbc) {
      overhead = StrFormat("%.2f", rewrite_secs / plain_secs);
    }
    table.AddRow({c.label, RouteKindName(stats.route),
                  FormatSeconds(auto_secs),
                  rewrite_secs < 0 ? "-" : FormatSeconds(rewrite_secs),
                  prover_secs < 0 ? "-" : FormatSeconds(prover_secs), ratio,
                  FormatSeconds(plain_secs), overhead});
  }
  table.Print(StrFormat(
      "F12a: per-route latency by query class (conflict-dense p: N=%zu, "
      "%.0f%% of tuples in blocks of %zu; rewrite and plain: medians of %zu "
      "alternated runs)",
      Rows(), kDenseRate * 100, DenseBlock(), PairedReps()));
}

// --------------------------------------------------------------- F12b

void PrintDensitySweepTable() {
  struct Density {
    const char* label;
    size_t block;
    double rate;
  };
  const Density densities[] = {
      {"5% pairs", 2, 0.05},
      {"40% blocks of 8", 8, 0.4},
      {"80% blocks of 64", DenseBlock(), 0.8},
  };
  TextTable table({"conflict density", "rewrite", "prover", "auto",
                   "prover/rewrite"});
  for (const Density& d : densities) {
    Database* db = BlockDb(Rows(), d.block, d.rate);
    double rewrite_secs =
        TimeRoute(db, QuerySet::Selection(), RouteMode::kForceRewrite);
    double prover_secs =
        TimeRoute(db, QuerySet::Selection(), RouteMode::kForceProver);
    double auto_secs = TimeRoute(db, QuerySet::Selection(), RouteMode::kAuto);
    table.AddRow({d.label, FormatSeconds(rewrite_secs),
                  FormatSeconds(prover_secs), FormatSeconds(auto_secs),
                  StrFormat("%.1fx", prover_secs / rewrite_secs)});
  }
  table.Print(StrFormat(
      "F12b: conflict-density sweep, selection query (N=%zu per density)",
      Rows()));
}

// --------------------------------------------------------------- F12c

/// Drives `ops` consistent reads (95% tractable / 5% difference) through a
/// fresh service on the conflict-dense workload; returns (wall seconds,
/// aggregated hippo stats).
std::pair<double, cqa::HippoStats> DriveMix(RouteMode route, size_t ops) {
  ServiceOptions options;
  options.threads = 2;
  QueryService service(options);
  Status st =
      service.Commit(BlockWorkloadSql(Rows(), DenseBlock(), kDenseRate));
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());

  // 95% tractable: quantifier-free ABC-class queries (always rewritable,
  // unlike narrowing projections whose KW clique gate depends on the data);
  // every 20th request is the difference query only the prover can serve.
  const std::vector<std::string> tractable = {
      QuerySet::Selection(), "SELECT * FROM p", "SELECT * FROM q",
      QuerySet::Join()};
  size_t errors = 0;
  double wall = TimeOnce([&] {
    std::vector<std::future<Result<ResultSet>>> pending;
    pending.reserve(ops);
    for (size_t i = 0; i < ops; ++i) {
      const std::string& sql = (i % 20 == 19)
                                   ? QuerySet::Difference()
                                   : tractable[i % tractable.size()];
      cqa::HippoOptions opt = KgOptions();
      // The difference query is outside both first-order classes, so the
      // comparison stream pins to force-prover (sound for the whole mix)
      // rather than force-rewrite (which would fail it).
      opt.route = route;
      pending.push_back(service.Submit(QueryService::ReadMode::kConsistent,
                                       sql, /*snap=*/nullptr, opt));
    }
    for (auto& f : pending) {
      if (!f.get().ok()) ++errors;
    }
  });
  HIPPO_CHECK_MSG(errors == 0, "mix requests failed");
  return {wall, service.stats().hippo};
}

void PrintServingMixTable() {
  TextTable table({"stream", "ops", "throughput", "cf/rewrite/prover",
                   "mean rewrite", "mean prover"});
  auto mean = [](double secs, size_t n) {
    return n == 0 ? std::string("-") : FormatSeconds(secs / n);
  };
  for (RouteMode route : {RouteMode::kAuto, RouteMode::kForceProver}) {
    auto [wall, hippo] = DriveMix(route, MixOps());
    table.AddRow(
        {route == RouteMode::kAuto ? "auto-routed" : "force-prover",
         std::to_string(MixOps()), StrFormat("%.1f ops/s", MixOps() / wall),
         StrFormat("%zu/%zu/%zu", hippo.routed_conflict_free,
                   hippo.routed_rewrite, hippo.routed_prover),
         mean(hippo.rewrite_route_seconds, hippo.routed_rewrite),
         mean(hippo.prover_route_seconds, hippo.routed_prover)});
  }
  table.Print(StrFormat(
      "F12c: 95%%-tractable serving mix through the query service "
      "(conflict-dense p: N=%zu, %zu ops, 2 pool workers)",
      Rows(), MixOps()));
}

// ------------------------------------------------- google-benchmark series

void BM_RouteRewrite(benchmark::State& state) {
  Database* db = BlockDb(static_cast<size_t>(state.range(0)), 64, kDenseRate);
  for (auto _ : state) {
    auto rs = db->ConsistentAnswers(QuerySet::Selection(),
                                    RouteOptions(RouteMode::kForceRewrite));
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_RouteRewrite)->RangeMultiplier(4)->Range(1024, 65536)
    ->Unit(benchmark::kMillisecond);

void BM_RouteProver(benchmark::State& state) {
  Database* db = BlockDb(static_cast<size_t>(state.range(0)), 64, kDenseRate);
  for (auto _ : state) {
    auto rs = db->ConsistentAnswers(QuerySet::Selection(),
                                    RouteOptions(RouteMode::kForceProver));
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_RouteProver)->RangeMultiplier(4)->Range(1024, 65536)
    ->Unit(benchmark::kMillisecond);

void BM_RouteAuto(benchmark::State& state) {
  Database* db = BlockDb(static_cast<size_t>(state.range(0)), 64, kDenseRate);
  for (auto _ : state) {
    auto rs = db->ConsistentAnswers(QuerySet::Selection(),
                                    RouteOptions(RouteMode::kAuto));
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_RouteAuto)->RangeMultiplier(4)->Range(1024, 65536)
    ->Unit(benchmark::kMillisecond);

void PrintFigureTables() {
  PrintPerRouteTable();
  PrintDensitySweepTable();
  PrintServingMixTable();
}

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTables())
