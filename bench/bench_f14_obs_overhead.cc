// F14 — observability overhead on the F12 serving mix (DESIGN.md §8).
//
// The obs layer's contract is that you pay only for what you turn on:
//
//   * F14a (gated in CI): the default configuration — metrics registry on,
//     per-query tracing off — versus all instrumentation disabled
//     (ServiceOptions::enable_metrics = false, the exact pre-obs code
//     path). The "ratio vs off" column is a plain float so
//     tools/check_bench.py can gate it absolutely (--overhead-limit);
//     the contract is < 2% on quiet full-size runs, with headroom in the
//     CI limit for smoke-size noise.
//   * F14b (informational): the same mix with a TraceSpan attached to
//     every request — the EXPLAIN ANALYZE cost. Span creation is
//     per-operator, not per-row, so this stays a small constant factor.
//
// Method: the three configurations run interleaved (a full mix each, in
// rotation) for `Reps()` rounds; each configuration reports the median of
// its rounds, so slow drift of the host (thermal, noisy neighbors) lands
// on all three equally instead of biasing whichever ran last.
#include "bench/bench_common.h"

#include <algorithm>
#include <deque>
#include <future>
#include <vector>

#include "common/str_util.h"
#include "obs/trace.h"
#include "service/query_service.h"

namespace hippo::bench {
namespace {

using service::QueryService;
using service::ServiceOptions;

size_t Rows() { return SmokeMode() ? 512 : 8192; }
size_t MixOps() { return SmokeMode() ? 60 : 400; }
size_t Reps() { return SmokeMode() ? 3 : 5; }

enum class ObsConfig {
  kOff,     ///< enable_metrics = false: the pre-obs hot path, verbatim
  kOn,      ///< default: registry + route histograms on, tracing off
  kTraced,  ///< kOn plus a TraceSpan on every request (EXPLAIN ANALYZE cost)
};

const char* ConfigName(ObsConfig c) {
  switch (c) {
    case ObsConfig::kOff:
      return "instrumentation off";
    case ObsConfig::kOn:
      return "metrics on (default)";
    case ObsConfig::kTraced:
      return "metrics + per-query trace";
  }
  return "?";
}

/// One F12c-style mix through a fresh service: 95% tractable consistent
/// reads, every 20th request the prover-only difference query. Returns
/// the wall seconds of the request stream (excluding the bulk load).
double DriveMixOnce(ObsConfig config) {
  ServiceOptions options;
  options.threads = 2;
  options.enable_metrics = config != ObsConfig::kOff;
  QueryService service(options);

  WorkloadSpec spec;
  spec.tuples_per_relation = Rows();
  spec.conflict_rate = 0.05;
  Status st = service.Commit(TwoRelationWorkloadSql(spec));
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());

  const std::vector<std::string> tractable = {
      QuerySet::Selection(), "SELECT * FROM p", "SELECT * FROM q",
      QuerySet::Join()};
  const size_t ops = MixOps();
  // Traced requests each own a span for the request's lifetime; a deque
  // keeps them stable while futures are in flight.
  std::deque<obs::TraceSpan> spans;
  size_t errors = 0;
  double wall = TimeOnce([&] {
    std::vector<std::future<Result<ResultSet>>> pending;
    pending.reserve(ops);
    for (size_t i = 0; i < ops; ++i) {
      const std::string& sql = (i % 20 == 19)
                                   ? QuerySet::Difference()
                                   : tractable[i % tractable.size()];
      cqa::HippoOptions opt = KgOptions();
      if (config == ObsConfig::kTraced) {
        spans.emplace_back("query");
        opt.trace = &spans.back();
      }
      pending.push_back(service.Submit(QueryService::ReadMode::kConsistent,
                                       sql, /*snap=*/nullptr, opt));
    }
    for (auto& f : pending) {
      if (!f.get().ok()) ++errors;
    }
  });
  HIPPO_CHECK_MSG(errors == 0, "mix requests failed");
  for (auto& span : spans) span.End();
  return wall;
}

void PrintOverheadTables() {
  const ObsConfig configs[] = {ObsConfig::kOff, ObsConfig::kOn,
                               ObsConfig::kTraced};
  // One untimed warm-up mix: the first service of the process pays for
  // allocator growth and page faults, which would otherwise bias
  // whichever configuration runs first.
  (void)DriveMixOnce(ObsConfig::kOff);
  std::vector<std::vector<double>> walls(3);
  for (size_t rep = 0; rep < Reps(); ++rep) {
    for (size_t c = 0; c < 3; ++c) {
      walls[c].push_back(DriveMixOnce(configs[c]));
    }
  }
  double median[3];
  for (size_t c = 0; c < 3; ++c) {
    std::sort(walls[c].begin(), walls[c].end());
    median[c] = walls[c][walls[c].size() / 2];
  }

  auto row = [&](size_t c) {
    return std::vector<std::string>{
        ConfigName(configs[c]), std::to_string(MixOps()),
        FormatSeconds(median[c]),
        StrFormat("%.1f ops/s", MixOps() / median[c]),
        StrFormat("%.3f", median[c] / median[0])};
  };

  // F14a: the gated pair — default configuration vs everything off.
  TextTable gated({"config", "ops", "median wall", "throughput",
                   "ratio vs off"});
  gated.AddRow(row(0));
  gated.AddRow(row(1));
  gated.Print(StrFormat(
      "F14a: disabled-path overhead, F12 serving mix (N=%zu, %zu ops, "
      "2 pool workers, median of %zu interleaved reps)",
      Rows(), MixOps(), Reps()));

  // F14b: what full tracing costs on top (informational).
  TextTable traced({"config", "ops", "median wall", "throughput",
                    "ratio vs off"});
  traced.AddRow(row(0));
  traced.AddRow(row(2));
  traced.Print(StrFormat(
      "F14b: per-query tracing overhead, same mix (N=%zu, %zu ops)",
      Rows(), MixOps()));
}

// ------------------------------------------------- google-benchmark series

void BM_MixInstrumentationOff(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(DriveMixOnce(ObsConfig::kOff));
  }
}
BENCHMARK(BM_MixInstrumentationOff)->Unit(benchmark::kMillisecond);

void BM_MixMetricsOn(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(DriveMixOnce(ObsConfig::kOn));
  }
}
BENCHMARK(BM_MixMetricsOn)->Unit(benchmark::kMillisecond);

void BM_MixTraced(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(DriveMixOnce(ObsConfig::kTraced));
  }
}
BENCHMARK(BM_MixTraced)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintOverheadTables())
