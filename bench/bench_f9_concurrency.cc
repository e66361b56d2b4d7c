// F9 — concurrent serving through the query service (the tentpole of the
// snapshot/epoch subsystem). Two tables:
//
//   * F9a reader scaling: a fixed two-relation workload is served read-only
//     at increasing worker-pool widths; the table reports throughput and
//     the speedup over one worker. Requires physical cores to show > 1x —
//     on a single-core host every row degenerates to ~1x, exactly like F8.
//   * F9b mixed traffic: the same pool with a writer streaming FD-churn
//     commits; the table shows reader p50/p99 latency and throughput with
//     0 and 1 writers, plus the epochs published during the run — the cost
//     of snapshot publication visible as tail latency, not blocking.
//   * F9c write burst: W pipelined writers (CommitAsync, a window of
//     outstanding receipts each) hammer small commits; the table shows
//     commit throughput, the mean/max coalesced group size, and receipt
//     p99 — group commit amortizing maintenance+publish across writers.
//   * F9d DDL interleave: one writer streams small commits while a
//     constraint drop+recreate (a full re-detection) lands mid-stream,
//     with the synchronous inline path vs the asynchronous fork-and-swap
//     pipeline; the table shows the small-commit stall (max latency) and
//     how many epochs published during the DDL window — the exclusive
//     window shrinking to a pointer-swap publish.
//
// Correctness of served answers (bit-identical to a serial oracle at the
// same epoch) is proved by tests/service_concurrency_test.cc; this binary
// only times the pool.
#include "bench/bench_common.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <thread>

#include "common/str_util.h"
#include "service/query_service.h"
#include "service/session.h"

namespace hippo::bench {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::SnapshotPtr;

constexpr double kConflictRate = 0.05;

size_t Rows() { return SmokeMode() ? 512 : 8192; }
size_t ReadOps() { return SmokeMode() ? 16 : 96; }

std::string ServedQuery() { return QuerySet::UnionOfDifferences(); }

std::unique_ptr<QueryService> BootService(size_t workers) {
  ServiceOptions options;
  options.threads = workers;
  auto service = std::make_unique<QueryService>(options);
  WorkloadSpec spec;
  spec.tuples_per_relation = Rows();
  spec.conflict_rate = kConflictRate;
  Status st = service->Commit(TwoRelationWorkloadSql(spec));
  HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
  return service;
}

/// Submits `ops` consistent-answer requests through the pool from
/// `submitters` closed-loop threads; returns (wall seconds, latencies).
std::pair<double, std::vector<double>> DriveReads(QueryService* service,
                                                  size_t submitters,
                                                  size_t ops) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> errors{0};
  std::vector<std::vector<double>> lat(submitters);
  double wall = TimeOnce([&] {
    std::vector<std::thread> threads;
    for (size_t s = 0; s < submitters; ++s) {
      threads.emplace_back([&, s] {
        while (next.fetch_add(1) < ops) {
          double secs = 0;
          Result<ResultSet> rs(Status::Internal("unset"));
          secs = TimeOnce([&] {
            rs = service
                     ->Submit(QueryService::ReadMode::kConsistent,
                              ServedQuery())
                     .get();
          });
          if (rs.ok()) {
            lat[s].push_back(secs);
          } else {
            ++errors;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  });
  HIPPO_CHECK_MSG(errors.load() == 0, "read requests failed");
  std::vector<double> merged;
  for (const auto& v : lat) merged.insert(merged.end(), v.begin(), v.end());
  return {wall, std::move(merged)};
}

void PrintReaderScaling() {
  TextTable table(
      {"pool workers", "ops", "wall", "throughput", "speedup vs 1"});
  double base = 0;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    auto service = BootService(workers);
    // One warm-up op keeps first-touch allocation out of the timed run.
    auto warm =
        service->Submit(QueryService::ReadMode::kConsistent, ServedQuery())
            .get();
    HIPPO_CHECK(warm.ok());
    auto [wall, lat] = DriveReads(service.get(), workers, ReadOps());
    if (workers == 1) base = wall;
    table.AddRow({std::to_string(workers), std::to_string(lat.size()),
                  FormatSeconds(wall),
                  StrFormat("%.1f ops/s", lat.size() / wall),
                  StrFormat("%.2fx", base / wall)});
  }
  table.Print(StrFormat(
      "F9a: reader throughput scaling, %zu rows/relation, query UD",
      Rows()));
}

void PrintMixedTraffic() {
  TextTable table({"writers", "reader ops", "throughput", "p50", "p99",
                   "epochs published"});
  for (size_t writers : {0u, 1u}) {
    auto service = BootService(2);
    uint64_t epoch_before = service->epoch();
    std::atomic<bool> done{false};
    std::thread writer;
    if (writers > 0) {
      writer = std::thread([&] {
        Rng rng(7);
        while (!done.load()) {
          std::string stmt = StrFormat(
              "INSERT INTO p VALUES (%llu, %llu)",
              (unsigned long long)rng.Uniform(Rows()),
              (unsigned long long)(2000 + rng.Uniform(1000)));
          Status st = service->Commit(stmt);
          HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());
        }
      });
    }
    auto [wall, lat] = DriveReads(service.get(), 2, ReadOps());
    done.store(true);
    if (writer.joinable()) writer.join();
    uint64_t epochs = service->epoch() - epoch_before;
    table.AddRow({std::to_string(writers), std::to_string(lat.size()),
                  StrFormat("%.1f ops/s", lat.size() / wall),
                  FormatSeconds(Percentile(lat, 50)),
                  FormatSeconds(Percentile(lat, 99)),
                  std::to_string(epochs)});
  }
  table.Print(StrFormat(
      "F9b: mixed read/write traffic, %zu rows/relation, pool of 2",
      Rows()));
}

size_t BurstCommits() { return SmokeMode() ? 48 : 384; }

void PrintWriteBurst() {
  TextTable table({"writers", "commits", "throughput", "mean group",
                   "max group", "p99 receipt"});
  for (size_t writers : {1u, 2u, 4u}) {
    auto service = BootService(2);
    std::atomic<size_t> next{0};
    std::vector<std::vector<double>> lat(writers);
    std::vector<std::vector<size_t>> groups(writers);
    double wall = TimeOnce([&] {
      std::vector<std::thread> threads;
      for (size_t w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
          Rng rng(100 + w);
          constexpr size_t kWindow = 8;
          std::deque<std::pair<std::future<service::CommitReceipt>,
                               std::chrono::steady_clock::time_point>>
              window;
          auto reap = [&] {
            auto submitted = window.front().second;
            service::CommitReceipt r = window.front().first.get();
            window.pop_front();
            HIPPO_CHECK_MSG(r.status.ok(), r.status.ToString().c_str());
            lat[w].push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 submitted)
                                 .count());
            groups[w].push_back(r.group_size);
          };
          while (next.fetch_add(1) < BurstCommits()) {
            std::string stmt = StrFormat(
                "INSERT INTO p VALUES (%llu, %llu)",
                (unsigned long long)rng.Uniform(Rows()),
                (unsigned long long)(2000 + rng.Uniform(1000)));
            window.emplace_back(service->CommitAsync(std::move(stmt)),
                                std::chrono::steady_clock::now());
            if (window.size() >= kWindow) reap();
          }
          while (!window.empty()) reap();
        });
      }
      for (std::thread& t : threads) t.join();
    });
    std::vector<double> merged_lat;
    double group_sum = 0;
    size_t group_max = 0, group_n = 0;
    for (size_t w = 0; w < writers; ++w) {
      merged_lat.insert(merged_lat.end(), lat[w].begin(), lat[w].end());
      for (size_t g : groups[w]) {
        group_sum += static_cast<double>(g);
        group_max = std::max(group_max, g);
        ++group_n;
      }
    }
    table.AddRow({std::to_string(writers),
                  std::to_string(merged_lat.size()),
                  StrFormat("%.1f commits/s", merged_lat.size() / wall),
                  StrFormat("%.2f", group_n == 0 ? 0.0 : group_sum / group_n),
                  std::to_string(group_max),
                  FormatSeconds(Percentile(merged_lat, 99))});
  }
  table.Print(StrFormat(
      "F9c: pipelined write burst, %zu rows/relation, window 8",
      Rows()));
}

void PrintDdlInterleave() {
  TextTable table({"mode", "small commits", "small p50", "small max",
                   "ddl wall", "epochs during ddl"});
  for (bool async : {false, true}) {
    ServiceOptions options;
    options.threads = 2;
    options.async_bulk_redetect = async;
    auto service = std::make_unique<QueryService>(options);
    WorkloadSpec spec;
    spec.tuples_per_relation = Rows();
    spec.conflict_rate = kConflictRate;
    Status st = service->Commit(TwoRelationWorkloadSql(spec));
    HIPPO_CHECK_MSG(st.ok(), st.ToString().c_str());

    std::atomic<bool> stop{false};
    std::vector<double> small_lat;
    std::thread writer([&] {
      Rng rng(23);
      while (!stop.load()) {
        std::string stmt = StrFormat(
            "INSERT INTO p VALUES (%llu, %llu)",
            (unsigned long long)rng.Uniform(Rows()),
            (unsigned long long)(3000 + rng.Uniform(1000)));
        double secs = 0;
        Status cst;
        secs = TimeOnce([&] { cst = service->Commit(stmt); });
        HIPPO_CHECK_MSG(cst.ok(), cst.ToString().c_str());
        small_lat.push_back(secs);
      }
    });
    // Let the small-commit stream reach steady state, then land the DDL:
    // a constraint drop+recreate, i.e. a full re-detection of q with no
    // net constraint change (answers stay invariant).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    uint64_t epoch_before_ddl = service->epoch();
    auto ddl_future = service->CommitAsync(
        "DROP CONSTRAINT fd_q; CREATE CONSTRAINT fd_q FD ON q (a -> b)");
    service::CommitReceipt ddl = ddl_future.get();
    HIPPO_CHECK_MSG(ddl.status.ok(), ddl.status.ToString().c_str());
    stop.store(true);
    writer.join();
    double ddl_wall = ddl.phases.apply_seconds + ddl.phases.detect_seconds +
                      ddl.phases.replay_seconds + ddl.phases.publish_seconds;
    table.AddRow({async ? "async" : "sync",
                  std::to_string(small_lat.size()),
                  FormatSeconds(Percentile(small_lat, 50)),
                  FormatSeconds(Percentile(small_lat, 100)),
                  FormatSeconds(ddl_wall),
                  std::to_string(ddl.epoch - epoch_before_ddl)});
  }
  table.Print(StrFormat(
      "F9d: small-commit stall around constraint DDL, %zu rows/relation",
      Rows()));
}

void PrintFigureTables() {
  PrintReaderScaling();
  PrintMixedTraffic();
  PrintWriteBurst();
  PrintDdlInterleave();
}

void BM_ServiceConsistentRead(benchmark::State& state) {
  static std::map<size_t, std::unique_ptr<QueryService>> services;
  size_t workers = static_cast<size_t>(state.range(0));
  auto it = services.find(workers);
  if (it == services.end()) {
    it = services.emplace(workers, BootService(workers)).first;
  }
  QueryService* service = it->second.get();
  for (auto _ : state) {
    auto rs =
        service->Submit(QueryService::ReadMode::kConsistent, ServedQuery())
            .get();
    HIPPO_CHECK(rs.ok());
    benchmark::DoNotOptimize(rs.value().NumRows());
  }
}
BENCHMARK(BM_ServiceConsistentRead)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_CommitPublishLatency(benchmark::State& state) {
  auto service = BootService(2);
  Rng rng(11);
  for (auto _ : state) {
    Status st = service->Commit(StrFormat(
        "INSERT INTO p VALUES (%llu, %llu)",
        (unsigned long long)rng.Uniform(Rows()),
        (unsigned long long)(5000 + rng.Uniform(100000))));
    HIPPO_CHECK(st.ok());
  }
  state.counters["epoch"] = static_cast<double>(service->epoch());
}
BENCHMARK(BM_CommitPublishLatency)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hippo::bench

HIPPO_BENCH_MAIN(hippo::bench::PrintFigureTables())
