// hippo_serve_driver — mixed read/write traffic against the query service.
//
// Boots a QueryService, bulk-loads the canonical two-relation workload
// (p/q with FDs a -> b and a controlled conflict rate), then drives it with
// R closed-loop reader threads (each submits SELECTs through the service's
// worker pool and waits for the answer) while W writer threads stream small
// FD-churn commits through the asynchronous pipeline (CommitAsync), each
// keeping --inflight receipts outstanding so consecutive commits coalesce
// into group commits. Prints per-role throughput and p50/p95/p99 latency
// plus the service's own counters — the live-traffic complement to
// bench_f9_concurrency's controlled sweeps.
//
// Usage:
//   hippo_serve_driver [--rows N] [--conflict-rate F] [--readers R]
//                      [--writers W] [--ops N] [--workers N] [--queue N]
//                      [--inflight N] [--mode cqa|plain|core] [--seed S]
//                      [--smoke] [--metrics-out=FILE] [--metrics-json=FILE]
//
// --ops is the total number of read requests across all readers; each
// writer commits until the readers finish. --workers sets ServiceOptions::
// threads: the pool width and the commit-path detection threads. --smoke
// shrinks everything to CI-smoke size. --metrics-out writes the service's
// Prometheus text exposition at exit; --metrics-json writes the same
// snapshot as one JSON object (machine-readable, consumed by the ctest
// smoke). Exit status: 0 on success, 2 on error.
#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "benchutil/report.h"
#include "benchutil/workload.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "obs/metrics.h"
#include "plan/router.h"
#include "service/query_service.h"
#include "service/session.h"

namespace {

using hippo::Rng;
using hippo::Status;
using hippo::StrFormat;
using hippo::bench::FormatSeconds;
using hippo::bench::Percentiles;
using hippo::bench::QuerySet;
using hippo::bench::TextTable;
using hippo::service::CommitReceipt;
using hippo::service::QueryService;
using hippo::service::ServiceOptions;

struct DriverConfig {
  size_t rows = 20000;
  double conflict_rate = 0.05;
  size_t readers = 4;
  size_t writers = 1;
  size_t total_ops = 200;
  size_t workers = 0;  // 0 = all hardware threads
  size_t queue_depth = 256;
  size_t inflight = 4;  // outstanding CommitAsync receipts per writer
  QueryService::ReadMode mode = QueryService::ReadMode::kConsistent;
  uint64_t seed = 42;
  std::string metrics_out;   // Prometheus text exposition path ("" = off)
  std::string metrics_json;  // JSON metrics snapshot path ("" = off)
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "hippo_serve_driver: %s\n", message.c_str());
  return 2;
}

/// The two-relation workload as SQL so the service's bulk-commit path does
/// the loading (and the initial commit exercises the parallel re-detect).
std::string WorkloadSql(const DriverConfig& config) {
  hippo::bench::WorkloadSpec spec;
  spec.tuples_per_relation = config.rows;
  spec.conflict_rate = config.conflict_rate;
  spec.seed = config.seed;
  return hippo::bench::TwoRelationWorkloadSql(spec);
}

struct RoleReport {
  size_t ops = 0;
  double wall_seconds = 0;
  std::vector<double> latencies;  // seconds, merged across threads
};

int Run(const DriverConfig& config) {
  ServiceOptions options;
  options.threads = config.workers;
  options.max_queue_depth = config.queue_depth;
  QueryService service(options);

  std::printf("loading %zu rows/relation (conflict rate %.1f%%)...\n",
              config.rows, config.conflict_rate * 100);
  double load_seconds = 0;
  {
    auto t0 = std::chrono::steady_clock::now();
    Status st = service.Commit(WorkloadSql(config));
    if (!st.ok()) return Fail("load failed: " + st.ToString());
    load_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  }
  std::printf("loaded in %s: %zu rows, %zu conflict edges, epoch %llu, "
              "snapshot %s\n",
              FormatSeconds(load_seconds).c_str(),
              service.snapshot()->catalog().TotalRows(),
              service.snapshot()->hypergraph().NumEdges(),
              (unsigned long long)service.epoch(),
              hippo::bench::FormatBytes(service.snapshot()->ApproxBytes())
                  .c_str());

  // Publish samples recorded so far (epoch 0 + the bulk load) are not
  // steady-state COW publications; the report skips them.
  size_t publish_samples_before_run =
      service.stats().publish_seconds.size();

  const std::vector<std::string> queries = {
      QuerySet::Selection(), QuerySet::Join(), QuerySet::Union(),
      QuerySet::Difference()};

  std::atomic<bool> readers_done{false};
  std::atomic<size_t> next_op{0};
  std::atomic<size_t> read_errors{0};
  std::atomic<size_t> write_errors{0};
  std::vector<std::vector<double>> read_lat(config.readers);
  std::vector<std::vector<double>> write_lat(config.writers);
  std::atomic<size_t> commits{0};

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t r = 0; r < config.readers; ++r) {
    threads.emplace_back([&, r] {
      for (;;) {
        size_t op = next_op.fetch_add(1);
        if (op >= config.total_ops) return;
        const std::string& sql = queries[op % queries.size()];
        auto q0 = std::chrono::steady_clock::now();
        // Each op pins the freshest snapshot (a new "client request");
        // the pool executes it even as writers publish newer epochs.
        auto rs = service.Submit(config.mode, sql).get();
        auto q1 = std::chrono::steady_clock::now();
        if (!rs.ok()) {
          ++read_errors;
        } else {
          read_lat[r].push_back(
              std::chrono::duration<double>(q1 - q0).count());
        }
      }
    });
  }
  for (size_t w = 0; w < config.writers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(config.seed + 1000 + w);
      // Pipelined writes: keep up to --inflight CommitAsync receipts
      // outstanding so consecutive commits coalesce into one group commit
      // (one incremental-maintenance pass, one published epoch).
      struct Pending {
        std::future<CommitReceipt> receipt;
        std::chrono::steady_clock::time_point submitted;
      };
      std::deque<Pending> window;
      auto reap_front = [&] {
        Pending p = std::move(window.front());
        window.pop_front();
        CommitReceipt receipt = p.receipt.get();
        auto c1 = std::chrono::steady_clock::now();
        if (!receipt.status.ok()) {
          // Surface the first failure; the final count fails the run.
          if (write_errors.fetch_add(1) == 0) {
            std::fprintf(stderr, "hippo_serve_driver: commit failed: %s\n",
                         receipt.status.ToString().c_str());
          }
          return;
        }
        write_lat[w].push_back(
            std::chrono::duration<double>(c1 - p.submitted).count());
        ++commits;
      };
      const size_t inflight = std::max<size_t>(config.inflight, 1);
      while (!readers_done.load()) {
        // FD churn: a conflicting insert, sometimes drained by a delete.
        size_t key = rng.Uniform(config.rows);
        std::string script =
            rng.Uniform(4) == 0
                ? StrFormat("DELETE FROM p WHERE a = %zu AND b >= 1000", key)
                : StrFormat("INSERT INTO p VALUES (%zu, %llu)", key,
                            (unsigned long long)(1000 + rng.Uniform(1000)));
        Pending p;
        p.submitted = std::chrono::steady_clock::now();
        p.receipt = service.CommitAsync(std::move(script));
        window.push_back(std::move(p));
        if (window.size() >= inflight) reap_front();
      }
      while (!window.empty()) reap_front();
    });
  }
  // Readers exit on their own; writers watch the flag.
  for (size_t r = 0; r < config.readers; ++r) threads[r].join();
  readers_done.store(true);
  for (size_t t = config.readers; t < threads.size(); ++t) threads[t].join();
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  if (read_errors.load() > 0) {
    return Fail(StrFormat("%zu read requests failed", read_errors.load()));
  }
  if (write_errors.load() > 0) {
    return Fail(StrFormat("%zu commits failed", write_errors.load()));
  }

  auto merged = [](const std::vector<std::vector<double>>& per_thread) {
    std::vector<double> all;
    for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
    return all;
  };
  std::vector<double> reads = merged(read_lat);
  std::vector<double> writes = merged(write_lat);

  TextTable table({"role", "threads", "ops", "throughput", "p50", "p95",
                   "p99", "max"});
  auto add_role = [&table, wall](const std::string& role, size_t nthreads,
                                 std::vector<double> lat) {
    if (lat.empty()) return;
    size_t n = lat.size();
    std::vector<double> ps = Percentiles(lat, {50, 95, 99, 100});
    table.AddRow({role, std::to_string(nthreads), std::to_string(n),
                  StrFormat("%.1f ops/s", n / wall),
                  FormatSeconds(ps[0]), FormatSeconds(ps[1]),
                  FormatSeconds(ps[2]), FormatSeconds(ps[3])});
  };
  hippo::service::ServiceStats stats = service.stats();
  add_role("reader", config.readers, reads);
  add_role("writer (commit)", config.writers, writes);
  // Publication alone (Snapshot::Capture inside the commit path), bulk-load
  // publications excluded: with copy-on-write sharing this stays flat as
  // the database grows.
  std::vector<double> publishes(
      stats.publish_seconds.begin() +
          std::min(publish_samples_before_run, stats.publish_seconds.size()),
      stats.publish_seconds.end());
  add_role("publish (COW)", config.writers, publishes);
  table.Print(StrFormat("serve driver: %zu rows, %zu pool workers, wall %s",
                        config.rows, service.num_workers(),
                        FormatSeconds(wall).c_str()));
  std::printf(
      "service: %llu commits (%llu incremental, %llu re-detect) in %llu "
      "groups (max group %zu), %llu async rounds (%llu replayed), "
      "%llu epochs published, %llu pool queries, %llu rejected\n",
      (unsigned long long)stats.commits,
      (unsigned long long)stats.incremental_commits,
      (unsigned long long)stats.bulk_redetects,
      (unsigned long long)stats.commit_groups, stats.max_group_size,
      (unsigned long long)stats.async_redetects,
      (unsigned long long)stats.replayed_commits,
      (unsigned long long)stats.snapshots_published,
      (unsigned long long)stats.queries_executed,
      (unsigned long long)stats.queries_rejected);
  {
    // Per-route serving breakdown (consistent-read requests only; the
    // router classifies each request against its pinned snapshot). The
    // quantiles come from the service's lock-free route histograms, so
    // they are real tail latencies rather than sum/count means.
    TextTable routes({"route", "ops", "mean", "p50", "p95", "p99"});
    auto add_route = [&routes](const std::string& name,
                               const hippo::obs::HistogramSnapshot& snap) {
      if (snap.empty()) return;
      routes.AddRow({name, std::to_string(snap.count),
                     FormatSeconds(snap.Mean()),
                     FormatSeconds(snap.Quantile(0.50)),
                     FormatSeconds(snap.Quantile(0.95)),
                     FormatSeconds(snap.Quantile(0.99))});
    };
    add_route("conflict-free", stats.conflict_free_latency);
    add_route("rewrite", stats.rewrite_latency);
    add_route("prover", stats.prover_latency);
    size_t routed = stats.hippo.routed_conflict_free +
                    stats.hippo.routed_rewrite + stats.hippo.routed_prover;
    if (routed > 0) {
      routes.Print(StrFormat("route latencies (%zu routed requests)",
                             routed));
    }
  }
  {
    // Slowest requests the service retained (ring buffer, top-K by
    // latency) — each with its route and one-line trace summary.
    std::vector<QueryService::SlowQuery> slow = service.SlowQueries();
    if (!slow.empty()) {
      std::printf("slow-query log (%zu entries):\n", slow.size());
      size_t shown = std::min<size_t>(slow.size(), 5);
      for (size_t i = 0; i < shown; ++i) {
        std::printf("  %s  epoch %llu  %s  [%s]\n",
                    FormatSeconds(slow[i].seconds).c_str(),
                    (unsigned long long)slow[i].epoch,
                    slow[i].summary.c_str(), slow[i].sql.c_str());
      }
    }
  }
  std::printf("final epoch %llu, %zu conflict edges\n",
              (unsigned long long)service.epoch(),
              service.snapshot()->hypergraph().NumEdges());

  // Memory accounting: one more single-row commit, then compare the full
  // snapshot footprint against what the new epoch actually allocated (its
  // marginal bytes — everything else is shared with the previous epoch).
  hippo::service::SnapshotPtr before = service.snapshot();
  Status st = service.Commit("INSERT INTO p VALUES (0, 999999)");
  if (!st.ok()) return Fail("final commit failed: " + st.ToString());
  hippo::service::SnapshotPtr after = service.snapshot();
  size_t full = after->ApproxBytes();
  std::unordered_set<const void*> seen;
  before->CollectStorageIdentity(&seen);
  size_t marginal = after->AccumulateApproxBytes(&seen);
  std::printf(
      "snapshot memory: %s full; publishing epoch %llu allocated %s "
      "(%.2f%% — the rest is shared with epoch %llu)\n",
      hippo::bench::FormatBytes(full).c_str(),
      (unsigned long long)after->epoch(),
      hippo::bench::FormatBytes(marginal).c_str(),
      full == 0 ? 0.0 : 100.0 * marginal / full,
      (unsigned long long)before->epoch());

  // Metrics snapshots at exit: the Prometheus text exposition and/or the
  // machine-readable JSON object, both straight from the service registry.
  auto write_file = [](const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
  };
  if (!config.metrics_out.empty()) {
    if (!write_file(config.metrics_out, service.DumpMetrics())) {
      return Fail("cannot write --metrics-out file: " + config.metrics_out);
    }
    std::printf("metrics: wrote Prometheus exposition to %s\n",
                config.metrics_out.c_str());
  }
  if (!config.metrics_json.empty()) {
    if (!write_file(config.metrics_json, service.DumpMetricsJson())) {
      return Fail("cannot write --metrics-json file: " + config.metrics_json);
    }
    std::printf("metrics: wrote JSON snapshot to %s\n",
                config.metrics_json.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: hippo_serve_driver [--rows N] [--conflict-rate F]\n"
      "       [--readers R] [--writers W] [--ops N] [--workers N]\n"
      "       [--queue N] [--inflight N] [--mode cqa|plain|core]\n"
      "       [--seed S] [--smoke]\n"
      "       [--metrics-out=FILE] [--metrics-json=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  DriverConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_value = [&](size_t* out) {
      if (++i >= argc) return false;
      *out = static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
      return true;
    };
    if (arg == "--smoke") {
      config.rows = 500;
      config.total_ops = 24;
      config.readers = 2;
      config.writers = 1;
      config.workers = 2;
    } else if (arg == "--rows") {
      if (!next_value(&config.rows)) return Usage();
    } else if (arg == "--readers") {
      if (!next_value(&config.readers)) return Usage();
    } else if (arg == "--writers") {
      if (!next_value(&config.writers)) return Usage();
    } else if (arg == "--ops") {
      if (!next_value(&config.total_ops)) return Usage();
    } else if (arg == "--workers") {
      if (!next_value(&config.workers)) return Usage();
    } else if (arg == "--queue") {
      if (!next_value(&config.queue_depth)) return Usage();
    } else if (arg == "--inflight") {
      if (!next_value(&config.inflight)) return Usage();
    } else if (arg == "--seed") {
      size_t seed;
      if (!next_value(&seed)) return Usage();
      config.seed = seed;
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      config.metrics_out = arg.substr(std::strlen("--metrics-out="));
      if (config.metrics_out.empty()) return Usage();
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      config.metrics_json = arg.substr(std::strlen("--metrics-json="));
      if (config.metrics_json.empty()) return Usage();
    } else if (arg == "--conflict-rate") {
      if (++i >= argc) return Usage();
      config.conflict_rate = std::strtod(argv[i], nullptr);
    } else if (arg == "--mode") {
      if (++i >= argc) return Usage();
      std::string mode = argv[i];
      if (mode == "cqa") {
        config.mode = QueryService::ReadMode::kConsistent;
      } else if (mode == "plain") {
        config.mode = QueryService::ReadMode::kPlain;
      } else if (mode == "core") {
        config.mode = QueryService::ReadMode::kOverCore;
      } else {
        return Fail("unknown mode: " + mode);
      }
    } else {
      return Usage();
    }
  }
  if (config.readers == 0 || config.total_ops == 0) {
    return Fail("need at least one reader and one op");
  }
  return Run(config);
}
