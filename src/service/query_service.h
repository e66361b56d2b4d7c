// service::QueryService — a concurrent query-serving facade over Database.
//
// The single-threaded Database answers queries over one mutable instance;
// this layer turns it into a service that many clients can hit at once:
//
//   * Readers acquire the current Snapshot (epoch-versioned, immutable,
//     RCU-style shared_ptr) and evaluate against it — either synchronously
//     on their own thread (see Session) or through the service's bounded
//     worker pool (Submit). Readers never block each other and never block
//     on writers.
//   * Writers go through the asynchronous commit pipeline: CommitAsync
//     admits the script into a bounded MPMC ring (the admission order is
//     the serial commit order) and returns a future<CommitReceipt>. A
//     single pipeline thread drains the ring head in maximal same-class
//     groups:
//       - small (pure-DML) groups are applied to the master through the
//         incremental hypergraph maintainer and published as ONE epoch;
//       - bulk/DDL groups fork the master copy-on-write, apply + re-detect
//         on the fork in a background thread (parallel DetectAll) while
//         small writes keep landing and publishing on the master lineage,
//         then replay those overtaking writes onto the fork and swap the
//         master pointer — publication shrinks to pointer swaps.
//     The blocking Commit() is a thin wrapper (CommitAsync(...).get()).
//
// Ordering guarantee (the epoch-prefix invariant, differential-tested in
// tests/group_commit_test.cc): the snapshot published at epoch E is
// bit-identical — rows, tombstones, edge ids, provenance, answers — to a
// fresh Database applying, in admission-sequence order, exactly the
// commits whose receipt.epoch <= E. An in-flight bulk has a lower sequence
// but a higher epoch than the small writes that overtake it, so every
// epoch's prefix replays one lineage exactly.
//
// Admission control: Submit() enqueues onto a bounded queue serviced by
// the worker pool; CommitAsync onto the bounded write ring. When full
// the service either blocks the submitter (backpressure, default) or
// rejects with ResourceExhausted, per reject_when_full /
// reject_writes_when_full.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "cqa/engine.h"
#include "db/database.h"
#include "detect/detector.h"
#include "obs/metrics.h"
#include "service/commit_queue.h"
#include "service/snapshot.h"

namespace hippo::service {

class Session;

struct ServiceOptions {
  /// The service's one thread knob: the read-pool width and the
  /// commit-path detection threads (it overrides detect.num_threads).
  /// 0 = one per hardware thread (ResolveThreadCount). Per-query prover
  /// and envelope parallelism is HippoOptions::num_threads, set per
  /// request.
  size_t threads = 0;

  /// Bound on admitted-but-unstarted read requests. Submissions beyond it
  /// block (default) or are rejected, per reject_when_full.
  size_t max_queue_depth = 256;

  /// When the read admission queue is full: true rejects the request
  /// immediately with ResourceExhausted; false blocks the submitter until
  /// a slot frees (backpressure).
  bool reject_when_full = false;

  /// Capacity of the commit admission ring (rounded up to a power of two).
  /// When full, CommitAsync blocks (default) or resolves the receipt with
  /// ResourceExhausted, per reject_writes_when_full.
  size_t write_queue_depth = 256;

  /// When the write ring is full: true resolves the receipt immediately
  /// with ResourceExhausted; false blocks the submitter (backpressure).
  bool reject_writes_when_full = false;

  /// Upper bound on commits coalesced into one group (one incremental
  /// maintenance pass, one published epoch). Larger groups amortize
  /// publication across more writers at the cost of receipt latency for
  /// the first commit of a burst.
  size_t max_group_commits = 64;

  /// Commit scripts with at least this many statements skip per-row
  /// incremental maintenance and re-detect the hypergraph from scratch
  /// (with `detect`, typically parallel) — for bulk loads, one full
  /// parallel pass beats a hash-probe per row.
  size_t bulk_redetect_statements = 1024;

  /// Run bulk/DDL re-detections asynchronously on a copy-on-write fork of
  /// the master while small commits keep publishing (the non-blocking
  /// pipeline). false re-detects inline on the pipeline thread — small
  /// commits queue behind the bulk, as the pre-pipeline service did
  /// (bench_f9_concurrency's F9d table measures the difference).
  bool async_bulk_redetect = true;

  /// Detection options for commit-path re-detection (bulk commits,
  /// constraint DDL); the constructor overwrites num_threads with
  /// `threads`. partition_rows splits a single hot constraint (FD or
  /// other denial constraint) or FK across the pool, so even a
  /// one-constraint database re-detects in parallel and the re-detect
  /// window shrinks with the core count. Invalid combinations
  /// (DetectOptions::Validate) fail the first commit that needs a
  /// re-detect, with a clear status.
  DetectOptions detect;

  /// Per-service observability: a private obs::MetricsRegistry with
  /// commit-phase timers (ring wait, apply, incremental-vs-redetect,
  /// replay, publish, batch size, group size), admission/queue
  /// instrumentation, per-route query-latency histograms, and the
  /// slow-query log. Recording is a few relaxed atomics per event;
  /// `false` bypasses all of it (the pre-observability hot path —
  /// bench_f14_obs_overhead measures the difference and CI bounds it).
  bool enable_metrics = true;

  /// Capacity of the slow-query log: the top-K pool-executed requests by
  /// latency (any read mode) are retained with route and trace summary.
  /// 0 disables the log. Only kept when enable_metrics is on.
  size_t slow_query_log_size = 16;
};

/// Per-commit phase timings carried by the receipt. All wall seconds.
struct CommitPhases {
  /// Admission-ring wait: admission to the start of this commit's group
  /// apply (the coalescing delay — what used to be the commit-lock wait).
  double queue_seconds = 0;
  /// Execute() of the group this commit rode in (incremental maintenance
  /// runs inside apply on the small path).
  double apply_seconds = 0;
  /// Standalone re-detection wall time (0 on the incremental path; on
  /// async bulk/DDL rounds, the background parallel DetectAll plus an
  /// O(constraints) maintainer attach).
  double detect_seconds = 0;
  /// Replay of overtaking small commits onto the re-detected fork (async
  /// rounds only).
  double replay_seconds = 0;
  /// Snapshot::Capture + pointer swap for the publishing epoch.
  double publish_seconds = 0;
  /// True when the conflict hypergraph was rebuilt from scratch for this
  /// commit's group (bulk/DDL), false when maintained incrementally.
  bool redetected = false;
};

/// What a writer gets back for one committed script: where it landed and
/// what it cost. `epoch` is the FIRST epoch whose snapshot contains the
/// commit; on async bulk rounds, small commits admitted later may publish
/// (lower) epochs on the master lineage while the bulk's own epoch is the
/// post-swap one.
struct CommitReceipt {
  /// The script's apply status (Execute semantics: statements before a
  /// mid-script error remain applied and are still published). During an
  /// async round the same script is replayed onto the post-DDL lineage,
  /// where statement-level outcomes may differ; the final state is always
  /// that of serial application in sequence order.
  Status status;
  /// Admission ticket: the global serial order of this commit.
  uint64_t sequence = 0;
  /// The publishing epoch (0 with a null snapshot when rejected).
  uint64_t epoch = 0;
  /// Number of commits coalesced into the same published epoch.
  size_t group_size = 0;
  /// The snapshot published at `epoch` — read-your-writes without racing
  /// later commits. Null when the commit was rejected.
  SnapshotPtr snapshot;
  CommitPhases phases;
};

struct ServiceStats {
  uint64_t commits = 0;              ///< commit requests that ran
  uint64_t incremental_commits = 0;  ///< graph maintained per-row
  uint64_t bulk_redetects = 0;       ///< graph rebuilt by full detection
  uint64_t commit_groups = 0;        ///< groups drained (epochs with writes)
  uint64_t async_redetects = 0;      ///< background fork-and-swap rounds
  uint64_t replayed_commits = 0;     ///< small commits replayed onto forks
  size_t max_group_size = 0;         ///< largest coalesced group so far
  uint64_t snapshots_published = 0;
  uint64_t queries_executed = 0;     ///< worker-pool requests completed
  uint64_t queries_rejected = 0;     ///< admission-control rejections
  double publish_seconds_total = 0;  ///< wall time inside Snapshot::Capture
  /// Per-publication capture latencies (seconds) for the serve driver's
  /// publish p50/p95/p99 row. Recording stops after the first 16384
  /// publications so long-lived services stay bounded — past that point the
  /// percentiles describe the recorded prefix only (publish_seconds_total /
  /// snapshots_published still covers the full run). (Marginal-bytes
  /// accounting is intentionally not computed here: callers holding two
  /// SnapshotPtrs can derive it via Snapshot::CollectStorageIdentity +
  /// AccumulateApproxBytes without taxing the commit path.)
  std::vector<double> publish_seconds;
  cqa::HippoStats hippo;             ///< aggregated over pool CQA requests

  /// Per-route latency distributions of pool-executed kConsistent
  /// requests (obs::LatencyHistogram snapshots taken at stats() time, so
  /// p50/p95/p99 are real percentiles, not sums/counts). The rewrite
  /// bucket covers both the ABC and KW first-order methods. Empty when
  /// ServiceOptions::enable_metrics is false.
  obs::HistogramSnapshot conflict_free_latency;
  obs::HistogramSnapshot rewrite_latency;
  obs::HistogramSnapshot prover_latency;
};

class QueryService {
 public:
  /// How a submitted SELECT is answered.
  enum class ReadMode {
    kPlain,       ///< Snapshot::Query — ignore conflicts
    kOverCore,    ///< Snapshot::QueryOverCore — drop all conflicting tuples
    kConsistent,  ///< Snapshot::ConsistentAnswers — the Hippo pipeline
  };

  explicit QueryService(ServiceOptions options = ServiceOptions());
  ~QueryService();
  HIPPO_DISALLOW_COPY(QueryService);

  // --- write path -----------------------------------------------------------

  /// Admits a ';'-separated DDL/DML script into the commit pipeline and
  /// returns a future resolved when its epoch publishes. The admission
  /// order (receipt.sequence) is the serial order of commits; small
  /// scripts coalesce into group commits, bulk/DDL scripts trigger a
  /// (by default asynchronous) full re-detection round. Blocks only on a
  /// full ring (or rejects, per ServiceOptions::reject_writes_when_full);
  /// after Shutdown, resolves immediately with ResourceExhausted.
  std::future<CommitReceipt> CommitAsync(std::string sql);

  /// Admits a batch of scripts back-to-back (their sequences are
  /// contiguous in submission order when no other writer interleaves) and
  /// returns one future per script. The pipeline is free to coalesce them
  /// into fewer epochs.
  std::vector<std::future<CommitReceipt>> CommitMany(
      std::vector<std::string> scripts);

  /// Blocking compatibility wrapper: CommitAsync(sql).get().status. Same
  /// semantics as the pre-pipeline exclusive path — on a mid-script error
  /// the statements already applied remain and are still published; the
  /// error is returned. One epoch is published for the commit's group
  /// (group size 1 when the caller is the only writer).
  Status Commit(const std::string& sql);

  /// Admin escape hatch for configuration changes on the master database
  /// (hippo_shell's .incremental and .threads): runs `fn` on the master,
  /// serialized against the commit pipeline and outside any in-flight
  /// async round (it waits for the round to finish, so the effect cannot
  /// be lost to a lineage swap). When `publish` is true a new epoch is
  /// published afterwards. Reads never need it — every read runs against
  /// snapshot(). Mutations made here bypass the receipt/ordering protocol
  /// — use CommitAsync for anything that must participate in the
  /// epoch-prefix invariant.
  Status WithMaster(const std::function<Status(Database&)>& fn,
                    bool publish = false);

  // --- read path ------------------------------------------------------------

  /// The most recently published snapshot. Never null after construction
  /// (epoch 0 is the empty instance).
  SnapshotPtr snapshot() const;

  /// The epoch of the current snapshot.
  uint64_t epoch() const;

  /// Opens a session pinned to the current snapshot (see Session).
  Session OpenSession();

  /// Enqueues a read for the worker pool, pinned to `snap` (or to the
  /// current snapshot when null). The future carries the result or the
  /// error — including ResourceExhausted when admission control rejects.
  std::future<Result<ResultSet>> Submit(
      ReadMode mode, std::string select_sql, SnapshotPtr snap = nullptr,
      cqa::HippoOptions options = cqa::HippoOptions());

  // --- lifecycle / inspection ----------------------------------------------

  /// Stops admission, drains everything already admitted (every
  /// outstanding commit future resolves, in order, including an in-flight
  /// async round), joins the pipeline and the workers. Called by the
  /// destructor; idempotent. Submissions after (or racing) shutdown
  /// resolve to ResourceExhausted.
  void Shutdown();

  ServiceStats stats() const;

  size_t num_workers() const { return workers_.size(); }

  // --- observability ---------------------------------------------------------

  /// One retained slow-query-log entry (see ServiceOptions::
  /// slow_query_log_size): the request, its route, latency, epoch, and a
  /// one-line summary (the caller's trace summary when the request carried
  /// a trace, otherwise synthesized from its HippoStats).
  struct SlowQuery {
    std::string sql;
    ReadMode mode = ReadMode::kPlain;
    RouteKind route = RouteKind::kNone;
    double seconds = 0;
    uint64_t epoch = 0;
    std::string summary;
  };

  /// The slow-query log, sorted by latency descending. Empty when metrics
  /// are disabled.
  std::vector<SlowQuery> SlowQueries() const;

  /// The service's metrics registry (null when disabled). Commit-phase
  /// timers, queue instrumentation, and per-route latency live here.
  const obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Prometheus-style text exposition of the service registry; empty
  /// string when metrics are disabled.
  std::string DumpMetrics() const;

  /// The same snapshot as a single JSON object ("{}" when disabled).
  std::string DumpMetricsJson() const;

 private:
  struct Job {
    ReadMode mode = ReadMode::kPlain;
    std::string sql;
    SnapshotPtr snapshot;
    cqa::HippoOptions options;
    std::promise<Result<ResultSet>> done;
    /// Enqueue instant for the queue-wait histogram (meaningful only when
    /// metrics are enabled).
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// One admitted commit inside the pipeline. Default-constructible (the
  /// ring's cells hold them by value).
  struct CommitRequest {
    std::string sql;
    std::promise<CommitReceipt> done;
    uint64_t sequence = 0;     ///< admission ticket (serial order)
    size_t statements = 0;
    bool redetect = false;     ///< bulk or DDL: full re-detection class
    Status applied;            ///< per-script Execute status (set at apply)
    double queue_seconds = 0;  ///< admission -> group apply start
    std::chrono::steady_clock::time_point admitted{};
  };

  void WorkerLoop();
  Result<ResultSet> RunJob(Job* job);

  // --- commit pipeline internals --------------------------------------------

  /// The single pipeline thread: drains maximal same-class groups from the
  /// ring head, processes small groups inline, dispatches redetect groups
  /// to async rounds (or inline when async_bulk_redetect is off), and
  /// completes finished rounds.
  void CommitPipelineLoop();

  /// Applies a small (pure-DML) group to the master through the
  /// incremental maintainer, publishes one epoch, resolves the receipts.
  void ProcessSmallGroup(std::vector<CommitRequest> group);

  /// The synchronous bulk/DDL path (async_bulk_redetect off): drop the
  /// maintainer, apply, re-detect inline, publish.
  void ProcessSyncRedetect(std::vector<CommitRequest> group);

  /// Forks the master COW and hands the group to a background thread
  /// (apply + parallel re-detect on the fork); the pipeline keeps
  /// processing small groups on the master lineage meanwhile.
  void StartAsyncRound(std::vector<CommitRequest> group);

  /// Joins the background detect, replays overtaking small commits onto
  /// the fork, swaps the master pointer, publishes, resolves the round's
  /// receipts.
  void FinishAsyncRound();

  /// Resolves one group's receipts against a published snapshot, and
  /// records the shared stats/metrics for the group.
  void ResolveGroup(std::vector<CommitRequest>* group, Status published,
                    const SnapshotPtr& snap, const CommitPhases& shared);

  /// Resolves one request as rejected (never admitted).
  static void Reject(CommitRequest* req, Status why);

  /// Resolves the registry handles once at construction (all null when
  /// metrics are disabled, so every record site is a single branch).
  void InitMetrics();

  /// Offers one finished pool request to the slow-query log (stats_mu_
  /// must be held). Keeps the top-K by latency.
  void NoteSlowQueryLocked(const Job& job, RouteKind route, double seconds,
                           const cqa::HippoStats* hippo_stats);

  /// Captures master_ (caller holds master_mu_) and swaps it in as the
  /// current snapshot (next epoch). `out`, when non-null, receives the
  /// published snapshot. `*superseded` receives the previous epoch: the
  /// caller must release it only after dropping master_mu_, since it may
  /// be the last reference to O(database) storage and every Submit and
  /// snapshot() call contends on the locks around it.
  Status Publish(SnapshotPtr* superseded, SnapshotPtr* out = nullptr);

  ServiceOptions options_;

  /// Guards the master lineage: group apply + publish, async-round fork
  /// and swap, next_epoch_, round_in_flight_, and WithMaster. Never held
  /// during background detection — that runs on the private fork.
  std::mutex master_mu_;
  std::condition_variable master_cv_;  ///< signaled when a round completes
  std::unique_ptr<Database> master_;
  uint64_t next_epoch_ = 0;
  bool round_in_flight_ = false;

  /// Guards current_ only (pointer swap; readers copy the shared_ptr out).
  mutable std::mutex snapshot_mu_;
  SnapshotPtr current_;

  // --- commit admission + pipeline wakeup -----------------------------------
  MpmcRing<CommitRequest> write_ring_;
  /// The admission gate and pipeline signal mutex: held briefly for
  /// push+stopping checks, cv waits, and the detect-done handshake —
  /// never during apply/detect/publish work.
  std::mutex pipeline_mu_;
  std::condition_variable pipeline_cv_;     ///< pipeline waits for work
  std::condition_variable write_space_cv_;  ///< writers wait for ring space
  bool commits_stopping_ = false;           ///< guarded by pipeline_mu_
  std::thread pipeline_;

  // Async-round state. round_group_/fork_ are handed to the detect thread
  // at round start and reclaimed by the pipeline only after the
  // detect_done_ handshake (all under pipeline_mu_), so no concurrent
  // access ever occurs. replay_log_ is pipeline-thread-only.
  std::thread detect_thread_;
  bool detect_done_ = false;          ///< guarded by pipeline_mu_
  Status detect_status_;              ///< written before detect_done_
  double round_apply_seconds_ = 0;    ///< written before detect_done_
  double round_detect_seconds_ = 0;   ///< written before detect_done_
  std::unique_ptr<Database> fork_;
  std::vector<CommitRequest> round_group_;
  std::vector<std::string> replay_log_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;  ///< workers wait for jobs / shutdown
  std::condition_variable space_cv_;  ///< submitters wait for queue slots
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  /// Slow-query log (top-K by latency, unordered; sorted on read). Guarded
  /// by stats_mu_.
  std::vector<SlowQuery> slow_log_;

  /// Per-service registry (null when ServiceOptions::enable_metrics is
  /// false) plus handles resolved once at construction. The handles point
  /// into metrics_, so recording on the hot path is branch + relaxed
  /// atomics — no map lookups, no locks.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::LatencyHistogram* m_commit_lock_wait_ = nullptr;
  obs::LatencyHistogram* m_commit_apply_ = nullptr;
  obs::LatencyHistogram* m_detect_incremental_ = nullptr;
  obs::LatencyHistogram* m_detect_redetect_ = nullptr;
  obs::LatencyHistogram* m_commit_replay_ = nullptr;
  obs::LatencyHistogram* m_commit_publish_ = nullptr;
  obs::LatencyHistogram* m_batch_statements_ = nullptr;
  obs::LatencyHistogram* m_group_size_ = nullptr;
  obs::LatencyHistogram* m_admission_wait_ = nullptr;
  obs::LatencyHistogram* m_queue_wait_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_epoch_ = nullptr;
  obs::LatencyHistogram* m_route_cf_ = nullptr;
  obs::LatencyHistogram* m_route_rewrite_ = nullptr;
  obs::LatencyHistogram* m_route_prover_ = nullptr;
  obs::LatencyHistogram* m_plain_latency_ = nullptr;
  obs::LatencyHistogram* m_core_latency_ = nullptr;
};

}  // namespace hippo::service
