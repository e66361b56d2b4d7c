// Conflict detection: evaluating integrity constraints over the instance and
// recording every violation witness as a hyperedge.
//
// The generic path compiles a denial constraint into a join plan over
// rowid-emitting scans (so equality conditions execute as hash joins) and
// collects the rowid columns of each result row. FDs additionally have a
// hash-grouping fast path: group by the determinant, emit an edge for every
// pair in a group that differs on the dependent columns.
//
// DetectAll parallelizes across constraints and, within one constraint,
// across determinant-hash shards (large FDs), probe-side row-range
// partitions of the generic join path, and child-row partitions of the FK
// anti-join; every work unit stages edges into a private EdgeBuffer and
// the buffers are merged deterministically by
// ConflictHypergraph::BulkLoad (see detector.cc).
#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/parallel.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "expr/expr.h"
#include "hypergraph/hypergraph.h"

namespace hippo {

struct DetectOptions {
  /// Use the hash-grouping fast path for constraints with FD provenance.
  bool use_fd_fast_path = true;

  /// Detection worker threads for DetectAll: constraints — and intra-
  /// constraint units: determinant-hash shards of large FDs, probe-side
  /// partitions of large generic joins, child partitions of large FKs —
  /// fan out across this many workers, each staging edges into a private
  /// EdgeBuffer; the buffers are merged deterministically with
  /// ConflictHypergraph::BulkLoad, so the resulting graph — edges, ids and
  /// provenance — is identical for every thread count > 1. The serial run
  /// (1, or 0 resolving to one hardware thread) produces the same edges
  /// and provenance but numbers edge ids in historical
  /// constraint/discovery order rather than BulkLoad's sorted order.
  /// 0 means "use all hardware threads" (ResolveThreadCount).
  /// Service callers: set service::ServiceOptions::threads; the
  /// QueryService constructor copies it into this field of
  /// ServiceOptions::detect.
  size_t num_threads = 1;

  /// Minimum live row slots of an FD table per grouping shard: when
  /// num_threads > 1 and the table exceeds this, the FD fast path is split
  /// into determinant-hash-range shards (each shard groups only the keys
  /// hashing into its range), so a single hot table also parallelizes.
  /// Must be >= 1 (Validate); use SIZE_MAX to disable FD sharding.
  size_t shard_rows = 16384;

  /// Minimum probe-side live rows of a generic-join constraint (or child
  /// rows of a foreign key) per row-range partition: when num_threads > 1
  /// and the probe side exceeds this, the unit is split into contiguous
  /// partitions of the probe-side scan. The build sides are scanned and
  /// hash-built ONCE per constraint (by the first worker
  /// to arrive, under a once-flag) and probed read-only by every
  /// partition, so a single hot generic constraint parallelizes without
  /// duplicating build work. Must be >= 1 (Validate); use SIZE_MAX to
  /// disable probe partitioning.
  size_t partition_rows = 8192;

  /// Rejects nonsensical combinations with InvalidArgument instead of a
  /// silent fallback: zero shard_rows / partition_rows (formerly a hidden
  /// "disable" value) and absurd thread counts (> kMaxThreads; 0 still
  /// means "all hardware threads"). Checked by every DetectAll run.
  Status Validate() const;

  /// Upper bound Validate() accepts for num_threads — far above any real
  /// machine; catches garbage (e.g. size_t underflow) early.
  static constexpr size_t kMaxThreads = 4096;
};

/// How the generic path evaluates a denial constraint: a left-deep join
/// over the atoms' rowid-emitting scans (atom i's columns start at
/// atom_offset(i) + i, its rowid follows them). Each conjunct of the
/// condition joins at the level where its last atom enters, so equalities
/// become hash joins; the leftovers (atom-0-confined conjuncts, or a unary
/// constraint's whole condition) form the final filter.
struct GenericJoinShape {
  /// [i] joins atom i onto atoms 0..i-1; null = product. [0] is unused.
  std::vector<ExprPtr> level_conds;
  /// Applied to complete witness rows; null = none.
  ExprPtr final_filter;
};

GenericJoinShape ShapeGenericJoin(const DenialConstraint& dc);

/// The condition of a foreign key's orphan anti-join: child key = parent
/// key, bound over concat(child row, child rowid, parent row). Orphans are
/// the child rows with no parent row satisfying it.
ExprPtr ForeignKeyCondition(const Catalog& catalog,
                            const ForeignKeyConstraint& fk);

struct DetectStats {
  size_t edges_added = 0;
  size_t fd_fast_path_constraints = 0;
  size_t generic_constraints = 0;
  /// Grouping shards executed for FD constraints that were split (0 when
  /// nothing was sharded; each sharded FD contributes all of its shards).
  size_t fd_shards = 0;
  /// Probe-side partitions executed for generic constraints that were
  /// split (0 when nothing was partitioned).
  size_t generic_partitions = 0;
  /// Child-row partitions executed for foreign keys that were split.
  size_t fk_partitions = 0;
};

class ConflictDetector {
 public:
  explicit ConflictDetector(const Catalog& catalog,
                            DetectOptions options = DetectOptions())
      : catalog_(catalog), options_(options) {}

  /// Detects violations of one constraint, adding edges to `graph`.
  Status Detect(const DenialConstraint& constraint, uint32_t constraint_index,
                ConflictHypergraph* graph);

  /// Detects orphaned child tuples of a restricted foreign key: each orphan
  /// can never regain a parent (the parent relation is immutable across
  /// repairs), so it becomes a unary hyperedge.
  Status DetectForeignKey(const ForeignKeyConstraint& fk,
                          uint32_t constraint_index,
                          ConflictHypergraph* graph);

  /// Detects violations of all constraints into a fresh hypergraph. Foreign
  /// keys receive constraint indexes following the denial constraints'.
  /// With options.num_threads > 1 the constraints (and determinant-hash
  /// shards of large FDs) are detected concurrently into private
  /// EdgeBuffers and merged with ConflictHypergraph::BulkLoad; the result
  /// is set-equal to the serial run (same canonical edges and provenance;
  /// edge ids follow BulkLoad's sorted order instead of the serial
  /// insertion order) and id-identical across all parallel runs.
  Result<ConflictHypergraph> DetectAll(
      const std::vector<DenialConstraint>& constraints,
      const std::vector<ForeignKeyConstraint>& foreign_keys = {});

  const DetectStats& stats() const { return stats_; }

 private:
  // Lazily-built shared read-only state for one partitioned work unit (the
  // columnar scans plus the hash-join build tables); defined in
  // detector.cc, built under a once-flag by the first partition's worker.
  struct GenericShared;
  struct FkShared;

  /// Stage-into-buffer internals, shared by the serial and parallel paths.
  /// They are const (catalog and options are read-only), so workers can run
  /// them concurrently, each with its own buffer and stats accumulator.
  Status DetectGenericInto(const DenialConstraint& constraint,
                           uint32_t constraint_index, EdgeBuffer* out,
                           DetectStats* stats) const;
  /// One probe-side row-range partition of a generic constraint: ensures
  /// `shared` is built (first caller wins, under its once-flag), then
  /// probes rows [partition * n / num_partitions, ...) of the probe input
  /// against the shared build state.
  Status DetectGenericPartitionInto(const DenialConstraint& constraint,
                                    uint32_t constraint_index,
                                    GenericShared* shared, size_t partition,
                                    size_t num_partitions, EdgeBuffer* out,
                                    DetectStats* stats) const;
  Status DetectFdFastInto(const DenialConstraint& constraint,
                          uint32_t constraint_index, size_t shard,
                          size_t num_shards, EdgeBuffer* out,
                          DetectStats* stats) const;
  Status DetectForeignKeyInto(const ForeignKeyConstraint& fk,
                              uint32_t constraint_index, EdgeBuffer* out,
                              DetectStats* stats) const;
  /// One child-row partition of a foreign key's orphan anti-join, probing
  /// the shared parent build state.
  Status DetectForeignKeyPartitionInto(const ForeignKeyConstraint& fk,
                                       uint32_t constraint_index,
                                       FkShared* shared, size_t partition,
                                       size_t num_partitions,
                                       EdgeBuffer* out,
                                       DetectStats* stats) const;

  /// Flushes a staged buffer into `graph` in staging order (the serial
  /// insertion-order behavior of Detect/DetectForeignKey).
  static void Flush(EdgeBuffer buffer, ConflictHypergraph* graph);

  const Catalog& catalog_;
  DetectOptions options_;
  DetectStats stats_;
};

}  // namespace hippo
