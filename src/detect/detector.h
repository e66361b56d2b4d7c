// Conflict detection: evaluating integrity constraints over the instance and
// recording every violation witness as a hyperedge.
//
// Every denial constraint, FDs included, compiles into a join plan over
// rowid-emitting scans (so equality conditions execute as hash joins); the
// rowid columns of each result row form a witness. A foreign key's orphans
// come from an anti-join of the child rows against the parent keys.
//
// DetectAll runs one loop over work units: a denial constraint or a foreign
// key, whole or split into probe-side row-range partitions that share one
// build. Each unit stages edges into a private EdgeBuffer; one thread
// flushes the buffers in unit order, more threads merge them
// deterministically with ConflictHypergraph::BulkLoad (see detector.cc).
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
  /// Detection worker threads for DetectAll: constraints — and their
  /// probe-side partitions (large denial constraints) or child partitions
  /// (large FKs) — fan out across this many workers, each staging edges
  /// into a private EdgeBuffer; the buffers are merged deterministically
  /// with ConflictHypergraph::BulkLoad, so the resulting graph — edges, ids
  /// and provenance — is identical for every thread count > 1. The serial
  /// run (1, or 0 resolving to one hardware thread) produces the same
  /// edges and provenance but numbers edge ids in constraint/discovery
  /// order rather than BulkLoad's sorted order.
  /// 0 means "use all hardware threads" (ResolveThreadCount).
  /// Service callers: set service::ServiceOptions::threads; the
  /// QueryService constructor copies it into this field of
  /// ServiceOptions::detect.
  size_t num_threads = 1;

  /// Minimum probe-side live rows of a denial constraint (or child rows of
  /// a foreign key) per row-range partition: when num_threads > 1 and the
  /// probe side exceeds this, the unit is split into contiguous
  /// partitions of the probe-side scan. The build sides are scanned and
  /// hash-built ONCE per constraint (by the first worker
  /// to arrive, under a once-flag) and probed read-only by every
  /// partition, so a single hot constraint parallelizes without
  /// duplicating build work. Must be >= 1 (Validate); use SIZE_MAX to
  /// disable probe partitioning.
  size_t partition_rows = 8192;

  /// Rejects nonsensical values with InvalidArgument instead of a silent
  /// fallback: zero partition_rows and absurd thread counts
  /// (> kMaxThreads; 0 means "all hardware threads"). Checked by every
  /// DetectAll run.
  Status Validate() const;

  /// Upper bound Validate() accepts for num_threads — far above any real
  /// machine; catches garbage (e.g. size_t underflow) early.
  static constexpr size_t kMaxThreads = 4096;
};

/// How detection evaluates a denial constraint: a left-deep join
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
  /// Probe-side partitions executed for denial constraints that were
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

  /// Detects violations of all constraints into a fresh hypergraph. Foreign
  /// keys receive constraint indexes following the denial constraints'.
  /// A restricted foreign key's orphans become unary hyperedges: the
  /// parent relation is immutable across repairs, so an orphan can never
  /// regain a parent. With options.num_threads > 1 the constraints (and
  /// probe-side partitions of large ones) are detected concurrently into
  /// private EdgeBuffers and merged with ConflictHypergraph::BulkLoad; the
  /// result is set-equal to the serial run (same canonical edges and
  /// provenance; edge ids follow BulkLoad's sorted order instead of the
  /// serial insertion order) and id-identical across all parallel runs.
  Result<ConflictHypergraph> DetectAll(
      const std::vector<DenialConstraint>& constraints,
      const std::vector<ForeignKeyConstraint>& foreign_keys = {});

  const DetectStats& stats() const { return stats_; }

 private:
  // Lazily-built shared read-only state of one constraint's units (the
  // columnar scans plus the hash-join build tables); defined in
  // detector.cc, built under a once-flag by the first unit's worker.
  struct GenericShared;
  struct FkShared;

  /// One probe-side row-range partition of a denial constraint (the whole
  /// constraint when num_partitions is 1): ensures `shared` is built
  /// (first caller wins, under its once-flag), then probes rows
  /// [partition * n / num_partitions, ...) of the probe input against the
  /// shared build state. Const (catalog and options are read-only), so
  /// workers run units concurrently, each with its own buffer and stats.
  Status DetectGenericPartitionInto(const DenialConstraint& constraint,
                                    uint32_t constraint_index,
                                    GenericShared* shared, size_t partition,
                                    size_t num_partitions, EdgeBuffer* out,
                                    DetectStats* stats) const;
  /// One child-row partition of a foreign key's orphan anti-join, probing
  /// the shared parent build state.
  Status DetectForeignKeyPartitionInto(const ForeignKeyConstraint& fk,
                                       uint32_t constraint_index,
                                       FkShared* shared, size_t partition,
                                       size_t num_partitions,
                                       EdgeBuffer* out,
                                       DetectStats* stats) const;

  const Catalog& catalog_;
  DetectOptions options_;
  DetectStats stats_;
};

}  // namespace hippo
