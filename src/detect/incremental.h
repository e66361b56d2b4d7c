// Incremental maintenance of the conflict hypergraph under updates.
//
// The paper's second motivating scenario is "a long-running activity where
// consistency can be violated only temporarily and future updates will
// restore it" — a setting where the database keeps changing and re-running
// full conflict detection after every statement would dominate the cost of
// answering queries. Denial constraints are anti-monotone (removing a tuple
// never creates a violation), so the hypergraph can be maintained exactly:
//
//   * INSERT t:  only violations *involving t* can appear. They are found by
//     pinning one constraint atom to t and evaluating the rest:
//       - unary constraints: evaluate the condition on t directly;
//       - binary constraints whose condition contains cross-atom equalities
//         (FDs, exclusion constraints, most denial rules): probe the
//         partner table's key index on the equated columns, then check the
//         residual condition — O(partners) per insert;
//       - other constraints: nested-loop over the remaining atoms
//         (polynomial fallback, mirrors the full detector's semantics).
//   * DELETE t:  every edge incident to t vanishes, and no new denial
//     violations can appear.
//   * Restricted foreign keys are the one non-anti-monotone case: deleting
//     a parent tuple orphans its children (new unary edges) and inserting a
//     parent can cure orphans (edge removal). Both transitions are decided
//     by probing the parent and child tables' key indexes for live rows.
//
// The maintainer owns no index. The key indexes it probes live in the
// tables (Table::DeclareKeyIndex), under the tables' copy-on-write
// partitioning, so snapshots and forks inherit them in O(#shards) and
// building a maintainer (Make) is O(constraints). KeyIndexesFor names the
// column lists; Database declares them when it adds a constraint and
// releases them when it drops one. Partners are visited in ascending slot
// order, a function of the table's contents alone, so the ids of edges the
// maintainer adds never depend on the history of the indexes.
//
// The maintained graph is structurally identical to a fresh run of
// ConflictDetector::DetectAll (differential-tested in
// tests/incremental_test.cc), with stable edge ids for unchanged conflicts.
#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "hypergraph/hypergraph.h"

namespace hippo {

struct IncrementalStats {
  size_t inserts = 0;
  size_t deletes = 0;
  size_t edges_added = 0;
  size_t edges_removed = 0;
  /// Live key-index partners examined by the binary-equi fast path.
  size_t fast_path_probes = 0;
  /// Atom assignments evaluated by the nested-loop fallback.
  size_t fallback_rows = 0;
};

/// \brief Maintains a ConflictHypergraph under single-tuple insert/delete.
///
/// Non-owning: the catalog, constraint lists, and graph must outlive the
/// detector, and the constraint lists must not change while it is in use
/// (Database rebuilds the detector whenever a constraint is added or
/// dropped).
///
/// Replay contract (service commit pipeline): because OnInsert/OnDelete
/// depend only on the graph/instance state they are applied to — not on
/// wall time or on which thread applies them — re-executing the same DML
/// sequence against a re-detected fork of the instance converges to the
/// same edges and provenance as maintaining the original. That is what
/// makes the pipeline's async-round replay sound (DESIGN.md §5).
class IncrementalDetector {
 public:
  /// A key index the maintainer probes: a column list of one table.
  struct KeyIndexSpec {
    uint32_t table = 0;
    std::vector<size_t> columns;
  };

  /// The key indexes that maintaining `dc` probes: each side's equated
  /// columns of a binary equi-constraint (none for other constraints).
  static std::vector<KeyIndexSpec> KeyIndexesFor(const DenialConstraint& dc);
  /// The key indexes that maintaining `fk` probes: its parent and child
  /// columns.
  static std::vector<KeyIndexSpec> KeyIndexesFor(
      const ForeignKeyConstraint& fk);

  /// Attaches a maintainer to `graph`, which must be the conflict
  /// hypergraph of the catalog's current instance. O(constraints): reads
  /// no row. Fails when a table lacks a key index KeyIndexesFor names.
  /// Constraint indexes follow DetectAll's convention: denial constraints
  /// first, then foreign keys.
  static Result<std::unique_ptr<IncrementalDetector>> Make(
      const Catalog& catalog,
      const std::vector<DenialConstraint>& constraints,
      const std::vector<ForeignKeyConstraint>& foreign_keys,
      ConflictHypergraph* graph);

  /// Accounts for a newly inserted (or resurrected) live row.
  Status OnInsert(RowId rid);

  /// Accounts for a just-tombstoned row (call after Table::Delete).
  Status OnDelete(RowId rid);

  const IncrementalStats& stats() const { return stats_; }

 private:
  /// A binary constraint with cross-atom equality conjuncts: partner lookup
  /// is a key index probe on the equated columns.
  struct BinaryEqui {
    uint32_t constraint_index = 0;
    const DenialConstraint* dc = nullptr;
    std::vector<size_t> key_cols[2];  ///< per side, in matching pair order
    ExprPtr residual;  ///< over the combined schema; null means TRUE
  };

  /// Unary constraint: membership is decided by the tuple alone.
  struct Unary {
    uint32_t constraint_index = 0;
    const DenialConstraint* dc = nullptr;
  };

  /// Anything else: pin one atom, nested-loop the others.
  struct Fallback {
    uint32_t constraint_index = 0;
    const DenialConstraint* dc = nullptr;
  };

  struct ForeignKey {
    uint32_t constraint_index = 0;
    const ForeignKeyConstraint* fk = nullptr;
  };

  IncrementalDetector(const Catalog& catalog, ConflictHypergraph* graph)
      : catalog_(catalog), graph_(graph) {}

  /// Fills `be`'s key columns and residual when `dc` is a binary
  /// constraint with cross-atom equalities; false otherwise.
  static bool SplitBinaryEqui(const DenialConstraint& dc, BinaryEqui* be);

  /// True when some live parent row carries `key`.
  bool HasLiveParent(const ForeignKey& fk, const Row& key) const;

  /// True when `child` is a live orphan under `fk`: its key is NULL
  /// (permanent orphan) or has no live parent row.
  bool IsOrphanUnder(const ForeignKey& fk, RowId child) const;

  Status InsertUnary(const Unary& u, RowId rid);
  Status InsertBinaryEqui(const BinaryEqui& be, RowId rid);
  Status InsertFallback(const Fallback& fb, RowId rid);
  Status InsertFk(const ForeignKey& fk, RowId rid);
  Status DeleteFk(const ForeignKey& fk, RowId rid);

  /// Extracts the key values of `row` at `cols`; false when any is NULL.
  static bool ExtractKey(const Row& row, const std::vector<size_t>& cols,
                         Row* key);

  void AddEdgeCounted(std::vector<RowId> vertices, uint32_t constraint_index);

  const Catalog& catalog_;
  ConflictHypergraph* graph_;
  std::vector<Unary> unary_;
  std::vector<BinaryEqui> binary_;
  std::vector<Fallback> fallback_;
  std::vector<ForeignKey> fks_;
  IncrementalStats stats_;
};

}  // namespace hippo
