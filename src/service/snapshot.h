// service::Snapshot — an immutable view of the database at one epoch.
//
// A snapshot bundles the instance (catalog) with the conflict hypergraph
// that matches it exactly, stamped with the epoch at which the pair was
// published. Publication is copy-on-write (DESIGN.md §5): the catalog copy
// shares every table the epoch did not touch (Catalog::Share) and the
// hypergraph copy shares every untouched partition, so capturing costs
// O(#tables + #partitions) pointer copies instead of a deep copy of the
// database, and the commit that follows clones only what it mutates.
// Because table ids and RowIds are preserved, the shared hypergraph's
// vertices remain valid against the shared catalog. A snapshot IS a
// hippo::ReadView over the state it owns, so every read a Database offers
// runs against it with no locks and no coordination (the snapshot never
// changes after construction), through the same code as Database's reads.
//
// Snapshots are handed out as shared_ptr<const Snapshot> (RCU-style): the
// publisher swaps in a new snapshot for the next epoch while readers holding
// an older epoch keep it alive for as long as their queries run. Readers
// therefore never block writers and writers never block readers; the only
// serialized section is the commit pipeline's apply+capture step itself
// (see QueryService).
//
// Capture is lineage-agnostic: during an asynchronous bulk/DDL round the
// service captures epochs from the still-serving master while the fork
// re-detects in the background, and the post-swap epoch from the fork.
// Either way the tables a snapshot shares stay alive through the
// shared_ptr slots in its own catalog copy — swapping (and destroying)
// the master Database never invalidates a published snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "db/read_view.h"
#include "hypergraph/hypergraph.h"

namespace hippo {
class Database;
}  // namespace hippo

namespace hippo::service {

class Snapshot;
using SnapshotPtr = std::shared_ptr<const Snapshot>;

class Snapshot : public ReadView {
 private:
  /// Pass-key: makes the constructor unusable outside Capture while keeping
  /// it public for std::make_shared (single-allocation construction).
  struct PrivateTag {
    explicit PrivateTag() = default;
  };

 public:
  /// The ReadView base points at the members below, so a Snapshot is
  /// neither copyable nor movable.
  Snapshot(PrivateTag, uint64_t epoch, Catalog catalog,
           ConflictHypergraph graph,
           std::vector<DenialConstraint> constraints,
           std::vector<ForeignKeyConstraint> foreign_keys,
           bool optimizer_enabled)
      : ReadView(&frozen_catalog_, &frozen_graph_, &frozen_constraints_,
                 &frozen_foreign_keys_, optimizer_enabled, epoch),
        epoch_(epoch),
        frozen_catalog_(std::move(catalog)),
        frozen_graph_(std::move(graph)),
        frozen_constraints_(std::move(constraints)),
        frozen_foreign_keys_(std::move(foreign_keys)) {}
  HIPPO_DISALLOW_COPY(Snapshot);

  /// Captures the current state of `db` — instance, hypergraph, constraint
  /// set and optimizer flag — as an immutable snapshot stamped with
  /// `epoch`. Builds the conflict hypergraph first when the cache is cold
  /// (so capture never publishes a graphless view). The caller must hold
  /// the database's writer-side exclusion while capturing — nothing may
  /// mutate `db` between the graph read and the catalog share. Constraint
  /// DDL after capture does not reach the snapshot.
  static Result<SnapshotPtr> Capture(Database* db, uint64_t epoch);

  /// The epoch this snapshot was published at (monotonically increasing
  /// across the publishing QueryService's lifetime).
  uint64_t epoch() const { return epoch_; }

  // --- memory accounting ----------------------------------------------------

  /// Rough resident bytes of this snapshot counted in full (as if it shared
  /// nothing). O(database) — intended for end-of-run reporting, not the
  /// commit path.
  size_t ApproxBytes() const;

  /// Inserts the identity of every storage partition (table headers, row
  /// chunks, index shards and columnar views; hypergraph chunks/shards)
  /// into `seen` without computing sizes. Seeding `seen` with a predecessor
  /// epoch makes AccumulateApproxBytes report only the *marginal* bytes
  /// this snapshot allocated — the published cost of one copy-on-write
  /// commit.
  void CollectStorageIdentity(std::unordered_set<const void*>* seen) const;

  /// Adds the bytes of every storage partition not already in `seen`
  /// (inserting as it goes) and returns the added total. Cost is
  /// proportional to the *unshared* partitions only.
  size_t AccumulateApproxBytes(std::unordered_set<const void*>* seen) const;

 private:
  uint64_t epoch_;
  Catalog frozen_catalog_;
  ConflictHypergraph frozen_graph_;
  std::vector<DenialConstraint> frozen_constraints_;
  std::vector<ForeignKeyConstraint> frozen_foreign_keys_;
};

}  // namespace hippo::service
