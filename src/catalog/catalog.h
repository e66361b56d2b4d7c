// The catalog: named tables of the database instance.
//
// Table slots are held behind shared_ptr with copy-on-write semantics so an
// epoch snapshot (service::Snapshot) can share every untouched table with
// the live catalog instead of deep-copying the whole instance: Share()
// publishes a structurally shared copy in O(#tables), and the first mutation
// of a table after a Share() copies just that table's header
// (MutableTable), which itself shares every row chunk and index shard until
// a write touches them (see storage/table.h). Table ids and RowIds are
// preserved by both Share() and Clone(), so a conflict hypergraph built
// against one copy remains valid against the other.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace hippo {

/// \brief Owns all base tables; names are case-insensitive.
class Catalog {
 public:
  Catalog() = default;
  HIPPO_DISALLOW_COPY(Catalog);
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Deep copy of the whole instance: every table (schema, rows, tombstones,
  /// row index) is duplicated, preserving table ids and RowIds exactly, and
  /// the copy shares no partition with the source. O(database); kept as the
  /// baseline the COW differential tests and bench_f10_snapshot compare
  /// Share() against.
  Catalog Clone() const;

  /// Structurally shared copy: the returned catalog points at the same
  /// immutable Table objects, and every slot of *both* catalogs is marked
  /// shared so the next mutation through MutableTable()/GetTable() copies
  /// only the touched table, itself partition-sharing (copy-on-write).
  /// O(#tables). Requires exclusion from concurrent mutators, exactly like
  /// Clone(); the returned copy is meant to be frozen (service::Snapshot
  /// never mutates it).
  Catalog Share();

  /// Creates a table; AlreadyExists if the name is taken. Re-creating a
  /// dropped name allocates a fresh table id — slots are never reused,
  /// since table ids are RowId components.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Unregisters a table by name. The storage slot is retained so existing
  /// table ids (and RowIds) stay valid, but the name no longer resolves.
  /// NotFound if absent. Constraint-reference checks are the caller's job
  /// (Database::Execute refuses to drop constrained tables).
  Status DropTable(const std::string& name);

  /// NotFound if absent. The non-const overload is the copy-on-write
  /// mutation path: it unshares the slot first (see MutableTable).
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  /// Table by ordinal id (as stored in RowId::table). The non-const
  /// overload unshares the slot (copy-on-write) before handing it out.
  const Table& table(uint32_t id) const { return *slots_[id].table; }
  Table& table(uint32_t id) { return MutableTable(id); }

  /// Copy-on-write accessor: when the slot is shared with a snapshot, the
  /// table is copied (O(#chunks + #shards), sharing every partition) and
  /// the private copy returned; otherwise the existing object is returned
  /// unchanged. The pointer stays valid until the next Share() of this
  /// catalog.
  Table& MutableTable(uint32_t id);

  /// The shared slot itself — exposes structural identity so tests and the
  /// memory accounting can check that untouched tables are pointer-equal
  /// across epochs.
  std::shared_ptr<const Table> TableRef(uint32_t id) const {
    return slots_[id].table;
  }

  size_t NumTables() const { return slots_.size(); }

  /// Total number of rows across all tables.
  size_t TotalRows() const;

  /// Fetches the row behind a RowId.
  const Row& RowOf(RowId rid) const {
    return slots_[rid.table].table->row(rid.row);
  }

  std::vector<std::string> TableNames() const;

  /// Rough resident bytes of the whole instance (sum of Table::ApproxBytes).
  size_t ApproxBytes() const;

  /// Adds the bytes of every table header, row chunk, index shard and
  /// columnar view not already in `seen` (keyed by object identity) to
  /// `*bytes`, inserting as it goes. Accumulating several snapshots against
  /// one `seen` set yields their true combined footprint under structural
  /// sharing.
  void AccumulateApproxBytes(std::unordered_set<const void*>* seen,
                             size_t* bytes) const;

  /// Inserts the identity of every piece of table storage that
  /// AccumulateApproxBytes counts into `seen`.
  void CollectStorageIdentity(std::unordered_set<const void*>* seen) const;

 private:
  struct Slot {
    std::shared_ptr<Table> table;
    /// True when `table` may also be referenced by a Share()d copy; the
    /// next mutation must clone (copy-on-write). Never consulted on the
    /// frozen side of a Share().
    bool shared = false;
  };

  std::vector<Slot> slots_;
  std::unordered_map<std::string, uint32_t> by_name_;  // lower-cased name
};

}  // namespace hippo
