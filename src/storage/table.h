// In-memory row-store table with set semantics and stable row identifiers.
//
// Hippo's repair theory is defined over *sets* of tuples: a repair is a
// maximal consistent subset of the instance, and the conflict hypergraph
// connects tuples (not physical duplicates). The table therefore enforces
// set semantics on insert: re-inserting an existing row is a silent no-op,
// so every fact R(t) corresponds to exactly one RowId.
//
// DELETE is implemented with tombstones: a deleted row keeps its slot (and
// therefore its RowId), scans skip it, and re-inserting the same values
// resurrects the original RowId. Stable RowIds are what make incremental
// maintenance of the conflict hypergraph under updates possible.
//
// Storage is partitioned behind shared_ptr for copy-on-write epoch
// publication (DESIGN.md §5), like ConflictHypergraph: row slots and their
// liveness bits live in fixed-size chunks (RowId.row = chunk ordinal ×
// kChunkSlots + slot, so partitioning never renumbers a row), and the
// full-row index is hash-sharded kIndexShards ways. Copying a Table shares
// every partition in O(#chunks + #shards); the first write to a partition
// that another Table may reference clones just that partition — the tail
// chunk and one shard for an insert, one chunk for a delete or resurrection.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "catalog/schema.h"
#include "common/hash.h"
#include "common/status.h"
#include "storage/column_batch.h"
#include "types/value.h"

namespace hippo {

/// Identifies a tuple in the database: (table ordinal in catalog, row index).
struct RowId {
  uint32_t table = 0;
  uint32_t row = 0;

  bool operator==(const RowId& o) const {
    return table == o.table && row == o.row;
  }
  bool operator!=(const RowId& o) const { return !(*this == o); }
  bool operator<(const RowId& o) const {
    return table != o.table ? table < o.table : row < o.row;
  }
  uint64_t Pack() const {
    return (static_cast<uint64_t>(table) << 32) | row;
  }
  std::string ToString() const {
    return "t" + std::to_string(table) + "#" + std::to_string(row);
  }
};

struct RowIdHasher {
  size_t operator()(const RowId& r) const { return Mix64(r.Pack()); }
};

/// \brief Immutable columnar image of a table's physical row slots.
///
/// One ColumnVector per schema column over slots [0, num_slots) — including
/// tombstoned slots, so the physical index of a cell IS its RowId row and
/// liveness stays a per-scan selection concern. `rowids` is an INT column
/// holding 0..num_slots-1 for plans that project the row id.
struct TableColumns {
  std::vector<ColumnVectorPtr> columns;
  ColumnVectorPtr rowids;
  size_t num_slots = 0;

  size_t ApproxBytes() const;
};

/// \brief A base relation: schema + rows, append-only with set semantics.
class Table {
 public:
  /// Partition geometry: rows live in chunks of kChunkSlots slots, the
  /// full-row index in kIndexShards hash shards. A one-row write clones
  /// O(kChunkSlots + rows / kIndexShards) storage.
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkShift;  // 1024
  static constexpr size_t kIndexShards = 64;

  Table(uint32_t id, std::string name, Schema schema)
      : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

  /// Structurally shared copy: both tables reference the same partitions,
  /// which are marked shared so the next write on either side clones only
  /// the partition it touches. O(#chunks + #shards). The copy also shares
  /// the memoized columnar view — both tables image the same slots. The
  /// marks are atomic, so copying a frozen snapshot's table is safe from
  /// any number of threads at once.
  Table(const Table& other);
  Table& operator=(const Table& other) = delete;

  /// A fully materialized private copy sharing no partition (and no
  /// columnar view) with `this` — the baseline Catalog::Clone builds on.
  std::shared_ptr<Table> DeepCopy() const;

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Number of physical row slots (live + tombstoned). Iterate [0, NumRows())
  /// and filter with IsLive() to visit the instance.
  size_t NumRows() const { return num_slots_; }
  /// Number of live (non-deleted) rows — the cardinality of the relation.
  size_t NumLiveRows() const { return num_live_; }
  const Row& row(size_t i) const {
    return chunks_[i >> kChunkShift]->rows[i & kChunkMask];
  }

  /// True when slot `i` holds a live row (false once deleted).
  bool IsLive(size_t i) const {
    return i < num_slots_ && chunks_[i >> kChunkShift]->live[i & kChunkMask];
  }

  /// Coerces `values` to the column types — the canonical stored form that
  /// Insert() writes and Find() probes with. Errors on arity mismatch or
  /// uncoercible values. Lets writers probe for set-semantics no-ops on a
  /// const (snapshot-shared) view before paying a copy-on-write clone.
  Result<Row> CoerceRow(const Row& values) const;

  /// Inserts a row after coercing each value to the column type.
  /// Returns the RowId of the (new, pre-existing, or resurrected) row and
  /// whether the live instance changed (true for new rows and for
  /// resurrections of tombstoned rows). Errors on arity mismatch or
  /// uncoercible values.
  Result<std::pair<RowId, bool>> Insert(const Row& values);

  /// Tombstones the row in slot `row_index`. Returns true when the row was
  /// live (i.e. the instance changed), false when already deleted or out of
  /// range. The slot and its RowId remain reserved.
  bool Delete(uint32_t row_index);

  /// Looks up the RowId of an exact *live* row, if present (O(1) expected).
  /// `values` is coerced to the column types first (the index stores rows in
  /// canonical form), so probing an INT column with 2.0 finds the row; an
  /// uncoercible or wrong-arity probe is simply a miss.
  std::optional<RowId> Find(const Row& values) const;

  /// Clears all rows (used by workload generators between configurations).
  void Clear();

  /// Columnar image of the physical slots, built lazily on first use and
  /// memoized until a write adds a slot (Insert of a NEW row) or Clear().
  /// Tombstone flips do NOT invalidate it — liveness is per-scan selection,
  /// not part of the image. Thread-safe on shared snapshots.
  std::shared_ptr<const TableColumns> columnar() const;

  /// Rough resident size of this table in bytes: rows (including string
  /// payloads, SSO-aware), tombstone bits, the index shards' cell arrays,
  /// and the memoized columnar view's buffers. Used by the per-snapshot
  /// memory accounting (Catalog::ApproxBytes, `.mem`).
  size_t ApproxBytes() const;

  /// Adds the bytes of every piece of storage not already in `seen` — the
  /// table header (keyed by `this`), each row chunk, each index shard, the
  /// columnar view (keyed by object identity) — to `*bytes`, inserting as
  /// it goes. Accumulating several snapshots against one `seen` set yields
  /// their true combined footprint under structural sharing.
  void AccumulateApproxBytes(std::unordered_set<const void*>* seen,
                             size_t* bytes) const;

  /// Inserts the identity of every piece of storage AccumulateApproxBytes
  /// counts into `seen`, without sizing anything.
  void CollectStorageIdentity(std::unordered_set<const void*>* seen) const;

  /// Identity of each row chunk, in chunk order — lets tests assert which
  /// chunks two tables share.
  std::vector<const void*> ChunkPointers() const;
  /// Identity of each index shard, in shard order (null for a shard no row
  /// has hashed to yet).
  std::vector<const void*> IndexShardPointers() const;

 private:
  static constexpr uint32_t kChunkMask = kChunkSlots - 1;
  /// The top bits of a row's index hash pick its shard.
  static constexpr unsigned kShardShift = 58;
  static_assert(kIndexShards == size_t{1} << (64 - kShardShift));

  /// Copy-on-write mark carried by every partition. Set (on the partition,
  /// so every Table referencing it sees it) when a Table copy starts sharing
  /// the partition, and never cleared: a marked partition is immutable and
  /// the next writer clones it. A clone starts unmarked.
  struct CowMark {
    CowMark() = default;
    CowMark(const CowMark&) {}
    CowMark& operator=(const CowMark&) = delete;
    bool IsSet() const { return set.load(std::memory_order_acquire); }
    void Set() const { set.store(true, std::memory_order_release); }
    mutable std::atomic<bool> set{false};
  };

  /// kChunkSlots consecutive row slots and their liveness bits (the last
  /// chunk may be partly filled).
  struct RowChunk {
    std::vector<Row> rows;
    std::vector<bool> live;
    CowMark shared;
  };

  /// One hash shard of the full-row index: open addressing with linear
  /// probing over a power-of-two cell array. A cell packs the row hash's
  /// low 32 bits (a tag that also picks the home cell) above slot + 1; 0
  /// is an empty cell. An entry holds the slot, not a copy of the row —
  /// equality is checked against the stored row. Entries are never removed
  /// (a tombstoned row keeps its entry so a re-insert resurrects the old
  /// RowId), so probing needs no deletion markers.
  struct IndexShard {
    std::vector<uint64_t> cells;
    size_t size = 0;
    CowMark shared;
  };

  static uint64_t IndexHash(const Row& row);

  /// Slot holding exactly `row` (live or tombstoned), if any; `hash` is
  /// IndexHash(row).
  std::optional<uint32_t> Lookup(const Row& row, uint64_t hash) const;
  void IndexInsert(uint64_t hash, uint32_t slot);

  /// Copy-on-write accessors: clone the partition iff it is marked shared.
  RowChunk* MutableChunk(size_t ci);
  IndexShard* MutableShard(size_t si);

  /// Marks every partition shared (the write side of a sharing copy).
  void MarkShared() const;

  std::shared_ptr<const TableColumns> MemoizedColumnar() const;
  void InvalidateColumnar();

  uint32_t id_;
  std::string name_;
  Schema schema_;
  std::vector<std::shared_ptr<RowChunk>> chunks_;
  // Full-row index enforcing set semantics and serving Find().
  std::array<std::shared_ptr<IndexShard>, kIndexShards> shards_{};
  size_t num_slots_ = 0;
  size_t num_live_ = 0;
  // Memoized columnar image; guarded because readers materialize it lazily
  // on const snapshot-shared tables from concurrent query threads.
  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<const TableColumns> columnar_;
};

}  // namespace hippo
