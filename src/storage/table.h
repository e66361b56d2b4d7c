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
// kChunkSlots + slot, so partitioning never renumbers a row), the
// full-row index is hash-sharded kIndexShards ways, and so is each declared
// key index (slots by the values of a column list, probed by the
// incremental conflict maintainer). Copying a Table shares every partition
// in O(#chunks + #shards); the first write to a partition that another
// Table may reference clones just that partition — the tail chunk, one
// full-row shard and one shard per key index for an insert, one chunk for
// a delete or resurrection.
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
  /// full-row index and each key index in kIndexShards hash shards. A
  /// one-row write clones O(kChunkSlots + rows / kIndexShards) storage per
  /// index.
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkShift;  // 1024
  static constexpr size_t kIndexShards = 64;

  Table(uint32_t id, std::string name, Schema schema)
      : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

  /// Structurally shared copy: both tables reference the same partitions
  /// (key index shards included), which are marked shared so the next write
  /// on either side clones only the partition it touches. O(#chunks +
  /// #shards). The copy also shares the memoized columnar view — both
  /// tables image the same slots. The marks are atomic, so copying a frozen
  /// snapshot's table is safe from any number of threads at once.
  Table(const Table& other);
  Table& operator=(const Table& other) = delete;

  /// A fully materialized private copy, key indexes included, sharing no
  /// partition (and no columnar view) with `this` — the baseline
  /// Catalog::Clone builds on.
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
  /// Declared key indexes stay declared, with no entries.
  void Clear();

  /// Declares a key index on the column list `columns` (schema positions,
  /// in key order). The first declaration builds it over every slot in
  /// O(rows); a repeated one only counts, and ReleaseKeyIndex drops the
  /// index with its last declaration. A slot enters the index when an
  /// insert creates it and never leaves: a tombstoned slot keeps its entry
  /// (probes skip it), so a resurrection writes no key shard. A row with a
  /// NULL at any of `columns` is never indexed.
  void DeclareKeyIndex(const std::vector<size_t>& columns);
  void ReleaseKeyIndex(const std::vector<size_t>& columns);
  bool HasKeyIndex(const std::vector<size_t>& columns) const;

  /// Calls `fn(slot)` for every live slot whose values at `columns` equal
  /// `key` (Value::operator==, so 5 matches 5.0), in ascending slot order,
  /// until `fn` returns false. `columns` must name a declared key index and
  /// `key` must hold no NULL. Costs O(slots ever inserted with this key).
  template <typename Fn>
  void ForEachKeyMatch(const std::vector<size_t>& columns, const Row& key,
                       Fn&& fn) const;

  /// Columnar image of the physical slots, built lazily on first use and
  /// memoized until a write adds a slot (Insert of a NEW row) or Clear().
  /// Tombstone flips do NOT invalidate it — liveness is per-scan selection,
  /// not part of the image. Thread-safe on shared snapshots.
  std::shared_ptr<const TableColumns> columnar() const;

  /// Rough resident size of this table in bytes: rows (including string
  /// payloads, SSO-aware), tombstone bits, the full-row and key index
  /// shards' arrays, and the memoized columnar view's buffers. Used by the
  /// per-snapshot memory accounting (Catalog::ApproxBytes, `.mem`).
  size_t ApproxBytes() const;

  /// Adds the bytes of every piece of storage not already in `seen` — the
  /// table header (keyed by `this`), each row chunk, each full-row and key
  /// index shard, the columnar view (keyed by object identity) — to
  /// `*bytes`, inserting as it goes. Accumulating several snapshots against
  /// one `seen` set yields their true combined footprint under structural
  /// sharing.
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
  /// Identity of each key index shard: declared indexes in declaration
  /// order, each in shard order (null for a shard no key has hashed to).
  std::vector<const void*> KeyIndexShardPointers() const;

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

  /// One hash shard of a key index. `cells` is open addressing over the
  /// shard's distinct keys, as in IndexShard, but a cell's low half names
  /// a key group (+ 1), so rows sharing a key occupy one cell and a probe
  /// for a neighbouring key never walks through them. A group threads its
  /// slots through `entries` in insertion order, which is ascending slot
  /// order: entries are appended only for new slots. Key equality is
  /// checked against the group's first slot's row.
  struct KeyShard {
    struct Group {
      uint32_t head = 0;  ///< first entry
      uint32_t tail = 0;  ///< last entry
    };
    struct Entry {
      uint32_t slot = 0;
      uint32_t next = 0;  ///< next entry of the group + 1; 0 ends it
    };
    std::vector<uint64_t> cells;
    std::vector<Group> groups;
    std::vector<Entry> entries;
    CowMark shared;
  };

  /// A declared key index: its column list, how many declarations hold
  /// it, and its shards.
  struct KeyIndex {
    std::vector<size_t> columns;
    size_t declarations = 0;
    std::array<std::shared_ptr<KeyShard>, kIndexShards> shards{};
  };

  static uint64_t IndexHash(const Row& row);

  /// Slot holding exactly `row` (live or tombstoned), if any; `hash` is
  /// IndexHash(row).
  std::optional<uint32_t> Lookup(const Row& row, uint64_t hash) const;
  void IndexInsert(uint64_t hash, uint32_t slot);

  /// Position of the key index on `columns` in key_indexes_ (its size
  /// when none is declared).
  size_t KeyIndexPosition(const std::vector<size_t>& columns) const;
  /// Position in `shard.cells` of the group whose first slot's values at
  /// `columns` equal `key`, or of the empty cell that ends the probe.
  /// `shard.cells` must not be empty.
  size_t FindKeyCell(const KeyShard& shard, uint32_t tag,
                     const std::vector<size_t>& columns,
                     const Row& key) const;
  /// First entry of `key`'s group in the key index on `columns` (which
  /// must be declared) and its shard; null when no slot carries `key`.
  const KeyShard* FindKeyGroup(const std::vector<size_t>& columns,
                               const Row& key, uint32_t* head) const;
  /// Appends `slot` to its key's group (a no-op for a NULL key).
  void KeyIndexInsert(KeyIndex* index, uint32_t slot);

  /// Copy-on-write accessors: clone the partition iff it is marked shared.
  RowChunk* MutableChunk(size_t ci);
  IndexShard* MutableShard(size_t si);
  KeyShard* MutableKeyShard(KeyIndex* index, size_t si);

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
  // Declared key indexes (few: one per column list a constraint probes).
  std::vector<KeyIndex> key_indexes_;
  size_t num_slots_ = 0;
  size_t num_live_ = 0;
  // Memoized columnar image; guarded because readers materialize it lazily
  // on const snapshot-shared tables from concurrent query threads.
  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<const TableColumns> columnar_;
};

template <typename Fn>
void Table::ForEachKeyMatch(const std::vector<size_t>& columns,
                            const Row& key, Fn&& fn) const {
  uint32_t entry = 0;
  const KeyShard* shard = FindKeyGroup(columns, key, &entry);
  if (shard == nullptr) return;
  for (uint32_t next = entry + 1; next != 0;) {
    const KeyShard::Entry& e = shard->entries[next - 1];
    if (IsLive(e.slot) && !fn(e.slot)) return;
    next = e.next;
  }
}

}  // namespace hippo
