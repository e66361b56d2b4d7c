// The conflict hypergraph: the compact representation of all integrity
// violations that Hippo keeps in main memory.
//
// Vertices are the tuples of the database (identified by RowId); a hyperedge
// connects the tuples that jointly violate one integrity constraint. The
// hypergraph has polynomial size in the data, which is what gives Hippo its
// polynomial data complexity: repairs are exactly the maximal independent
// sets, and the prover answers per-tuple questions against the hypergraph
// without ever materializing a repair.
//
// Storage is partitioned behind shared_ptr for copy-on-write epoch
// publication (DESIGN.md §5): the edge store is split into fixed-size
// chunks (edge id = chunk ordinal × kChunkSlots + slot, so ids are
// unchanged by partitioning), and the incident index and canonical dedup
// map are hash-sharded. Share() hands out a graph that shares every
// partition and marks both sides copy-on-write; the next mutation clones
// only the touched partitions, so a snapshot costs O(#partitions) to take
// and a small commit dirties O(edges touched) storage instead of the whole
// graph. Share() is a write on the source (it requires exclusion from
// concurrent readers and mutators, like DML); the frozen copy is then safe
// for any number of readers.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/table.h"

namespace hippo {

/// A set of vertices, used for independence checks.
using VertexSet = std::unordered_set<RowId, RowIdHasher>;

/// \brief Append-only staging area for hyperedges built off the graph.
///
/// Conflict detection gives each work unit (a constraint, or one
/// probe-side partition of a large one) a private EdgeBuffer, so workers
/// never touch the shared graph; ConflictHypergraph::BulkLoad merges the
/// buffers afterwards. Vertices are canonicalized (sorted, deduplicated)
/// at Add time, exactly as ConflictHypergraph::AddEdge would, so merging
/// is a plain sort over canonical vertex sets.
class EdgeBuffer {
 public:
  struct StagedEdge {
    std::vector<RowId> vertices;  ///< canonical: sorted, deduplicated
    uint32_t constraint_index = 0;

    bool operator<(const StagedEdge& o) const {
      return vertices != o.vertices ? vertices < o.vertices
                                    : constraint_index < o.constraint_index;
    }
  };

  /// Stages an edge (same canonicalization as ConflictHypergraph::AddEdge;
  /// duplicates are kept and collapse at BulkLoad time).
  void Add(std::vector<RowId> vertices, uint32_t constraint_index);

  const std::vector<StagedEdge>& entries() const { return entries_; }
  /// Mutable access for consumers that move the staged edges out
  /// (ConflictHypergraph::BulkLoad, the serial ConflictDetector::DetectAll).
  std::vector<StagedEdge>& mutable_entries() { return entries_; }
  size_t NumEntries() const { return entries_.size(); }

 private:
  std::vector<StagedEdge> entries_;
};

class ConflictHypergraph {
 public:
  using EdgeId = uint32_t;

  ConflictHypergraph() = default;
  // Plain copying is deleted on purpose: a structural-sharing copy must
  // mark the source's copy-on-write flags (a write), which a const& copy
  // constructor would hide from callers and from the thread-safety
  // contract. Use Share() (explicitly non-const, like Catalog::Share) or
  // DeepCopy().
  HIPPO_DISALLOW_COPY(ConflictHypergraph);
  ConflictHypergraph(ConflictHypergraph&&) = default;
  ConflictHypergraph& operator=(ConflictHypergraph&&) = default;

  /// Structurally shared copy (copy-on-write): the returned graph points at
  /// the same immutable partitions, and every partition of *both* graphs is
  /// marked shared so the next mutation on either side clones only the
  /// touched partition. O(#partitions); value semantics are preserved.
  /// Non-const because sharing writes the source's COW marks — it requires
  /// the same exclusion from concurrent readers and mutators as any other
  /// write (the commit path provides it). This is how service::Snapshot
  /// freezes an epoch; the frozen copy is then safe for any number of
  /// concurrent readers.
  ConflictHypergraph Share();

  /// A fully materialized private copy sharing nothing with `this` — the
  /// pre-COW publication behavior, kept as the baseline for the COW
  /// differential tests and bench_f10_snapshot.
  ConflictHypergraph DeepCopy() const;

  /// Adds an edge; vertices are deduplicated and canonically sorted, and
  /// duplicate edges (same vertex set) are merged. `constraint_index`
  /// records provenance. Returns the edge id (existing one on merge; a
  /// previously removed edge with the same vertex set is revived in place).
  EdgeId AddEdge(std::vector<RowId> vertices, uint32_t constraint_index);

  /// Merges staged buffers into the graph deterministically: the entries of
  /// all buffers are sorted by (canonical vertex set, constraint index) and
  /// inserted in that order. Edge ids and provenance therefore depend only
  /// on the staged edge multiset — never on how detection was decomposed
  /// into threads or partitions. Duplicate vertex sets collapse onto the
  /// smallest producing constraint index (the same min-provenance invariant
  /// AddEdge maintains for live merges). Returns the number of staged
  /// entries consumed (pre-dedup, mirroring one AddEdge call per entry).
  size_t BulkLoad(std::vector<EdgeBuffer> buffers);

  /// Removes an edge (no-op when already removed). The slot stays reserved
  /// so other edge ids remain stable; incident lists are scrubbed. Used by
  /// incremental maintenance when a participating tuple is deleted.
  void RemoveEdge(EdgeId e);

  /// Removes every edge incident to `v` (the tuple left the instance).
  /// Returns the number of edges removed.
  size_t RemoveIncidentEdges(RowId v);

  /// Number of live edges (the semantic size of the hypergraph).
  size_t NumEdges() const { return num_live_edges_; }
  /// Number of physical edge slots; iterate [0, NumEdgeSlots()) and filter
  /// with EdgeAlive() to visit the live edges.
  size_t NumEdgeSlots() const { return num_edge_slots_; }
  bool EdgeAlive(EdgeId e) const {
    return chunks_[e >> kChunkShift]->alive[e & kChunkMask];
  }
  const std::vector<RowId>& edge(EdgeId e) const {
    return chunks_[e >> kChunkShift]->vertices[e & kChunkMask];
  }
  uint32_t edge_constraint(EdgeId e) const {
    return chunks_[e >> kChunkShift]->constraint[e & kChunkMask];
  }

  /// Edges incident to a vertex (empty for conflict-free tuples).
  const std::vector<EdgeId>& IncidentEdges(RowId v) const;

  /// True if the tuple participates in at least one violation.
  bool IsConflicting(RowId v) const { return !IncidentEdges(v).empty(); }

  /// Number of distinct vertices that appear in some edge.
  size_t NumConflictingVertices() const { return num_conflicting_; }

  /// Number of distinct vertices of table `table_id` that appear in some
  /// live edge. O(1): maintained with the incident index, so the router's
  /// "does any conflict touch these tables" check costs O(tables).
  size_t NumConflictingVertices(uint32_t table_id) const {
    return table_id < conflicting_by_table_.size()
               ? conflicting_by_table_[table_id]
               : 0;
  }

  /// The conflicting vertices (unordered).
  std::vector<RowId> ConflictingVertices() const;

  /// True if every vertex of edge `e` is contained in `set`.
  bool EdgeInside(EdgeId e, const VertexSet& set) const;

  /// True if `set` contains some full hyperedge (i.e. is NOT independent).
  /// Cost: sum of degrees of the members.
  bool ContainsFullEdge(const VertexSet& set) const;

  /// Maximum vertex degree (for stats / ablations).
  size_t MaxDegree() const;

  std::string StatsString() const;

  /// Graphviz rendering (vertices labelled by RowId, one colour component
  /// per constraint index) — used by the `hippo_check` conflict reporter.
  std::string ToDot(size_t max_edges = 500) const;

  /// Canonical (sorted) list of live edges with their constraint indexes —
  /// used by differential tests to compare hypergraphs structurally.
  std::vector<std::pair<std::vector<RowId>, uint32_t>> CanonicalEdges() const;

  /// Rough resident bytes of the graph (all partitions).
  size_t ApproxBytes() const;

  /// Adds the bytes of every partition not already in `seen` (keyed by
  /// partition object identity) to `*bytes`, inserting as it goes — the
  /// structural-sharing-aware footprint used by the snapshot memory
  /// accounting.
  void AccumulateApproxBytes(std::unordered_set<const void*>* seen,
                             size_t* bytes) const;

  /// Identity of every live partition (edge chunks, incident shards,
  /// canonical shards) — lets tests assert that untouched partitions are
  /// pointer-shared across epochs.
  std::vector<const void*> PartitionPointers() const;

 private:
  // Partition geometry. Chunks keep edge ids identical to the unpartitioned
  // representation (id = chunk × kChunkSlots + slot, assigned in insertion
  // order); shard counts bound the cloned fraction of the incident/dedup
  // maps per mutated vertex to ~1/kIncidentShards of the graph.
  static constexpr size_t kChunkShift = 8;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkShift;  // 256
  static constexpr EdgeId kChunkMask = kChunkSlots - 1;
  static constexpr size_t kIncidentShards = 64;
  static constexpr size_t kCanonicalShards = 64;

  /// A fixed-size run of edge slots (vertex sets, provenance, tombstones).
  struct EdgeChunk {
    std::vector<std::vector<RowId>> vertices;
    std::vector<uint32_t> constraint;
    std::vector<bool> alive;
  };

  /// One hash shard of the vertex → incident-edge-ids index.
  struct IncidentShard {
    std::unordered_map<RowId, std::vector<EdgeId>, RowIdHasher> lists;
  };

  /// One hash shard of the canonical-vertex-set → edge id dedup map (live
  /// and tombstoned; a tombstoned entry is revived when the same edge
  /// reappears). Write-path only — readers never consult it.
  struct CanonicalShard {
    std::unordered_map<std::string, EdgeId> ids;
  };

  static size_t IncidentShardOf(RowId v) {
    return RowIdHasher()(v) & (kIncidentShards - 1);
  }
  static size_t CanonicalShardOf(const std::string& key) {
    return std::hash<std::string>()(key) & (kCanonicalShards - 1);
  }

  /// Copy-on-write accessors: clone the partition iff it is marked shared.
  EdgeChunk* MutableChunk(size_t ci);
  IncidentShard* MutableIncidentShard(size_t si);
  CanonicalShard* MutableCanonicalShard(size_t si);

  void AddIncident(RowId v, EdgeId e);
  void RemoveIncident(RowId v, EdgeId e);

  std::vector<std::shared_ptr<EdgeChunk>> chunks_;
  std::array<std::shared_ptr<IncidentShard>, kIncidentShards> incident_{};
  std::array<std::shared_ptr<CanonicalShard>, kCanonicalShards> canonical_{};

  /// Per-partition copy-on-write marks: true when the partition may also be
  /// referenced by another graph object (set on both sides by Share()).
  std::vector<bool> chunk_shared_;
  std::array<bool, kIncidentShards> incident_shared_{};
  std::array<bool, kCanonicalShards> canonical_shared_{};

  size_t num_edge_slots_ = 0;
  size_t num_live_edges_ = 0;
  size_t num_conflicting_ = 0;  ///< vertices with a nonempty incident list
  /// num_conflicting_ split by RowId::table (index = table id).
  std::vector<size_t> conflicting_by_table_;
};

}  // namespace hippo
