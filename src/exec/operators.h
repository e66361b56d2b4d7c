// Join, set-operation, and aggregation kernels shared by the executor and
// conflict detection.
//
// The join kernels are the shared-build classes BatchJoinChain /
// BatchAntiJoinProbe: they hash the build side(s) of ColumnBatch inputs
// once and then let any number of threads probe disjoint row ranges
// concurrently — the partition-aware probe path used by parallel conflict
// detection and the (serial or partitioned) executor. The set operations
// and aggregation are row kernels; the executor round-trips batches
// through them, so each has exactly one implementation.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/executor.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "storage/column_batch.h"

namespace hippo::exec {

/// Hash aggregation for an AggregateNode over a materialized input.
/// Groups appear in first-occurrence order; a global aggregate (no GROUP
/// BY) over an empty input yields one row (COUNT = 0, other aggregates
/// NULL), per SQL semantics.
Result<std::vector<Row>> AggregateRows(const AggregateNode& agg,
                                       const std::vector<Row>& input);

/// An equi-join condition over concat(left row, right row), split into
/// the left and right key column indexes of its column = column conjuncts
/// plus the residual of everything else (null when nothing is left).
struct JoinSplit {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  ExprPtr residual;
  bool HasEqui() const { return !left_keys.empty(); }
};

/// Splits `condition`, whose first `left_width` columns are the left side.
JoinSplit SplitCondition(const Expr& condition, size_t left_width);

/// Set operations (inputs need not be deduplicated; outputs are sets).
std::vector<Row> UnionRows(std::vector<Row> left,
                           const std::vector<Row>& right);
std::vector<Row> DifferenceRows(const std::vector<Row>& left,
                                const std::vector<Row>& right);
std::vector<Row> IntersectRows(const std::vector<Row>& left,
                               const std::vector<Row>& right);

/// Removes duplicate rows, preserving first occurrence order.
std::vector<Row> DedupRows(std::vector<Row> rows);

// ---------------------------------------------------------------------------
// Columnar (batch) kernels. They operate on logical row *indexes* into
// shared ColumnBatches: joins emit flat index tuples instead of materialized
// rows, anti-joins emit surviving left indexes (a selection narrowing), and
// key hashes are computed over column slices via ColumnVector::HashAt
// (== Value::Hash). Each is bit-identical to its row counterpart in the
// test oracle (tests/oracle/row_engine.h).
// ---------------------------------------------------------------------------

/// \brief Flat chained hash index over logical row numbers: a power-of-two
/// bucket-head array plus one `next` link and the cached hash per row.
///
/// The batch join, anti-join and dedup kernels each build one in three
/// flat allocations. Link() pushes a row onto the head of its bucket's
/// chain, so a build that links rows in *reverse* order walks every chain
/// in build-insertion order — the candidate order the row oracle's per-key
/// vectors keep. A chain may mix hashes: walkers compare HashOf() first.
class ChainedHashIndex {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// An empty index with room for rows [0, rows).
  explicit ChainedHashIndex(size_t rows = 0);

  /// Links `row` (< rows) under `hash`, ahead of the rows already linked
  /// in its bucket.
  void Link(uint32_t row, size_t hash) {
    size_t b = Bucket(hash);
    hashes_[row] = hash;
    next_[row] = heads_[b];
    heads_[b] = row;
  }
  /// First row of the chain `hash` falls into; kEnd when empty.
  uint32_t First(size_t hash) const { return heads_[Bucket(hash)]; }
  /// The row after `row` in its chain; kEnd at the end.
  uint32_t Next(uint32_t row) const { return next_[row]; }
  size_t HashOf(uint32_t row) const { return hashes_[row]; }

 private:
  /// Fibonacci hashing: the top bits of hash * 2^64/phi.
  size_t Bucket(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  std::vector<size_t> hashes_;
  unsigned shift_ = 63;
};

/// \brief A left-deep chain of hash/nested-loop joins over ColumnBatches
/// whose build sides are hashed once and probed read-only, by index tuple.
///
/// Level i joins the accumulated prefix (probe input + build sides of the
/// levels before it) against its build batch under `condition` (bound over
/// the concatenated schema; null = cartesian product). Probe(out) appends
/// one flat tuple of `tuple_arity()` logical indexes — (probe row, level-0
/// build row, ...) — per result, probe order outer, build-insertion order
/// inner (hash chains run in insertion order; other-hash and
/// equal-hash-different-key candidates are filtered out, which preserves
/// order), residual and final filters applied with Kleene semantics. That
/// is the order the row oracle's JoinChain emits materialized rows in, so
/// slice outputs concatenated in slice order equal a serial evaluation and
/// Materialize() gathers tuples into the rows the oracle produces.
class BatchJoinChain {
 public:
  struct LevelSpec {
    /// Build input. Not owned; must outlive the chain.
    const ColumnBatch* build = nullptr;
    /// Join condition over concat(prefix, build row); null for a product.
    const Expr* condition = nullptr;
  };

  BatchJoinChain(const ColumnBatch* probe, std::vector<LevelSpec> levels,
                 const Expr* final_filter);

  /// Logical indexes per output tuple: probe + one per level.
  size_t tuple_arity() const { return levels_.size() + 1; }
  /// Total output columns across all segments.
  size_t output_width() const { return offsets_.back(); }
  /// Segment 0 is the probe batch; segment s >= 1 is level s-1's build.
  const ColumnBatch& segment(size_t s) const {
    return s == 0 ? *probe_ : *levels_[s - 1].batch;
  }

  /// Evaluates probe rows [begin, end) through the chain, appending flat
  /// index tuples to `out`. Const and thread-safe (shared build tables).
  void Probe(size_t begin, size_t end, std::vector<uint32_t>* out) const;

  /// Gathers index tuples into a materialized output batch.
  ColumnBatch Materialize(const std::vector<uint32_t>& tuples) const;

 private:
  struct Level {
    const ColumnBatch* batch;
    bool has_equi = false;
    std::vector<int> left_keys;   ///< virtual indexes into the prefix
    std::vector<int> right_keys;  ///< column indexes into `batch`
    ExprPtr residual;
    const Expr* condition;
    /// Key-hash chains over the logical build rows with a non-NULL key.
    ChainedHashIndex build;
  };

  Value TupleValue(const uint32_t* idxs, size_t col) const;
  bool HashLeftKey(const uint32_t* idxs, const Level& level,
                   size_t* hash) const;
  bool LeftKeyEquals(const uint32_t* idxs, const Level& level,
                     uint32_t build_row) const;
  void Descend(size_t level, uint32_t* idxs, std::vector<uint32_t>* out) const;

  const ColumnBatch* probe_;
  std::vector<Level> levels_;
  const Expr* final_filter_;
  /// offsets_[s] = first virtual column of segment s; back() = total width.
  std::vector<size_t> offsets_;
};

/// \brief Anti-join with a shared build side: left logical indexes with NO
/// right partner satisfying `condition`, emitted in left order. Probe() is
/// const and thread-safe, so disjoint slices of the left input can run
/// concurrently.
class BatchAntiJoinProbe {
 public:
  /// Inputs are not owned and must outlive the probe.
  BatchAntiJoinProbe(const ColumnBatch* left, const ColumnBatch* right,
                     const Expr* condition);

  /// Appends every surviving left logical index in [begin, end) to `out`.
  void Probe(size_t begin, size_t end, std::vector<uint32_t>* out) const;

 private:
  bool PairPredicate(const Expr& expr, uint32_t left_row,
                     uint32_t right_row) const;

  const ColumnBatch* left_;
  const ColumnBatch* right_;
  const Expr* condition_;
  bool has_equi_ = false;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  ExprPtr residual_;
  ChainedHashIndex build_;
};

/// Removes duplicate logical rows of `batch` (first occurrence wins, same
/// order DedupRows produces) by narrowing the selection.
ColumnBatch DedupBatch(const ColumnBatch& batch);

}  // namespace hippo::exec
