// Materializing executor for bound logical plans.
//
// Every operator materializes its output (the plans in Hippo's workloads are
// shallow and the CQA machinery needs materialized candidate sets anyway).
// Joins execute as hash joins when the condition contains equi-join
// conjuncts, otherwise as nested loops.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"
#include "storage/column_batch.h"
#include "types/value.h"

namespace hippo {

/// \brief A materialized query result.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;

  size_t NumRows() const { return rows.size(); }

  /// Linear scan (test helper).
  bool Contains(const Row& row) const;

  /// Sorts rows under the Value total order (deterministic comparisons).
  void SortRows();

  /// Tabular rendering (up to `max_rows` rows).
  std::string ToString(size_t max_rows = 50) const;
};

/// \brief Restricts scans to a subset of each table's rows.
///
/// Used to evaluate queries over repairs and over the "core" (conflict-free
/// part) of the database without copying tables. Tables without an entry are
/// fully visible.
class RowMask {
 public:
  /// `allowed[i]` says whether row i of `table_id` is visible.
  void SetAllowed(uint32_t table_id, std::vector<bool> allowed) {
    allowed_[table_id] = std::move(allowed);
  }

  bool Allows(RowId rid) const {
    auto it = allowed_.find(rid.table);
    if (it == allowed_.end()) return true;
    return rid.row < it->second.size() && it->second[rid.row];
  }

  bool HasEntry(uint32_t table_id) const { return allowed_.count(table_id); }

 private:
  std::unordered_map<uint32_t, std::vector<bool>> allowed_;
};

/// Intra-operator parallelism knobs for Execute (see executor.cc): with
/// more than one thread, filter masks, computed projections, and join and
/// anti-join probes split their input into contiguous row-range partitions
/// evaluated concurrently and concatenated in partition order, so the
/// output — rows AND row order — is bit-identical to the serial run. Scans,
/// column-reference projections, products, hash builds, dedup, set
/// operations, aggregation, and sort stay serial.
struct ExecParallel {
  /// 1 = serial (default); 0 = one per hardware thread
  /// (ResolveThreadCount).
  size_t num_threads = 1;

  /// Minimum input rows of an operator per partition: smaller inputs run
  /// serially so tiny operators don't pay thread spawn overhead.
  size_t min_partition_rows = 4096;
};

/// Execution environment: the catalog, an optional row mask, and the
/// intra-operator parallelism knobs.
struct ExecContext {
  ExecContext() = default;
  /// The ubiquitous two-field shape (`ExecContext ctx{&catalog, nullptr}`)
  /// predates the parallel knobs; this constructor keeps it valid (and
  /// -Wmissing-field-initializers quiet) with serial defaults.
  ExecContext(const Catalog* catalog_in, const RowMask* mask_in)
      : catalog(catalog_in), mask(mask_in) {}

  const Catalog* catalog = nullptr;
  const RowMask* mask = nullptr;
  ExecParallel parallel;

  /// Optional trace sink: when set, Execute wraps every operator in a
  /// child span named by NodeLabel() and records its output cardinality.
  /// Spans are per-operator, never per-row, so tracing cost scales with
  /// plan size; null (the default) costs one branch per operator.
  /// Tracing never changes results — rows and order are bit-identical
  /// either way (tests/trace_differential_test.cc).
  obs::TraceSpan* trace = nullptr;
};

/// Executes a bound plan to completion on the vectorized columnar engine
/// (typed column vectors, selection-vector filters, index-tuple joins over
/// Table's lazily-materialized columnar view). With
/// ctx.parallel.num_threads > 1 the result is still bit-identical (rows and
/// order) to the serial run.
Result<ResultSet> Execute(const PlanNode& plan, const ExecContext& ctx);

/// Number of row-range partitions an operator over `rows` input rows
/// should split into under `parallel`: 1 unless parallelism is enabled AND
/// every partition gets at least min_partition_rows.
size_t ExecPartitionsFor(size_t rows, const ExecParallel& parallel);

/// Zero-copy columnar scan of a table: shares the table's memoized
/// columnar view (plus its rowid column when `emit_rowid`) and selects the
/// live rows allowed by `mask` (nullptr = all live rows). The batch's
/// physical index IS the RowId row. Shared by the executor's Scan and the
/// detection probes.
ColumnBatch ScanTableBatch(const Table& table, bool emit_rowid,
                           const RowMask* mask);

}  // namespace hippo
