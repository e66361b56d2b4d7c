// The row-at-a-time execution engine, kept as the reference the columnar
// engine (exec/executor.h, exec/operators.h) is tested against.
//
// It evaluates a bound plan over materialized std::vector<Row>s with the
// shared-build join kernels below. Production code never links it: it is
// built into the hippo_row_oracle library for the tests and benches only.
// Same semantics as Execute, including ExecContext::mask and the
// row-range partitioning of ExecContext::parallel (filter, project
// pre-dedup, join/anti-join probe, product); ExecContext::trace is ignored.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/executor.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"

namespace hippo::oracle {

/// Executes a bound plan row at a time. The output — rows AND order — is
/// what Execute returns for the same plan and context.
Result<std::vector<Row>> ExecuteRows(const PlanNode& plan,
                                     const ExecContext& ctx);

/// \brief A left-deep chain of hash/nested-loop joins whose build sides
/// are hashed once and probed read-only.
///
/// Level i joins the accumulated prefix (probe input + build sides of the
/// levels before it) against `build_rows` under `condition` (bound over
/// the concatenated schema; null condition = cartesian product). After
/// construction the chain is immutable: Probe() is const and thread-safe,
/// so disjoint slices of the probe input can be evaluated concurrently —
/// each partition pays zero build cost. Probe(out) appends result rows in
/// exactly the order the materializing executor produces for the same
/// left-deep plan (probe order outer, build-insertion order inner, level
/// by level), so slice outputs concatenated in slice order are
/// bit-identical to a serial evaluation.
class JoinChain {
 public:
  struct LevelSpec {
    /// Materialized build input. Not owned; must outlive the chain.
    const std::vector<Row>* build_rows = nullptr;
    /// Join condition over concat(prefix, build row); null for a product.
    /// Not owned; must outlive the chain.
    const Expr* condition = nullptr;
    /// Column count of one build row (needed when build_rows is empty).
    size_t build_width = 0;
  };

  /// `probe_width`: column count of one probe row. `final_filter`
  /// (optional, not owned) is applied to complete output rows.
  JoinChain(size_t probe_width, std::vector<LevelSpec> levels,
            const Expr* final_filter);

  /// Evaluates probe rows [begin, end) through the chain, appending
  /// result rows (width = probe + all build widths) to `out`.
  void Probe(const std::vector<Row>& probe_rows, size_t begin, size_t end,
             std::vector<Row>* out) const;

  size_t output_width() const { return output_width_; }

 private:
  struct Level {
    const std::vector<Row>* rows;
    size_t width;
    bool has_equi;
    std::vector<int> left_keys;   ///< indexes into the accumulated prefix
    ExprPtr residual;             ///< owned remainder of an equi condition
    const Expr* condition;        ///< full condition for the NL/product path
    /// Equi-key hash table: key -> indexes into `rows`, insertion order.
    std::unordered_map<Row, std::vector<uint32_t>, RowHasher, RowEq> build;
  };

  void Descend(size_t level, Row* work, std::vector<Row>* out) const;

  std::vector<Level> levels_;
  const Expr* final_filter_;
  size_t output_width_;
};

/// \brief Anti-join with a shared build side: left rows with NO right
/// partner satisfying `condition`.
///
/// Builds the right-side hash table (or keeps the nested-loop fallback
/// input) once; Probe() is const and thread-safe, so disjoint slices of
/// the left input can run concurrently. Output order within a slice is
/// left order, as AntiJoinRows produces.
class AntiJoinProbe {
 public:
  /// `right` and `condition` are not owned and must outlive the probe.
  AntiJoinProbe(const std::vector<Row>* right, const Expr* condition,
                size_t left_width);

  /// Appends every left row in [begin, end) with no right match to `out`.
  void Probe(const std::vector<Row>& left, size_t begin, size_t end,
             std::vector<Row>* out) const;

 private:
  const std::vector<Row>* right_;
  const Expr* condition_;
  bool has_equi_;
  std::vector<int> left_keys_;
  ExprPtr residual_;
  std::unordered_map<Row, std::vector<uint32_t>, RowHasher, RowEq> build_;
};

/// Anti join: rows of `left` with no `right` partner satisfying `condition`.
void AntiJoinRows(const std::vector<Row>& left, const std::vector<Row>& right,
                  const Expr& condition, size_t left_width,
                  std::vector<Row>* out);

}  // namespace hippo::oracle
