// hippo::ReadView — the one read path over a database state.
//
// A non-owning const view over a catalog, the conflict hypergraph that
// matches it, the declared constraints and foreign keys, and the optimizer
// flag. It holds the only bodies of the reads the paper's demonstration
// contrasts (plain, core, Hippo, query rewriting, all repairs; see
// db/database.h) plus EXPLAIN [ANALYZE], the range-consistent aggregates
// and repair counting. Database forwards every read to a view over its own
// members; service::Snapshot is a view over the frozen state it owns, so
// the two cannot drift apart. Every method only reads: any number of
// threads may share a view while the state it points to does not change.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "cqa/aggregates.h"
#include "cqa/engine.h"
#include "exec/executor.h"
#include "hypergraph/hypergraph.h"
#include "plan/logical_plan.h"

namespace hippo {

class ReadView {
 public:
  /// `graph` may be null only for the reads that never consult it: Plan,
  /// Query, ConsistentAnswersByRewriting, and Explain (which then
  /// classifies the route conservatively and says so). `epoch`, when set,
  /// is stamped on ExplainAnalyze's root span.
  ReadView(const Catalog* catalog, const ConflictHypergraph* graph,
           const std::vector<DenialConstraint>* constraints,
           const std::vector<ForeignKeyConstraint>* foreign_keys,
           bool optimizer_enabled,
           std::optional<uint64_t> epoch = std::nullopt)
      : catalog_(catalog),
        graph_(graph),
        constraints_(constraints),
        foreign_keys_(foreign_keys),
        optimizer_enabled_(optimizer_enabled),
        epoch_(epoch) {}

  const Catalog& catalog() const { return *catalog_; }
  /// Requires a non-null graph.
  const ConflictHypergraph& hypergraph() const { return *graph_; }
  const std::vector<DenialConstraint>& constraints() const {
    return *constraints_;
  }
  const std::vector<ForeignKeyConstraint>& foreign_keys() const {
    return *foreign_keys_;
  }

  /// Whether the algebraic plan optimizer (filter pushdown, product→join)
  /// runs on the plain evaluation paths: Query, QueryOverCore, and the
  /// rewriting and all-repairs baselines. It does not govern
  /// ConsistentAnswers: the first-order routes (conflict-free, ABC
  /// rewrite) always push filters down, and the prover's envelope
  /// pipeline is structure-sensitive and is never rewritten.
  bool optimizer_enabled() const { return optimizer_enabled_; }

  /// Plans (and binds) a SELECT statement.
  Result<PlanNodePtr> Plan(const std::string& select_sql) const;

  /// Renders the bound plan, its optimized form (when the optimizer is on
  /// and changes it), the envelope, the rewritten plan, and the route the
  /// router would take — the EXPLAIN facility. Executes nothing.
  Result<std::string> Explain(const std::string& select_sql) const;

  /// EXPLAIN ANALYZE: runs the query through ConsistentAnswers with a
  /// per-query trace attached and renders the executed tree — route taken,
  /// then one line per span (engine phases and executor operators) with
  /// wall time and output cardinality. Answers are identical to an
  /// untraced run; `stats` receives the same HippoStats.
  Result<std::string> ExplainAnalyze(
      const std::string& select_sql,
      const cqa::HippoOptions& options = cqa::HippoOptions(),
      cqa::HippoStats* stats = nullptr) const;

  /// Plain evaluation over the (possibly inconsistent) instance.
  Result<ResultSet> Query(const std::string& select_sql) const;

  /// Evaluation over the "core": every conflicting tuple removed.
  Result<ResultSet> QueryOverCore(const std::string& select_sql) const;

  /// Consistent answers via Hippo. `options.detect` has no effect here:
  /// the view's hypergraph is already built.
  Result<ResultSet> ConsistentAnswers(
      const std::string& select_sql,
      const cqa::HippoOptions& options = cqa::HippoOptions(),
      cqa::HippoStats* stats = nullptr) const;

  /// Consistent answers via the query-rewriting baseline (NotSupported for
  /// queries/constraints outside its class).
  Result<ResultSet> ConsistentAnswersByRewriting(
      const std::string& select_sql) const;

  /// Exact consistent answers by evaluating over every repair. Errors with
  /// NotSupported when more than `repair_limit` repairs exist.
  Result<ResultSet> ConsistentAnswersAllRepairs(
      const std::string& select_sql, size_t repair_limit = 100000) const;

  /// Range-consistent answer to a scalar aggregate: the [glb, lub] interval
  /// of `fn` over `table.column` across all repairs (closed form under the
  /// clique-partition property, e.g. a single FD; exact enumeration
  /// otherwise). `column` is ignored for COUNT.
  Result<cqa::AggRange> RangeConsistentAggregate(
      const std::string& table, cqa::AggFn fn, const std::string& column = "",
      cqa::AggStats* stats = nullptr) const;

  /// Grouped variant: the [glb, lub] interval of `fn` per value of
  /// `group_columns` (closed form when no conflict clique straddles two
  /// groups, e.g. when grouping by a subset of the FD determinant).
  Result<std::vector<cqa::GroupRange>> GroupedRangeConsistentAggregate(
      const std::string& table, cqa::AggFn fn, const std::string& column,
      const std::vector<std::string>& group_columns,
      cqa::AggStats* stats = nullptr) const;

  /// Number of repairs of the instance (exponential; bounded).
  Result<size_t> CountRepairs(size_t limit = 100000) const;

  /// True when the instance satisfies all constraints.
  bool IsConsistent() const { return graph_->NumEdges() == 0; }

 private:
  const Catalog* catalog_;
  const ConflictHypergraph* graph_;
  const std::vector<DenialConstraint>* constraints_;
  const std::vector<ForeignKeyConstraint>* foreign_keys_;
  bool optimizer_enabled_;
  std::optional<uint64_t> epoch_;
};

}  // namespace hippo
