#include "db/read_view.h"

#include <unordered_set>

#include "cqa/envelope.h"
#include "obs/trace.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "plan/router.h"
#include "plan/sjud.h"
#include "repairs/repair_enumerator.h"
#include "rewriting/rewriter.h"
#include "sql/parser.h"

namespace hippo {

Result<PlanNodePtr> ReadView::Plan(const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(sql::Statement stmt,
                         sql::ParseStatement(select_sql));
  auto* sel = std::get_if<sql::SelectStmt>(&stmt.node);
  if (sel == nullptr) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  Planner planner(*catalog_);
  return planner.PlanSelect(*sel);
}

Result<std::string> ReadView::Explain(const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  std::string out = "-- plan --\n" + plan->ToString();
  if (optimizer_enabled_) {
    PlanNodePtr optimized = OptimizePlan(*plan);
    if (optimized->ToString() != plan->ToString()) {
      out += "-- optimized (plain evaluation) --\n" + optimized->ToString();
    }
  }
  Status sjud = CheckSjudSupported(*plan);
  if (sjud.ok()) {
    PlanNodePtr env = cqa::BuildEnvelope(*plan);
    out += "-- envelope (candidates) --\n" + env->ToString();
  } else {
    out += "-- not in the SJUD class: " + sjud.message() + "\n";
  }
  rewriting::QueryRewriter rewriter(*catalog_, *constraints_, *foreign_keys_);
  auto rewritten = rewriter.Rewrite(*plan);
  if (rewritten.ok()) {
    out += "-- rewriting baseline --\n" + rewritten.value()->ToString();
  } else {
    out += "-- rewriting inapplicable: " + rewritten.status().message() +
           "\n";
  }
  // Without a graph the route is classified conservatively: the
  // conflict-free route needs edge information and the KW completeness
  // gate needs the graph, so such queries report the prover route.
  auto route = ClassifyRoute(*plan, *catalog_, constraints_, foreign_keys_,
                             graph_, RouteMode::kAuto);
  if (route.ok()) {
    out += std::string("-- route --\n") + RouteKindName(route.value().kind) +
           ": " + route.value().reason;
    if (graph_ == nullptr) out += " [hypergraph not yet built]";
    out += "\n";
  } else {
    out += "-- route unavailable: " + route.status().message() + "\n";
  }
  return out;
}

Result<std::string> ReadView::ExplainAnalyze(const std::string& select_sql,
                                             const cqa::HippoOptions& options,
                                             cqa::HippoStats* stats) const {
  obs::TraceSpan root("query");
  cqa::HippoOptions traced = options;
  traced.trace = &root;
  HIPPO_ASSIGN_OR_RETURN(ResultSet result,
                         ConsistentAnswers(select_sql, traced, stats));
  root.SetAttr("answers", static_cast<int64_t>(result.rows.size()));
  if (epoch_.has_value()) {
    root.SetAttr("epoch", static_cast<int64_t>(*epoch_));
  }
  root.End();
  return "-- explain analyze --\n" + root.Render();
}

Result<ResultSet> ReadView::Query(const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  if (optimizer_enabled_) plan = OptimizePlan(*plan);
  ExecContext ctx{catalog_, nullptr};
  return Execute(*plan, ctx);
}

Result<ResultSet> ReadView::QueryOverCore(
    const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  RepairEnumerator repairs(*catalog_, *graph_);
  RowMask mask = repairs.CoreMask();
  if (optimizer_enabled_) plan = OptimizePlan(*plan);
  ExecContext ctx{catalog_, &mask};
  return Execute(*plan, ctx);
}

Result<ResultSet> ReadView::ConsistentAnswers(const std::string& select_sql,
                                              const cqa::HippoOptions& options,
                                              cqa::HippoStats* stats) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  cqa::HippoEngine engine(*catalog_, *graph_, constraints_, foreign_keys_);
  return engine.ConsistentAnswers(*plan, options, stats);
}

Result<ResultSet> ReadView::ConsistentAnswersByRewriting(
    const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  rewriting::QueryRewriter rewriter(*catalog_, *constraints_, *foreign_keys_);
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr rewritten, rewriter.Rewrite(*plan));
  if (optimizer_enabled_) rewritten = OptimizePlan(*rewritten);
  ExecContext ctx{catalog_, nullptr};
  return Execute(*rewritten, ctx);
}

Result<ResultSet> ReadView::ConsistentAnswersAllRepairs(
    const std::string& select_sql, size_t repair_limit) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  if (optimizer_enabled_) plan = OptimizePlan(*plan);
  RepairEnumerator repairs(*catalog_, *graph_);
  HIPPO_ASSIGN_OR_RETURN(std::vector<RowMask> masks,
                         repairs.EnumerateMasks(repair_limit));
  HIPPO_CHECK_MSG(!masks.empty(), "there is always at least one repair");

  // Intersect the query results over all repairs.
  ResultSet answers;
  answers.schema = plan->schema();
  bool first = true;
  std::unordered_set<Row, RowHasher, RowEq> survivors;
  for (const RowMask& mask : masks) {
    ExecContext ctx{catalog_, &mask};
    HIPPO_ASSIGN_OR_RETURN(ResultSet rs, Execute(*plan, ctx));
    if (first) {
      survivors.insert(rs.rows.begin(), rs.rows.end());
      first = false;
      continue;
    }
    std::unordered_set<Row, RowHasher, RowEq> present(rs.rows.begin(),
                                                      rs.rows.end());
    for (auto it = survivors.begin(); it != survivors.end();) {
      if (!present.count(*it)) {
        it = survivors.erase(it);
      } else {
        ++it;
      }
    }
    if (survivors.empty()) break;
  }
  answers.rows.assign(survivors.begin(), survivors.end());
  answers.SortRows();  // deterministic output
  return answers;
}

Result<cqa::AggRange> ReadView::RangeConsistentAggregate(
    const std::string& table, cqa::AggFn fn, const std::string& column,
    cqa::AggStats* stats) const {
  cqa::RangeAggregator aggregator(*catalog_, *graph_);
  return aggregator.Range(table, fn, column, stats);
}

Result<std::vector<cqa::GroupRange>> ReadView::GroupedRangeConsistentAggregate(
    const std::string& table, cqa::AggFn fn, const std::string& column,
    const std::vector<std::string>& group_columns,
    cqa::AggStats* stats) const {
  cqa::RangeAggregator aggregator(*catalog_, *graph_);
  return aggregator.GroupedRange(table, fn, column, group_columns, stats);
}

Result<size_t> ReadView::CountRepairs(size_t limit) const {
  RepairEnumerator repairs(*catalog_, *graph_);
  return repairs.CountRepairs(limit);
}

}  // namespace hippo
