#include "service/snapshot.h"

#include "db/database.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "repairs/repair_enumerator.h"
#include "sql/parser.h"

namespace hippo::service {

Result<SnapshotPtr> Snapshot::Capture(Database* db, uint64_t epoch) {
  // Both halves are structural shares: every table and every hypergraph
  // partition is pointer-shared with the master and cloned only when the
  // master next mutates it (copy-on-write). One make_shared allocation via
  // the pass-key constructor. `db` may be either lineage of an async
  // commit round (the serving master or the re-detected fork about to be
  // swapped in) — the shares keep the captured state alive independently
  // of which Database object survives the swap.
  HIPPO_ASSIGN_OR_RETURN(ConflictHypergraph graph, db->ShareHypergraph());
  // The constraint set is tiny relative to the instance; a deep copy keeps
  // the snapshot self-contained under later constraint DDL on the master.
  std::vector<DenialConstraint> constraints;
  constraints.reserve(db->constraints().size());
  for (const DenialConstraint& dc : db->constraints()) {
    constraints.push_back(dc.Clone());
  }
  return std::make_shared<const Snapshot>(
      PrivateTag{}, epoch, db->catalog().Share(), std::move(graph),
      std::move(constraints), db->foreign_keys());
}

size_t Snapshot::ApproxBytes() const {
  std::unordered_set<const void*> seen;
  return sizeof(Snapshot) + AccumulateApproxBytes(&seen);
}

void Snapshot::CollectStorageIdentity(
    std::unordered_set<const void*>* seen) const {
  catalog_.CollectStorageIdentity(seen);
  for (const void* p : graph_.PartitionPointers()) seen->insert(p);
}

size_t Snapshot::AccumulateApproxBytes(
    std::unordered_set<const void*>* seen) const {
  size_t bytes = 0;
  catalog_.AccumulateApproxBytes(seen, &bytes);
  graph_.AccumulateApproxBytes(seen, &bytes);
  return bytes;
}

Result<PlanNodePtr> Snapshot::Plan(const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(sql::Statement stmt,
                         sql::ParseStatement(select_sql));
  auto* sel = std::get_if<sql::SelectStmt>(&stmt.node);
  if (sel == nullptr) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  Planner planner(catalog_);
  return planner.PlanSelect(*sel);
}

Result<ResultSet> Snapshot::Query(const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  plan = OptimizePlan(*plan);
  ExecContext ctx{&catalog_, nullptr};
  return ::hippo::Execute(*plan, ctx);
}

Result<ResultSet> Snapshot::QueryOverCore(
    const std::string& select_sql) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  RepairEnumerator repairs(catalog_, graph_);
  RowMask mask = repairs.CoreMask();
  plan = OptimizePlan(*plan);
  ExecContext ctx{&catalog_, &mask};
  return ::hippo::Execute(*plan, ctx);
}

Result<ResultSet> Snapshot::ConsistentAnswers(const std::string& select_sql,
                                              const cqa::HippoOptions& options,
                                              cqa::HippoStats* stats) const {
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(select_sql));
  cqa::HippoEngine engine(catalog_, graph_, &constraints_, &foreign_keys_);
  return engine.ConsistentAnswers(*plan, options, stats);
}

Result<std::string> Snapshot::ExplainAnalyze(const std::string& select_sql,
                                             const cqa::HippoOptions& options,
                                             cqa::HippoStats* stats) const {
  obs::TraceSpan root("query");
  cqa::HippoOptions traced = options;
  traced.trace = &root;
  HIPPO_ASSIGN_OR_RETURN(ResultSet result,
                         ConsistentAnswers(select_sql, traced, stats));
  root.SetAttr("answers", static_cast<int64_t>(result.rows.size()));
  root.SetAttr("epoch", static_cast<int64_t>(epoch_));
  root.End();
  return "-- explain analyze --\n" + root.Render();
}

}  // namespace hippo::service
