#include "db/database.h"

#include <unordered_set>
#include <utility>

#include "common/str_util.h"
#include "expr/binder.h"
#include "expr/evaluator.h"
#include "io/csv.h"
#include "sql/parser.h"

namespace hippo {

Status Database::Execute(const std::string& sql) {
  HIPPO_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                         sql::ParseScript(sql));
  for (sql::Statement& stmt : stmts) {
    if (auto* ct = std::get_if<sql::CreateTableStmt>(&stmt.node)) {
      Schema schema;
      std::unordered_set<std::string> names;
      for (auto& [name, type] : ct->columns) {
        if (!names.insert(name).second) {
          return Status::InvalidArgument("duplicate column name: " + name);
        }
        schema.AddColumn(Column(name, type));
      }
      HIPPO_ASSIGN_OR_RETURN(Table * table,
                             catalog_.CreateTable(ct->name, schema));
      (void)table;
      // PRIMARY KEY / UNIQUE sugar: the key columns functionally determine
      // the rest of the row.
      for (size_t k = 0; k < ct->keys.size(); ++k) {
        sql::FdSpec spec;
        spec.table = ct->name;
        spec.lhs = ct->keys[k];
        for (const auto& [col, type] : ct->columns) {
          (void)type;
          bool in_key = false;
          for (const std::string& key_col : ct->keys[k]) {
            if (EqualsIgnoreCase(key_col, col)) in_key = true;
          }
          if (!in_key) spec.rhs.push_back(col);
        }
        if (spec.rhs.empty()) continue;  // whole-row key: trivial under sets
        HIPPO_ASSIGN_OR_RETURN(
            DenialConstraint dc,
            DenialConstraint::FromFd(
                catalog_, StrFormat("%s_key%zu", ct->name.c_str(), k + 1),
                spec));
        HIPPO_RETURN_NOT_OK(AddConstraint(std::move(dc)));
      }
      // CHECK sugar: a unary denial constraint forbidding rows where the
      // expression is FALSE (NULL passes, as in SQL).
      for (size_t k = 0; k < ct->checks.size(); ++k) {
        std::vector<sql::TableRef> atoms;
        atoms.push_back(sql::TableRef{ct->name, ""});
        HIPPO_ASSIGN_OR_RETURN(
            DenialConstraint dc,
            DenialConstraint::Make(
                catalog_, StrFormat("%s_check%zu", ct->name.c_str(), k + 1),
                std::move(atoms), LogicalExpr::MakeNot(ct->checks[k]->Clone())));
        HIPPO_RETURN_NOT_OK(AddConstraint(std::move(dc)));
      }
      continue;
    }
    if (auto* ins = std::get_if<sql::InsertStmt>(&stmt.node)) {
      // Probe each row on the const view first: validation failures and
      // live duplicates (set-semantics no-ops) must not copy-on-write a
      // snapshot-shared table. Unshare on the first row that changes it.
      HIPPO_ASSIGN_OR_RETURN(const Table* probe,
                             std::as_const(catalog_).GetTable(ins->table));
      uint32_t table_id = probe->id();
      Table* table = nullptr;  // unshared lazily
      for (const std::vector<ExprPtr>& row_exprs : ins->rows) {
        Row row;
        row.reserve(row_exprs.size());
        for (const ExprPtr& e : row_exprs) {
          if (!e->IsBound()) {
            return Status::InvalidArgument(
                "INSERT values must be constant expressions: " +
                e->ToString());
          }
          row.push_back(EvalConst(*e));
        }
        const Table& view = std::as_const(catalog_).table(table_id);
        HIPPO_ASSIGN_OR_RETURN(Row coerced, view.CoerceRow(row));
        if (view.Find(coerced).has_value()) continue;  // live duplicate
        if (table == nullptr) table = &catalog_.MutableTable(table_id);
        HIPPO_ASSIGN_OR_RETURN(auto inserted, table->Insert(coerced));
        if (inserted.second) {
          HIPPO_RETURN_NOT_OK(NoteInsert(inserted.first));
        }
      }
      continue;
    }
    if (auto* del = std::get_if<sql::DeleteStmt>(&stmt.node)) {
      HIPPO_RETURN_NOT_OK(ExecuteDelete(*del));
      continue;
    }
    if (auto* upd = std::get_if<sql::UpdateStmt>(&stmt.node)) {
      HIPPO_RETURN_NOT_OK(ExecuteUpdate(*upd));
      continue;
    }
    if (auto* drop = std::get_if<sql::DropStmt>(&stmt.node)) {
      HIPPO_RETURN_NOT_OK(drop->is_table ? DropTable(drop->name)
                                         : DropConstraint(drop->name));
      continue;
    }
    if (auto* copy = std::get_if<sql::CopyStmt>(&stmt.node)) {
      if (copy->is_import) {
        HIPPO_ASSIGN_OR_RETURN(CsvImportStats imported,
                               ImportCsvFile(this, copy->table, copy->path));
        (void)imported;
      } else {
        HIPPO_ASSIGN_OR_RETURN(ResultSet rs,
                               Query("SELECT * FROM " + copy->table));
        HIPPO_RETURN_NOT_OK(ExportCsvFile(rs, copy->path));
      }
      continue;
    }
    if (auto* cc = std::get_if<sql::CreateConstraintStmt>(&stmt.node)) {
      if (auto* fk = std::get_if<sql::ForeignKeySpec>(&cc->spec)) {
        HIPPO_ASSIGN_OR_RETURN(
            ForeignKeyConstraint constraint,
            ForeignKeyConstraint::Make(catalog_, cc->name, fk->child,
                                       fk->child_cols, fk->parent,
                                       fk->parent_cols));
        HIPPO_RETURN_NOT_OK(AddForeignKey(std::move(constraint)));
        continue;
      }
      HIPPO_ASSIGN_OR_RETURN(DenialConstraint dc,
                             DenialConstraint::FromStatement(catalog_, *cc));
      HIPPO_RETURN_NOT_OK(AddConstraint(std::move(dc)));
      continue;
    }
    return Status::InvalidArgument(
        "Execute() accepts DDL/DML only; use Query() for SELECT");
  }
  return Status::OK();
}

Status Database::InsertRow(const std::string& table_name, Row values) {
  // Validate and probe on the const view: a live duplicate (set-semantics
  // no-op) or a bad row must not copy-on-write a snapshot-shared table.
  HIPPO_ASSIGN_OR_RETURN(const Table* table,
                         std::as_const(catalog_).GetTable(table_name));
  HIPPO_ASSIGN_OR_RETURN(Row coerced, table->CoerceRow(values));
  if (table->Find(coerced).has_value()) return Status::OK();
  HIPPO_ASSIGN_OR_RETURN(
      auto inserted, catalog_.MutableTable(table->id()).Insert(coerced));
  if (inserted.second) {
    HIPPO_RETURN_NOT_OK(NoteInsert(inserted.first));
  }
  return Status::OK();
}

Status Database::DeleteRow(const std::string& table_name, const Row& values) {
  // Validate and probe on the const view: a miss must not copy-on-write a
  // snapshot-shared table (unshare only when a row actually changes).
  HIPPO_ASSIGN_OR_RETURN(const Table* table,
                         std::as_const(catalog_).GetTable(table_name));
  // Coerce to the column types so lookup matches Insert's canonical form.
  if (values.size() != table->schema().NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("DELETE from %s: expected %zu values, got %zu",
                  table_name.c_str(), table->schema().NumColumns(),
                  values.size()));
  }
  Row coerced;
  coerced.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    HIPPO_ASSIGN_OR_RETURN(Value v,
                           values[i].CastTo(table->schema().column(i).type));
    coerced.push_back(std::move(v));
  }
  std::optional<RowId> rid = table->Find(coerced);
  if (!rid.has_value()) return Status::OK();
  catalog_.MutableTable(rid->table).Delete(rid->row);
  return NoteDelete(*rid);
}

Status Database::ExecuteDelete(const sql::DeleteStmt& stmt) {
  // Bind and scan on the const view; unshare (copy-on-write) only when
  // some row actually matched, so a no-op DELETE never clones a
  // snapshot-shared table.
  HIPPO_ASSIGN_OR_RETURN(const Table* table,
                         std::as_const(catalog_).GetTable(stmt.table));
  ExprPtr where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    // Bind against the table schema qualified by the table name, so both
    // `col` and `table.col` references resolve.
    Schema scope = table->schema().WithQualifier(table->name());
    ExprBinder binder(scope);
    HIPPO_RETURN_NOT_OK(binder.BindPredicate(where.get()));
  }
  std::vector<uint32_t> matched;
  for (uint32_t i = 0; i < table->NumRows(); ++i) {
    if (!table->IsLive(i)) continue;
    if (where == nullptr || EvalPredicate(*where, table->row(i))) {
      matched.push_back(i);
    }
  }
  if (matched.empty()) return Status::OK();
  uint32_t id = table->id();
  Table& mutable_table = catalog_.MutableTable(id);  // invalidates `table`
  for (uint32_t i : matched) {
    mutable_table.Delete(i);
    HIPPO_RETURN_NOT_OK(NoteDelete(RowId{id, i}));
  }
  return Status::OK();
}

Status Database::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  // Pass 1 runs on the const view; unshare (copy-on-write) only when some
  // row actually matched, so a no-op UPDATE never clones a snapshot-shared
  // table.
  HIPPO_ASSIGN_OR_RETURN(const Table* table,
                         std::as_const(catalog_).GetTable(stmt.table));
  Schema scope = table->schema().WithQualifier(table->name());
  ExprBinder binder(scope);
  ExprPtr where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    HIPPO_RETURN_NOT_OK(binder.BindPredicate(where.get()));
  }
  struct Assignment {
    size_t column;
    ExprPtr value;
  };
  std::vector<Assignment> assignments;
  for (const auto& [col, value] : stmt.assignments) {
    HIPPO_ASSIGN_OR_RETURN(size_t idx, scope.ResolveColumn("", col));
    ExprPtr bound = value->Clone();
    HIPPO_RETURN_NOT_OK(binder.Bind(bound.get()));
    assignments.push_back(Assignment{idx, std::move(bound)});
  }
  // Pass 1: collect matches and compute replacement rows against the
  // pre-update image (no Halloween effects).
  std::vector<uint32_t> matched;
  std::vector<Row> replacements;
  for (uint32_t i = 0; i < table->NumRows(); ++i) {
    if (!table->IsLive(i)) continue;
    const Row& row = table->row(i);
    if (where != nullptr && !EvalPredicate(*where, row)) continue;
    Row updated = row;
    for (const Assignment& a : assignments) {
      updated[a.column] = EvalExpr(*a.value, row);
    }
    matched.push_back(i);
    replacements.push_back(std::move(updated));
  }
  if (matched.empty()) return Status::OK();
  // Pass 2: delete originals, then insert replacements (set semantics:
  // updating a row onto an existing one merges them).
  uint32_t id = table->id();
  Table& mutable_table = catalog_.MutableTable(id);  // invalidates `table`
  for (uint32_t i : matched) {
    mutable_table.Delete(i);
    HIPPO_RETURN_NOT_OK(NoteDelete(RowId{id, i}));
  }
  for (Row& r : replacements) {
    HIPPO_ASSIGN_OR_RETURN(auto inserted, mutable_table.Insert(r));
    if (inserted.second) {
      HIPPO_RETURN_NOT_OK(NoteInsert(inserted.first));
    }
  }
  return Status::OK();
}

Status Database::NoteInsert(RowId rid) {
  if (incremental_ != nullptr) return incremental_->OnInsert(rid);
  InvalidateHypergraph();
  return Status::OK();
}

Status Database::NoteDelete(RowId rid) {
  if (incremental_ != nullptr) return incremental_->OnDelete(rid);
  InvalidateHypergraph();
  return Status::OK();
}

void Database::DeclareKeyIndexes(
    const std::vector<IncrementalDetector::KeyIndexSpec>& specs) {
  for (const IncrementalDetector::KeyIndexSpec& spec : specs) {
    catalog_.MutableTable(spec.table).DeclareKeyIndex(spec.columns);
  }
}

void Database::ReleaseKeyIndexes(
    const std::vector<IncrementalDetector::KeyIndexSpec>& specs) {
  for (const IncrementalDetector::KeyIndexSpec& spec : specs) {
    catalog_.MutableTable(spec.table).ReleaseKeyIndex(spec.columns);
  }
}

Status Database::DropConstraint(const std::string& name) {
  for (auto it = constraints_.begin(); it != constraints_.end(); ++it) {
    if (EqualsIgnoreCase(it->name(), name)) {
      ReleaseKeyIndexes(IncrementalDetector::KeyIndexesFor(*it));
      constraints_.erase(it);
      InvalidateHypergraph();
      return Status::OK();
    }
  }
  for (auto it = foreign_keys_.begin(); it != foreign_keys_.end(); ++it) {
    if (EqualsIgnoreCase(it->name(), name)) {
      ReleaseKeyIndexes(IncrementalDetector::KeyIndexesFor(*it));
      foreign_keys_.erase(it);
      InvalidateHypergraph();
      return Status::OK();
    }
  }
  return Status::NotFound("constraint not found: " + name);
}

Status Database::DropTable(const std::string& name) {
  // Const lookup: resolving the id must not copy-on-write a shared table
  // (the refusal paths below never mutate, and the drop itself replaces
  // the slot without touching the rows).
  HIPPO_ASSIGN_OR_RETURN(const Table* table,
                         std::as_const(catalog_).GetTable(name));
  uint32_t id = table->id();
  for (const DenialConstraint& dc : constraints_) {
    for (const ConstraintAtom& atom : dc.atoms()) {
      if (atom.table_id == id) {
        return Status::NotSupported(
            "table " + name + " is referenced by constraint " + dc.name() +
            "; drop the constraint first");
      }
    }
  }
  for (const ForeignKeyConstraint& fk : foreign_keys_) {
    if (fk.child_table() == id || fk.parent_table() == id) {
      return Status::NotSupported(
          "table " + name + " is referenced by foreign key " + fk.name() +
          "; drop the constraint first");
    }
  }
  HIPPO_RETURN_NOT_OK(catalog_.DropTable(name));
  InvalidateHypergraph();
  return Status::OK();
}

Status Database::EnableIncrementalMaintenance() {
  incremental_enabled_ = true;
  HIPPO_ASSIGN_OR_RETURN(const ConflictHypergraph* graph, Hypergraph());
  (void)graph;
  return Status::OK();
}

bool Database::IsFkParent(uint32_t table_id) const {
  for (const ForeignKeyConstraint& fk : foreign_keys_) {
    if (fk.parent_table() == table_id) return true;
  }
  return false;
}

bool Database::HasConstraints(uint32_t table_id) const {
  for (const DenialConstraint& dc : constraints_) {
    for (const ConstraintAtom& atom : dc.atoms()) {
      if (atom.table_id == table_id) return true;
    }
  }
  for (const ForeignKeyConstraint& fk : foreign_keys_) {
    if (fk.child_table() == table_id) return true;
  }
  return false;
}

Status Database::AddConstraint(DenialConstraint constraint) {
  for (const DenialConstraint& existing : constraints_) {
    if (existing.name() == constraint.name()) {
      return Status::AlreadyExists("constraint already exists: " +
                                   constraint.name());
    }
  }
  for (const ConstraintAtom& atom : constraint.atoms()) {
    if (IsFkParent(atom.table_id)) {
      return Status::NotSupported(
          "relation " + atom.table_name +
          " is the parent of a foreign key; the restricted-FK class "
          "requires parent relations to carry no other constraints");
    }
  }
  DeclareKeyIndexes(IncrementalDetector::KeyIndexesFor(constraint));
  constraints_.push_back(std::move(constraint));
  InvalidateHypergraph();
  return Status::OK();
}

Status Database::AddForeignKey(ForeignKeyConstraint fk) {
  for (const ForeignKeyConstraint& existing : foreign_keys_) {
    if (existing.name() == fk.name()) {
      return Status::AlreadyExists("constraint already exists: " + fk.name());
    }
  }
  for (const DenialConstraint& existing : constraints_) {
    if (existing.name() == fk.name()) {
      return Status::AlreadyExists("constraint already exists: " + fk.name());
    }
  }
  if (HasConstraints(fk.parent_table())) {
    return Status::NotSupported(
        "foreign key parent relation carries other constraints; outside the "
        "restricted class (its tuples must be immutable across repairs)");
  }
  if (IsFkParent(fk.child_table())) {
    return Status::NotSupported(
        "foreign key child relation is the parent of another foreign key; "
        "outside the restricted class");
  }
  DeclareKeyIndexes(IncrementalDetector::KeyIndexesFor(fk));
  foreign_keys_.push_back(std::move(fk));
  InvalidateHypergraph();
  return Status::OK();
}

Result<PlanNodePtr> Database::Plan(const std::string& select_sql) const {
  return ViewOver(nullptr).Plan(select_sql);
}

Result<std::string> Database::Explain(const std::string& select_sql) const {
  // EXPLAIN never detects: classify against the cached graph, if any.
  const ConflictHypergraph* graph = nullptr;
  {
    std::lock_guard<std::mutex> lock(hypergraph_mu_);
    if (hypergraph_.has_value()) graph = &hypergraph_.value();
  }
  return ViewOver(graph).Explain(select_sql);
}

Result<std::string> Database::ExplainAnalyze(const std::string& select_sql,
                                             const cqa::HippoOptions& options,
                                             cqa::HippoStats* stats) {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, ViewFor(options, stats));
  return view.ExplainAnalyze(select_sql, options, stats);
}

Result<ResultSet> Database::Query(const std::string& select_sql) const {
  return ViewOver(nullptr).Query(select_sql);
}

Result<ResultSet> Database::QueryOverCore(const std::string& select_sql) {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, View());
  return view.QueryOverCore(select_sql);
}

Result<ResultSet> Database::ConsistentAnswers(const std::string& select_sql,
                                              const cqa::HippoOptions& options,
                                              cqa::HippoStats* stats) {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, ViewFor(options, stats));
  return view.ConsistentAnswers(select_sql, options, stats);
}

Result<ResultSet> Database::ConsistentAnswersByRewriting(
    const std::string& select_sql) {
  return ViewOver(nullptr).ConsistentAnswersByRewriting(select_sql);
}

Result<ResultSet> Database::ConsistentAnswersAllRepairs(
    const std::string& select_sql, size_t repair_limit) {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, View());
  return view.ConsistentAnswersAllRepairs(select_sql, repair_limit);
}

Result<cqa::AggRange> Database::RangeConsistentAggregate(
    const std::string& table, cqa::AggFn fn, const std::string& column,
    cqa::AggStats* stats) {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, View());
  return view.RangeConsistentAggregate(table, fn, column, stats);
}

Result<std::vector<cqa::GroupRange>> Database::GroupedRangeConsistentAggregate(
    const std::string& table, cqa::AggFn fn, const std::string& column,
    const std::vector<std::string>& group_columns, cqa::AggStats* stats) {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, View());
  return view.GroupedRangeConsistentAggregate(table, fn, column,
                                              group_columns, stats);
}

Result<size_t> Database::CountRepairs(size_t limit) {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, View());
  return view.CountRepairs(limit);
}

Result<bool> Database::IsConsistent() {
  HIPPO_ASSIGN_OR_RETURN(ReadView view, View());
  return view.IsConsistent();
}

Result<ReadView> Database::View() {
  HIPPO_ASSIGN_OR_RETURN(const ConflictHypergraph* graph, Hypergraph());
  return ViewOver(graph);
}

Result<ReadView> Database::ViewFor(const cqa::HippoOptions& options,
                                   cqa::HippoStats* stats) {
  bool reused_cache = false;
  HIPPO_ASSIGN_OR_RETURN(
      const ConflictHypergraph* graph,
      HypergraphWith(options.detect.value_or(detect_options_),
                     &reused_cache));
  if (stats != nullptr && options.detect.has_value() && reused_cache) {
    // The caller asked for specific detection options but a cached graph
    // was reused, so they had no effect; surface that instead of letting a
    // mismatched DetectOptions masquerade as a detection change.
    ++stats->detect_options_ignored;
  }
  return ViewOver(graph);
}

Result<const ConflictHypergraph*> Database::Hypergraph() {
  return HypergraphWith(detect_options_);
}

Result<const ConflictHypergraph*> Database::HypergraphWith(
    const DetectOptions& options, bool* reused_cache) {
  // Concurrent readers may all arrive on a cold cache; the first one to
  // take the lock builds, the rest reuse the published graph. Detection
  // itself runs under the lock — it already parallelizes internally via
  // options.num_threads, so stacking racing builds on top would only
  // duplicate work.
  std::lock_guard<std::mutex> lock(hypergraph_mu_);
  if (reused_cache != nullptr) *reused_cache = hypergraph_.has_value();
  if (!hypergraph_.has_value()) {
    ConflictDetector detector(catalog_, options);
    HIPPO_ASSIGN_OR_RETURN(ConflictHypergraph graph,
                           detector.DetectAll(constraints_, foreign_keys_));
    detect_stats_ = detector.stats();
    hypergraph_ = std::move(graph);
    ++hypergraph_epoch_;
  }
  if (incremental_enabled_ && incremental_ == nullptr) {
    HIPPO_ASSIGN_OR_RETURN(
        incremental_,
        IncrementalDetector::Make(catalog_, constraints_, foreign_keys_,
                                  &hypergraph_.value()));
  }
  return &hypergraph_.value();
}

Result<ConflictHypergraph> Database::ShareHypergraph() {
  HIPPO_ASSIGN_OR_RETURN(const ConflictHypergraph* graph, Hypergraph());
  (void)graph;
  std::lock_guard<std::mutex> lock(hypergraph_mu_);
  return hypergraph_->Share();
}

uint64_t Database::hypergraph_epoch() const {
  std::lock_guard<std::mutex> lock(hypergraph_mu_);
  return hypergraph_epoch_;
}

void Database::InvalidateHypergraph() {
  std::lock_guard<std::mutex> lock(hypergraph_mu_);
  incremental_.reset();
  hypergraph_.reset();
}

bool Database::hypergraph_current() const {
  std::lock_guard<std::mutex> lock(hypergraph_mu_);
  return hypergraph_.has_value();
}

std::unique_ptr<Database> Database::ForkShared() {
  auto fork = std::make_unique<Database>();
  fork->catalog_ = catalog_.Share();
  fork->constraints_.reserve(constraints_.size());
  for (const DenialConstraint& dc : constraints_) {
    fork->constraints_.push_back(dc.Clone());
  }
  fork->foreign_keys_ = foreign_keys_;
  fork->detect_options_ = detect_options_;
  fork->optimizer_enabled_ = optimizer_enabled_;
  // No hypergraph and no maintainer: the fork's first
  // EnableIncrementalMaintenance runs a fresh (typically parallel)
  // detection over its own state — that is the async round's background
  // re-detect — and attaches a maintainer to the inherited key indexes.
  return fork;
}

}  // namespace hippo
