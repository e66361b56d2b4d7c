#include "tests/oracle/detect.h"

#include "detect/detector.h"
#include "exec/executor.h"
#include "expr/evaluator.h"
#include "tests/oracle/row_engine.h"

namespace hippo::oracle {

namespace {

/// Live rows of `table_id` in slot order, each followed by its rowid when
/// `emit_rowid` is set.
Result<std::vector<Row>> ScanRows(const Catalog& catalog, uint32_t table_id,
                                  bool emit_rowid) {
  const Table& table = catalog.table(table_id);
  PlanNodePtr scan = ScanNode::Make(table_id, table.name(), table.name(),
                                    table.schema(), emit_rowid);
  return ExecuteRows(*scan, ExecContext{&catalog, nullptr});
}

}  // namespace

Result<ConflictHypergraph> DetectAllRows(
    const Catalog& catalog, const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys) {
  ConflictHypergraph graph;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const DenialConstraint& dc = constraints[ci];
    std::vector<std::vector<Row>> inputs;
    for (const ConstraintAtom& atom : dc.atoms()) {
      HIPPO_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          ScanRows(catalog, atom.table_id, /*emit_rowid=*/true));
      inputs.push_back(std::move(rows));
    }
    GenericJoinShape shape = ShapeGenericJoin(dc);
    std::vector<JoinChain::LevelSpec> levels;
    for (size_t i = 1; i < dc.arity(); ++i) {
      levels.push_back(
          {&inputs[i], shape.level_conds[i].get(), dc.atom_width(i) + 1});
    }
    JoinChain chain(dc.atom_width(0) + 1, std::move(levels),
                    shape.final_filter.get());
    std::vector<Row> witnesses;
    chain.Probe(inputs[0], 0, inputs[0].size(), &witnesses);
    for (const Row& row : witnesses) {
      std::vector<RowId> edge;
      for (size_t i = 0; i < dc.arity(); ++i) {
        // Atom i's rowid sits after its columns in the rowid layout.
        size_t rowid_col = dc.atom_offset(i) + i + dc.atom_width(i);
        edge.push_back(RowId{dc.atoms()[i].table_id,
                             static_cast<uint32_t>(row[rowid_col].AsInt())});
      }
      graph.AddEdge(std::move(edge), static_cast<uint32_t>(ci));
    }
  }
  for (size_t fi = 0; fi < foreign_keys.size(); ++fi) {
    const ForeignKeyConstraint& fk = foreign_keys[fi];
    HIPPO_ASSIGN_OR_RETURN(
        std::vector<Row> child,
        ScanRows(catalog, fk.child_table(), /*emit_rowid=*/true));
    HIPPO_ASSIGN_OR_RETURN(
        std::vector<Row> parent,
        ScanRows(catalog, fk.parent_table(), /*emit_rowid=*/false));
    ExprPtr condition = ForeignKeyCondition(catalog, fk);
    size_t rowid_col = catalog.table(fk.child_table()).schema().NumColumns();
    std::vector<Row> orphans;
    AntiJoinRows(child, parent, *condition, rowid_col + 1, &orphans);
    for (const Row& row : orphans) {
      graph.AddEdge({RowId{fk.child_table(),
                           static_cast<uint32_t>(row[rowid_col].AsInt())}},
                    static_cast<uint32_t>(constraints.size() + fi));
    }
  }
  return graph;
}

ConflictHypergraph NaiveDetect(
    const Catalog& catalog, const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys) {
  ConflictHypergraph graph;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const DenialConstraint& dc = constraints[ci];
    // Odometer over one live-row index per atom.
    std::vector<std::vector<uint32_t>> live(dc.arity());
    for (size_t a = 0; a < dc.arity(); ++a) {
      const Table& t = catalog.table(dc.atoms()[a].table_id);
      for (uint32_t i = 0; i < t.NumRows(); ++i) {
        if (t.IsLive(i)) live[a].push_back(i);
      }
    }
    std::vector<size_t> pick(dc.arity(), 0);
    bool exhausted = false;
    for (size_t a = 0; a < dc.arity(); ++a) {
      if (live[a].empty()) exhausted = true;
    }
    while (!exhausted) {
      Row combined;
      std::vector<RowId> edge;
      for (size_t a = 0; a < dc.arity(); ++a) {
        const Table& t = catalog.table(dc.atoms()[a].table_id);
        const Row& r = t.row(live[a][pick[a]]);
        combined.insert(combined.end(), r.begin(), r.end());
        edge.push_back(RowId{dc.atoms()[a].table_id, live[a][pick[a]]});
      }
      if (dc.condition() == nullptr ||
          EvalPredicate(*dc.condition(), combined)) {
        graph.AddEdge(std::move(edge), static_cast<uint32_t>(ci));
      }
      size_t a = 0;
      for (; a < dc.arity(); ++a) {
        if (++pick[a] < live[a].size()) break;
        pick[a] = 0;
      }
      if (a == dc.arity()) exhausted = true;
    }
  }
  for (size_t fi = 0; fi < foreign_keys.size(); ++fi) {
    const ForeignKeyConstraint& fk = foreign_keys[fi];
    const Table& child = catalog.table(fk.child_table());
    const Table& parent = catalog.table(fk.parent_table());
    for (uint32_t c = 0; c < child.NumRows(); ++c) {
      if (!child.IsLive(c)) continue;
      // SQL equality: a NULL on either side never matches, so NULL-keyed
      // children are orphans regardless of the parent relation.
      bool has_parent = false;
      for (uint32_t p = 0; p < parent.NumRows() && !has_parent; ++p) {
        if (!parent.IsLive(p)) continue;
        bool match = true;
        for (size_t i = 0; i < fk.child_columns().size(); ++i) {
          const Value& cv = child.row(c)[fk.child_columns()[i]];
          const Value& pv = parent.row(p)[fk.parent_columns()[i]];
          if (cv.is_null() || pv.is_null() || !(cv == pv)) {
            match = false;
            break;
          }
        }
        has_parent = match;
      }
      if (!has_parent) {
        graph.AddEdge({RowId{fk.child_table(), c}},
                      static_cast<uint32_t>(constraints.size() + fi));
      }
    }
  }
  return graph;
}

}  // namespace hippo::oracle
