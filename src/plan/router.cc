#include "plan/router.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "plan/sjud.h"
#include "rewriting/rewriter.h"

namespace hippo {

const char* RouteKindName(RouteKind k) {
  switch (k) {
    case RouteKind::kNone: return "none";
    case RouteKind::kConflictFree: return "conflict-free";
    case RouteKind::kRewriteAbc: return "rewrite-abc";
    case RouteKind::kRewriteKw: return "rewrite-kw";
    case RouteKind::kProver: return "prover";
  }
  return "?";
}

const char* RouteModeName(RouteMode m) {
  switch (m) {
    case RouteMode::kAuto: return "auto";
    case RouteMode::kForceConflictFree: return "force-conflict-free";
    case RouteMode::kForceRewrite: return "force-rewrite";
    case RouteMode::kForceProver: return "force-prover";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Conjunctive decomposition.

namespace {

/// A predicate collected during the walk: bound over the schema of the node
/// it hung on, whose columns start at `base` of the concatenated schema.
struct PendingPred {
  const Expr* expr;
  size_t base;
};

Status WalkConjunctive(const PlanNode& node, size_t base,
                       ConjunctiveShape* shape,
                       std::vector<PendingPred>* preds) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      if (scan.emit_rowid()) {
        return Status::NotSupported("rowid scans are not conjunctive atoms");
      }
      ConjunctiveAtom atom;
      atom.table_id = scan.table_id();
      atom.table_name = scan.table_name();
      atom.alias = scan.alias();
      atom.offset = base;
      atom.width = scan.schema().NumColumns();
      atom.scan = &scan;
      shape->atoms.push_back(std::move(atom));
      return Status::OK();
    }
    case PlanKind::kFilter: {
      const auto& f = static_cast<const FilterNode&>(node);
      preds->push_back(PendingPred{&f.predicate(), base});
      return WalkConjunctive(node.child(0), base, shape, preds);
    }
    case PlanKind::kJoin: {
      const auto& j = static_cast<const JoinNode&>(node);
      preds->push_back(PendingPred{&j.condition(), base});
      HIPPO_RETURN_NOT_OK(WalkConjunctive(node.child(0), base, shape, preds));
      size_t left_width = node.child(0).schema().NumColumns();
      return WalkConjunctive(node.child(1), base + left_width, shape, preds);
    }
    case PlanKind::kProduct: {
      HIPPO_RETURN_NOT_OK(WalkConjunctive(node.child(0), base, shape, preds));
      size_t left_width = node.child(0).schema().NumColumns();
      return WalkConjunctive(node.child(1), base + left_width, shape, preds);
    }
    default:
      return Status::NotSupported(std::string("not a conjunctive plan: ") +
                                  PlanKindToString(node.kind()));
  }
}

/// Disjoint-set forest over global column positions.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// The atom whose column range contains global position `pos`.
size_t AtomOf(const ConjunctiveShape& shape, size_t pos) {
  for (size_t i = 0; i < shape.atoms.size(); ++i) {
    if (pos >= shape.atoms[i].offset &&
        pos < shape.atoms[i].offset + shape.atoms[i].width) {
      return i;
    }
  }
  HIPPO_CHECK_MSG(false, "column position outside every atom");
  return 0;
}

}  // namespace

std::vector<size_t> ConjunctiveShape::FreeClasses() const {
  std::vector<size_t> out;
  for (size_t pos : project_cols) {
    size_t c = class_of[pos];
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  return out;
}

Result<ConjunctiveShape> DecomposeConjunctive(const PlanNode& plan) {
  ConjunctiveShape shape;
  const PlanNode* cur = &plan;
  if (cur->kind() == PlanKind::kSort) {
    shape.root_sort = static_cast<const SortNode*>(cur);
    cur = &cur->child(0);
  }
  if (cur->kind() != PlanKind::kProject) {
    return Status::NotSupported(
        "conjunctive decomposition expects a plan ending in a projection");
  }
  shape.project = static_cast<const ProjectNode*>(cur);

  std::vector<PendingPred> preds;
  HIPPO_RETURN_NOT_OK(
      WalkConjunctive(cur->child(0), 0, &shape, &preds));
  shape.total_width = cur->child(0).schema().NumColumns();
  shape.atom_local.resize(shape.atoms.size());

  // Projection expressions must be plain column references (the rewriting
  // has to trace every output value to a query variable).
  for (size_t i = 0; i < shape.project->NumExprs(); ++i) {
    const Expr& e = shape.project->expr(i);
    if (e.kind() != ExprKind::kColumnRef) {
      return Status::NotSupported(
          "projection computes an expression; not a conjunctive query "
          "over plain variables");
    }
    shape.project_cols.push_back(
        static_cast<size_t>(static_cast<const ColumnRefExpr&>(e).index()));
  }

  // Split every predicate into conjuncts and classify each as atom-local,
  // join equality (column = column across atoms), or unsupported.
  UnionFind uf(shape.total_width);
  for (const PendingPred& p : preds) {
    for (const Expr* conjunct : SplitConjuncts(*p.expr)) {
      std::vector<int> cols = CollectColumnIndexes(*conjunct);
      // Map to global positions.
      std::vector<size_t> global;
      global.reserve(cols.size());
      for (int c : cols) global.push_back(p.base + static_cast<size_t>(c));

      if (global.empty()) {
        // Constant conjunct: attach to atom 0 (a FALSE constant empties the
        // result on every route, so the placement does not matter).
        ExprPtr clone = conjunct->Clone();
        shape.atom_local[0].push_back(std::move(clone));
        continue;
      }
      size_t a0 = AtomOf(shape, global[0]);
      bool local = true;
      for (size_t g : global) {
        if (AtomOf(shape, g) != a0) { local = false; break; }
      }
      // Pure column = column equalities merge variable classes, whether
      // local or cross-atom (r.a = r.b means both positions carry the same
      // query variable).
      if (conjunct->kind() == ExprKind::kComparison) {
        const auto& cmp = static_cast<const ComparisonExpr&>(*conjunct);
        if (cmp.op() == CompareOp::kEq &&
            cmp.left().kind() == ExprKind::kColumnRef &&
            cmp.right().kind() == ExprKind::kColumnRef) {
          size_t l = p.base + static_cast<size_t>(
              static_cast<const ColumnRefExpr&>(cmp.left()).index());
          size_t r = p.base + static_cast<size_t>(
              static_cast<const ColumnRefExpr&>(cmp.right()).index());
          uf.Union(l, r);
          continue;  // re-established per atom below as implied locals
        }
      }
      if (!local) {
        return Status::NotSupported(
            "cross-atom predicate is not a column equality: " +
            conjunct->ToString());
      }
      // Local predicate: rebase onto the atom's scan schema.
      ExprPtr clone = conjunct->Clone();
      int delta = -static_cast<int>(shape.atoms[a0].offset);
      VisitColumnRefs(clone.get(),
                      [delta](ColumnRefExpr* ref) { ref->ShiftIndex(delta); });
      shape.atom_local[a0].push_back(std::move(clone));
    }
  }

  // Densify class ids in order of first position.
  shape.class_of.assign(shape.total_width, 0);
  std::unordered_map<size_t, size_t> dense;
  for (size_t pos = 0; pos < shape.total_width; ++pos) {
    size_t root = uf.Find(pos);
    auto it = dense.find(root);
    if (it == dense.end()) {
      it = dense.emplace(root, dense.size()).first;
      shape.class_rep.push_back(pos);
    }
    shape.class_of[pos] = it->second;
  }
  shape.num_classes = dense.size();

  // Re-establish equalities between same-class positions within one atom
  // as local predicates (chains through other atoms may otherwise lose
  // them when the rewriting picks one representative per class). SQL `=`
  // matches the original conjunction: the query satisfies only when every
  // chained value is non-NULL and equal.
  for (size_t a = 0; a < shape.atoms.size(); ++a) {
    const ConjunctiveAtom& atom = shape.atoms[a];
    std::unordered_map<size_t, size_t> first_local;  // class -> local col
    for (size_t c = 0; c < atom.width; ++c) {
      size_t cls = shape.class_of[atom.offset + c];
      auto it = first_local.find(cls);
      if (it == first_local.end()) {
        first_local.emplace(cls, c);
        continue;
      }
      TypeId t = atom.scan->schema().column(c).type;
      auto eq = std::make_unique<ComparisonExpr>(
          CompareOp::kEq,
          ColumnRefExpr::Bound(it->second,
                               atom.scan->schema().column(it->second).type),
          ColumnRefExpr::Bound(c, t));
      eq->set_result_type(TypeId::kBool);
      shape.atom_local[a].push_back(std::move(eq));
    }
  }
  return shape;
}

// ---------------------------------------------------------------------------
// Attack graph.

AttackGraph BuildAttackGraph(
    const std::vector<std::vector<size_t>>& key_classes,
    const std::vector<std::vector<size_t>>& var_classes,
    const std::vector<size_t>& free_classes, size_t num_classes) {
  AttackGraph g;
  g.num_atoms = key_classes.size();
  g.attacks.assign(g.num_atoms, std::vector<bool>(g.num_atoms, false));

  for (size_t f = 0; f < g.num_atoms; ++f) {
    // F+ : closure of key(F) ∪ free under key(G) → vars(G) for G != F.
    std::vector<char> plus(num_classes, 0);
    for (size_t c : key_classes[f]) plus[c] = 1;
    for (size_t c : free_classes) plus[c] = 1;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t gatom = 0; gatom < g.num_atoms; ++gatom) {
        if (gatom == f) continue;
        bool all = true;
        for (size_t c : key_classes[gatom]) {
          if (!plus[c]) { all = false; break; }
        }
        if (!all) continue;
        for (size_t c : var_classes[gatom]) {
          if (!plus[c]) { plus[c] = 1; changed = true; }
        }
      }
    }
    // BFS from F along shared non-F+ classes; intermediate atoms != F.
    auto share_outside_plus = [&](size_t a, size_t b) {
      for (size_t c : var_classes[a]) {
        if (plus[c]) continue;
        for (size_t d : var_classes[b]) {
          if (c == d) return true;
        }
      }
      return false;
    };
    std::vector<char> visited(g.num_atoms, 0);
    visited[f] = 1;
    std::vector<size_t> stack{f};
    while (!stack.empty()) {
      size_t h = stack.back();
      stack.pop_back();
      for (size_t h2 = 0; h2 < g.num_atoms; ++h2) {
        if (h2 == f || visited[h2]) continue;
        if (share_outside_plus(h, h2)) {
          visited[h2] = 1;
          g.attacks[f][h2] = true;
          stack.push_back(h2);
        }
      }
    }
  }

  // Cycle detection (DFS three-color).
  std::vector<int> color(g.num_atoms, 0);
  std::function<bool(size_t)> has_cycle = [&](size_t v) {
    color[v] = 1;
    for (size_t w = 0; w < g.num_atoms; ++w) {
      if (!g.attacks[v][w]) continue;
      if (color[w] == 1) return true;
      if (color[w] == 0 && has_cycle(w)) return true;
    }
    color[v] = 2;
    return false;
  };
  g.acyclic = true;
  for (size_t v = 0; v < g.num_atoms && g.acyclic; ++v) {
    if (color[v] == 0 && has_cycle(v)) g.acyclic = false;
  }
  return g;
}

std::optional<size_t> AttackGraph::UnattackedAtom() const {
  for (size_t f = 0; f < num_atoms; ++f) {
    bool attacked = false;
    for (size_t gatom = 0; gatom < num_atoms; ++gatom) {
      if (gatom != f && attacks[gatom][f]) { attacked = true; break; }
    }
    if (!attacked) return f;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Koutris–Wijsen table eligibility.

Result<std::vector<size_t>> KwKeyColumns(
    uint32_t table_id, const Catalog& catalog,
    const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys) {
  const Table& table = catalog.table(table_id);
  for (const ForeignKeyConstraint& fk : foreign_keys) {
    if (fk.child_table() == table_id || fk.parent_table() == table_id) {
      return Status::NotSupported(
          "table " + table.name() +
          " participates in a foreign key; outside the primary-key class");
    }
  }
  const DenialConstraint* fd = nullptr;
  for (const DenialConstraint& dc : constraints) {
    bool touches = false;
    for (const ConstraintAtom& atom : dc.atoms()) {
      if (atom.table_id == table_id) { touches = true; break; }
    }
    if (!touches) continue;
    if (fd != nullptr) {
      return Status::NotSupported(
          "table " + table.name() +
          " has more than one constraint; outside the primary-key class");
    }
    if (!dc.fd_info().has_value() || dc.fd_info()->table_id != table_id) {
      return Status::NotSupported(
          "constraint " + dc.name() + " on table " + table.name() +
          " is not a functional dependency");
    }
    fd = &dc;
  }
  size_t ncols = table.schema().NumColumns();
  if (fd == nullptr) {
    // No constraint: no two distinct tuples conflict; key = whole row.
    std::vector<size_t> all(ncols);
    for (size_t i = 0; i < ncols; ++i) all[i] = i;
    return all;
  }
  const FdInfo& info = *fd->fd_info();
  std::vector<char> covered(ncols, 0);
  for (size_t c : info.lhs) covered[c] = 1;
  for (size_t c : info.rhs) covered[c] = 1;
  for (size_t i = 0; i < ncols; ++i) {
    if (!covered[i]) {
      return Status::NotSupported(
          "FD " + fd->name() + " does not cover table " + table.name() +
          " (not a primary key)");
    }
  }
  return info.lhs;
}

// ---------------------------------------------------------------------------
// Conflict-free route.

std::unordered_set<uint32_t> CollectPlanTables(const PlanNode& plan) {
  std::unordered_set<uint32_t> tables;
  std::function<void(const PlanNode&)> visit = [&](const PlanNode& node) {
    if (node.kind() == PlanKind::kScan) {
      tables.insert(static_cast<const ScanNode&>(node).table_id());
    }
    for (size_t i = 0; i < node.NumChildren(); ++i) visit(node.child(i));
  };
  visit(plan);
  return tables;
}

bool AnyEdgeTouchesTables(const ConflictHypergraph& graph,
                          const std::unordered_set<uint32_t>& tables) {
  // A vertex is conflicting iff some live edge contains it, so a live edge
  // touches a table iff the table has a conflicting vertex.
  for (uint32_t t : tables) {
    if (graph.NumConflictingVertices(t) != 0) return true;
  }
  return false;
}

bool TableConflictsAreCliques(const ConflictHypergraph& graph,
                              uint32_t table_id) {
  if (graph.NumConflictingVertices(table_id) == 0) return true;
  // Collect the binary same-table edges touching the table; any other edge
  // shape disqualifies (a KW-eligible table should only see its own FD).
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (ConflictHypergraph::EdgeId e = 0; e < graph.NumEdgeSlots(); ++e) {
    if (!graph.EdgeAlive(e)) continue;
    const std::vector<RowId>& vs = graph.edge(e);
    bool touches = false;
    for (const RowId& v : vs) {
      if (v.table == table_id) { touches = true; break; }
    }
    if (!touches) continue;
    if (vs.size() != 2 || vs[0].table != table_id ||
        vs[1].table != table_id) {
      return false;
    }
    edges.emplace_back(vs[0].row, vs[1].row);
  }
  if (edges.empty()) return true;

  // Union-find over the touched rows; a cluster graph has exactly
  // k(k-1)/2 distinct edges in every k-vertex component.
  std::unordered_map<uint32_t, size_t> index;
  for (const auto& [a, b] : edges) {
    index.emplace(a, index.size());
    index.emplace(b, index.size());
  }
  UnionFind uf(index.size());
  for (const auto& [a, b] : edges) uf.Union(index[a], index[b]);
  std::unordered_map<size_t, std::pair<size_t, size_t>> comp;  // root -> {V,E}
  for (const auto& [row, idx] : index) {
    (void)row;
    comp[uf.Find(idx)].first += 1;
  }
  for (const auto& [a, b] : edges) comp[uf.Find(index[a])].second += 1;
  for (const auto& [root, ve] : comp) {
    (void)root;
    if (ve.second != ve.first * (ve.first - 1) / 2) return false;
  }
  return true;
}

Status CheckConflictFreeRoutable(const PlanNode& plan) {
  std::function<Status(const PlanNode&)> inner =
      [&](const PlanNode& node) -> Status {
    switch (node.kind()) {
      case PlanKind::kScan:
        if (static_cast<const ScanNode&>(node).emit_rowid()) {
          return Status::NotSupported("rowid-emitting scans are internal");
        }
        return Status::OK();
      case PlanKind::kFilter:
      case PlanKind::kProject:
      case PlanKind::kProduct:
      case PlanKind::kJoin:
      case PlanKind::kUnion:
      case PlanKind::kDifference:
      case PlanKind::kIntersect: {
        for (size_t i = 0; i < node.NumChildren(); ++i) {
          HIPPO_RETURN_NOT_OK(inner(node.child(i)));
        }
        return Status::OK();
      }
      case PlanKind::kAntiJoin:
        return Status::NotSupported("anti-joins are not in the input class");
      case PlanKind::kSort:
        return Status::NotSupported("ORDER BY is only allowed at the top");
      case PlanKind::kAggregate:
        return Status::NotSupported(
            "aggregates route through range-consistent aggregation");
    }
    return Status::Internal("unknown plan kind");
  };
  const PlanNode* cur = &plan;
  if (cur->kind() == PlanKind::kSort) cur = &cur->child(0);
  return inner(*cur);
}

// ---------------------------------------------------------------------------
// Classifier.

namespace {

Result<RouteDecision> TryRewriteRoute(
    const PlanNode& plan, const Catalog& catalog,
    const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>* foreign_keys,
    const ConflictHypergraph* graph) {
  rewriting::QueryRewriter rewriter(
      catalog, constraints,
      foreign_keys != nullptr ? *foreign_keys
                              : std::vector<ForeignKeyConstraint>{});
  rewriting::RewriteInfo info;
  HIPPO_ASSIGN_OR_RETURN(PlanNodePtr rewritten, rewriter.Rewrite(plan, &info));
  RouteDecision decision;
  if (info.method == rewriting::RewriteMethod::kAbc) {
    decision.kind = RouteKind::kRewriteAbc;
    decision.reason =
        "quantifier-free plan over universal binary constraints "
        "(Arenas-Bertossi-Chomicki residues)";
  } else {
    // The KW certain-rewriting is complete only when every quantified
    // table's conflicts form clique blocks (see TableConflictsAreCliques).
    if (graph == nullptr && !info.kw_fd_tables.empty()) {
      return Status::NotSupported(
          "Koutris-Wijsen route needs the conflict hypergraph to validate "
          "the block structure");
    }
    for (uint32_t t : info.kw_fd_tables) {
      if (!TableConflictsAreCliques(*graph, t)) {
        return Status::NotSupported(
            "table " + catalog.table(t).name() +
            " has NULL-induced non-clique conflict blocks; certain "
            "rewriting would be incomplete");
      }
    }
    decision.kind = RouteKind::kRewriteKw;
    decision.reason =
        "self-join-free primary-key query with an acyclic attack graph "
        "(Koutris-Wijsen certain rewriting)";
  }
  decision.rewritten = std::move(rewritten);
  return decision;
}

}  // namespace

Result<RouteDecision> ClassifyRoute(
    const PlanNode& plan, const Catalog& catalog,
    const std::vector<DenialConstraint>* constraints,
    const std::vector<ForeignKeyConstraint>* foreign_keys,
    const ConflictHypergraph* graph, RouteMode mode) {
  switch (mode) {
    case RouteMode::kForceConflictFree: {
      HIPPO_RETURN_NOT_OK(CheckConflictFreeRoutable(plan));
      if (graph == nullptr) {
        return Status::NotSupported(
            "conflict-free route needs a conflict hypergraph");
      }
      if (AnyEdgeTouchesTables(*graph, CollectPlanTables(plan))) {
        return Status::NotSupported(
            "live conflicts touch the plan's tables; plain evaluation "
            "would not be the certain answer");
      }
      RouteDecision d;
      d.kind = RouteKind::kConflictFree;
      d.reason = "forced; no live conflict touches the plan's tables";
      return d;
    }
    case RouteMode::kForceRewrite: {
      if (constraints == nullptr) {
        return Status::NotSupported(
            "rewrite route needs the constraint catalog");
      }
      return TryRewriteRoute(plan, catalog, *constraints, foreign_keys,
                             graph);
    }
    case RouteMode::kForceProver: {
      HIPPO_RETURN_NOT_OK(CheckSjudSupported(plan));
      RouteDecision d;
      d.kind = RouteKind::kProver;
      d.reason = "forced";
      return d;
    }
    case RouteMode::kAuto:
      break;
  }

  // Auto: conflict-free → rewriting → prover, cheapest sound route first.
  if (graph != nullptr && CheckConflictFreeRoutable(plan).ok() &&
      !AnyEdgeTouchesTables(*graph, CollectPlanTables(plan))) {
    RouteDecision d;
    d.kind = RouteKind::kConflictFree;
    d.reason =
        "no live conflict touches the plan's tables; the instance "
        "restricted to them is its own unique repair";
    return d;
  }
  std::string rewrite_reason = "no constraint catalog";
  if (constraints != nullptr) {
    Result<RouteDecision> rewrite =
        TryRewriteRoute(plan, catalog, *constraints, foreign_keys, graph);
    if (rewrite.ok()) return rewrite;
    rewrite_reason = rewrite.status().message();
  }
  HIPPO_RETURN_NOT_OK(CheckSjudSupported(plan));
  RouteDecision d;
  d.kind = RouteKind::kProver;
  d.reason = "fallback (" + rewrite_reason + ")";
  return d;
}

}  // namespace hippo
