#include "detect/incremental.h"

#include "expr/evaluator.h"

namespace hippo {

namespace {

/// Concatenation of the atom rows of a (partial) assignment, in atom order —
/// the evaluation scope of a denial constraint's condition.
Row ConcatAtoms(const Catalog& catalog, const DenialConstraint& dc,
                const std::vector<uint32_t>& assignment) {
  Row combined;
  combined.reserve(dc.combined_schema().NumColumns());
  for (size_t i = 0; i < dc.arity(); ++i) {
    const Row& r = catalog.table(dc.atoms()[i].table_id).row(assignment[i]);
    combined.insert(combined.end(), r.begin(), r.end());
  }
  return combined;
}

}  // namespace

bool IncrementalDetector::SplitBinaryEqui(const DenialConstraint& dc,
                                          BinaryEqui* be) {
  if (!dc.IsBinary() || dc.condition() == nullptr) return false;
  std::vector<EquiPair> pairs;
  ExprPtr residual;
  SplitJoinCondition(*dc.condition(), dc.atom_width(0), &pairs, &residual);
  if (pairs.empty()) return false;
  for (const EquiPair& p : pairs) {
    be->key_cols[0].push_back(static_cast<size_t>(p.left_index));
    be->key_cols[1].push_back(static_cast<size_t>(p.right_index));
  }
  be->residual = std::move(residual);
  return true;
}

std::vector<IncrementalDetector::KeyIndexSpec>
IncrementalDetector::KeyIndexesFor(const DenialConstraint& dc) {
  BinaryEqui be;
  if (dc.IsUnary() || !SplitBinaryEqui(dc, &be)) return {};
  return {KeyIndexSpec{dc.atoms()[0].table_id, std::move(be.key_cols[0])},
          KeyIndexSpec{dc.atoms()[1].table_id, std::move(be.key_cols[1])}};
}

std::vector<IncrementalDetector::KeyIndexSpec>
IncrementalDetector::KeyIndexesFor(const ForeignKeyConstraint& fk) {
  return {KeyIndexSpec{fk.parent_table(), fk.parent_columns()},
          KeyIndexSpec{fk.child_table(), fk.child_columns()}};
}

Result<std::unique_ptr<IncrementalDetector>> IncrementalDetector::Make(
    const Catalog& catalog, const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys,
    ConflictHypergraph* graph) {
  std::unique_ptr<IncrementalDetector> d(
      new IncrementalDetector(catalog, graph));
  std::vector<KeyIndexSpec> probed;
  for (size_t i = 0; i < constraints.size(); ++i) {
    const DenialConstraint& dc = constraints[i];
    uint32_t index = static_cast<uint32_t>(i);
    if (dc.IsUnary()) {
      d->unary_.push_back(Unary{index, &dc});
      continue;
    }
    BinaryEqui be;
    if (SplitBinaryEqui(dc, &be)) {
      be.constraint_index = index;
      be.dc = &dc;
      for (size_t side = 0; side < 2; ++side) {
        probed.push_back(
            KeyIndexSpec{dc.atoms()[side].table_id, be.key_cols[side]});
      }
      d->binary_.push_back(std::move(be));
      continue;
    }
    d->fallback_.push_back(Fallback{index, &dc});
  }
  for (size_t i = 0; i < foreign_keys.size(); ++i) {
    d->fks_.push_back(ForeignKey{
        static_cast<uint32_t>(constraints.size() + i), &foreign_keys[i]});
    for (KeyIndexSpec& spec : KeyIndexesFor(foreign_keys[i])) {
      probed.push_back(std::move(spec));
    }
  }
  for (const KeyIndexSpec& spec : probed) {
    if (!catalog.table(spec.table).HasKeyIndex(spec.columns)) {
      return Status::Internal(
          "incremental maintenance: table " +
          catalog.table(spec.table).name() +
          " lacks a key index its constraints probe");
    }
  }
  return d;
}

bool IncrementalDetector::ExtractKey(const Row& row,
                                     const std::vector<size_t>& cols,
                                     Row* key) {
  key->clear();
  key->reserve(cols.size());
  for (size_t c : cols) {
    // SQL equality with NULL is never TRUE: a NULL-keyed row can't satisfy
    // the cross-atom equalities, so it never probes (and no key index
    // holds it).
    if (row[c].is_null()) return false;
    key->push_back(row[c]);
  }
  return true;
}

void IncrementalDetector::AddEdgeCounted(std::vector<RowId> vertices,
                                         uint32_t constraint_index) {
  size_t before = graph_->NumEdges();
  graph_->AddEdge(std::move(vertices), constraint_index);
  if (graph_->NumEdges() > before) ++stats_.edges_added;
}

// --- insert ----------------------------------------------------------------

Status IncrementalDetector::InsertUnary(const Unary& u, RowId rid) {
  const Table& table = catalog_.table(rid.table);
  // A unary constraint with no condition forbids every tuple.
  if (u.dc->condition() == nullptr ||
      EvalPredicate(*u.dc->condition(), table.row(rid.row))) {
    AddEdgeCounted({rid}, u.constraint_index);
  }
  return Status::OK();
}

Status IncrementalDetector::InsertBinaryEqui(const BinaryEqui& be,
                                             RowId rid) {
  const uint32_t t0 = be.dc->atoms()[0].table_id;
  const uint32_t t1 = be.dc->atoms()[1].table_id;
  // The new tuple is already in its table's key indexes: when both atoms
  // range over rid's table it may pair with itself, exactly as in the full
  // detector's self-join (AddEdge collapses {t, t} to a unary edge).
  for (int side = 0; side < 2; ++side) {
    if ((side == 0 ? t0 : t1) != rid.table) continue;
    Row key;
    if (!ExtractKey(catalog_.table(rid.table).row(rid.row),
                    be.key_cols[side], &key)) {
      continue;
    }
    const Table& partners = catalog_.table(side == 0 ? t1 : t0);
    partners.ForEachKeyMatch(
        be.key_cols[1 - side], key, [&](uint32_t partner) {
          ++stats_.fast_path_probes;
          uint32_t left = side == 0 ? rid.row : partner;
          uint32_t right = side == 0 ? partner : rid.row;
          if (be.residual != nullptr &&
              !EvalPredicate(*be.residual,
                             ConcatAtoms(catalog_, *be.dc, {left, right}))) {
            return true;
          }
          AddEdgeCounted({RowId{t0, left}, RowId{t1, right}},
                         be.constraint_index);
          return true;
        });
  }
  return Status::OK();
}

Status IncrementalDetector::InsertFallback(const Fallback& fb, RowId rid) {
  const DenialConstraint& dc = *fb.dc;
  std::vector<uint32_t> assignment(dc.arity(), 0);
  // Pin each atom over rid's table to the new row in turn; duplicates across
  // pin positions collapse in AddEdge.
  for (size_t pin = 0; pin < dc.arity(); ++pin) {
    if (dc.atoms()[pin].table_id != rid.table) continue;
    assignment[pin] = rid.row;
    // Depth-first assignment of the remaining atoms over live rows.
    auto recurse = [&](auto&& self, size_t atom) -> void {
      if (atom == dc.arity()) {
        ++stats_.fallback_rows;
        if (dc.condition() != nullptr) {
          Row combined = ConcatAtoms(catalog_, dc, assignment);
          if (!EvalPredicate(*dc.condition(), combined)) return;
        }
        std::vector<RowId> edge;
        edge.reserve(dc.arity());
        for (size_t i = 0; i < dc.arity(); ++i) {
          edge.push_back(RowId{dc.atoms()[i].table_id, assignment[i]});
        }
        AddEdgeCounted(std::move(edge), fb.constraint_index);
        return;
      }
      if (atom == pin) {
        self(self, atom + 1);
        return;
      }
      const Table& table = catalog_.table(dc.atoms()[atom].table_id);
      for (uint32_t r = 0; r < table.NumRows(); ++r) {
        if (!table.IsLive(r)) continue;
        assignment[atom] = r;
        self(self, atom + 1);
      }
    };
    recurse(recurse, 0);
  }
  return Status::OK();
}

bool IncrementalDetector::HasLiveParent(const ForeignKey& fk,
                                        const Row& key) const {
  bool found = false;
  catalog_.table(fk.fk->parent_table())
      .ForEachKeyMatch(fk.fk->parent_columns(), key, [&](uint32_t) {
        found = true;
        return false;
      });
  return found;
}

bool IncrementalDetector::IsOrphanUnder(const ForeignKey& fk,
                                        RowId child) const {
  if (child.table != fk.fk->child_table()) return false;
  Row key;
  if (!ExtractKey(catalog_.table(child.table).row(child.row),
                  fk.fk->child_columns(), &key)) {
    return true;  // NULL-keyed children are permanent orphans
  }
  return !HasLiveParent(fk, key);
}

Status IncrementalDetector::InsertFk(const ForeignKey& fk, RowId rid) {
  if (rid.table == fk.fk->child_table() && IsOrphanUnder(fk, rid)) {
    AddEdgeCounted({rid}, fk.constraint_index);
  }
  if (rid.table != fk.fk->parent_table()) return Status::OK();
  Row key;
  if (!ExtractKey(catalog_.table(rid.table).row(rid.row),
                  fk.fk->parent_columns(), &key)) {
    return Status::OK();  // NULL-keyed parents match no child
  }
  // Only the first live parent of a key cures anything; rid itself is one.
  size_t live_parents = 0;
  catalog_.table(rid.table).ForEachKeyMatch(
      fk.fk->parent_columns(), key, [&](uint32_t) {
        return ++live_parents < 2;
      });
  if (live_parents != 1) return Status::OK();
  // The matching children are orphans no longer — retract their unary
  // edges.
  catalog_.table(fk.fk->child_table())
      .ForEachKeyMatch(fk.fk->child_columns(), key, [&](uint32_t c) {
        RowId child_id{fk.fk->child_table(), c};
        // Find this FK's unary edge among the child's incident edges. The
        // canonical {child} edge is shared by every constraint that
        // orphans this row, with the provenance of the first of them; it
        // only carries this FK's index when this FK was that first one.
        // A copy: RemoveEdge rewrites the incidence list.
        std::vector<ConflictHypergraph::EdgeId> incident =
            graph_->IncidentEdges(child_id);
        for (ConflictHypergraph::EdgeId e : incident) {
          if (graph_->edge_constraint(e) != fk.constraint_index ||
              graph_->edge(e).size() != 1) {
            continue;
          }
          graph_->RemoveEdge(e);
          ++stats_.edges_removed;
          // If another FK still orphans this child, the violation survives
          // the cure: revive the edge under the first such FK, matching a
          // fresh detection run's provenance.
          for (const ForeignKey& other : fks_) {
            if (&other != &fk && IsOrphanUnder(other, child_id)) {
              AddEdgeCounted({child_id}, other.constraint_index);
              break;
            }
          }
        }
        return true;
      });
  return Status::OK();
}

Status IncrementalDetector::OnInsert(RowId rid) {
  ++stats_.inserts;
  for (const Unary& u : unary_) {
    if (u.dc->atoms()[0].table_id == rid.table) {
      HIPPO_RETURN_NOT_OK(InsertUnary(u, rid));
    }
  }
  for (const BinaryEqui& be : binary_) {
    if (be.dc->atoms()[0].table_id == rid.table ||
        be.dc->atoms()[1].table_id == rid.table) {
      HIPPO_RETURN_NOT_OK(InsertBinaryEqui(be, rid));
    }
  }
  for (const Fallback& fb : fallback_) {
    bool touches = false;
    for (const ConstraintAtom& atom : fb.dc->atoms()) {
      if (atom.table_id == rid.table) touches = true;
    }
    if (touches) HIPPO_RETURN_NOT_OK(InsertFallback(fb, rid));
  }
  for (const ForeignKey& fk : fks_) {
    if (rid.table == fk.fk->child_table() ||
        rid.table == fk.fk->parent_table()) {
      HIPPO_RETURN_NOT_OK(InsertFk(fk, rid));
    }
  }
  return Status::OK();
}

// --- delete ----------------------------------------------------------------

Status IncrementalDetector::DeleteFk(const ForeignKey& fk, RowId rid) {
  // A deleted child's own orphan edge (if any) fell with
  // RemoveIncidentEdges; only a deleted parent can create edges.
  if (rid.table != fk.fk->parent_table()) return Status::OK();
  Row key;
  if (!ExtractKey(catalog_.table(rid.table).row(rid.row),
                  fk.fk->parent_columns(), &key) ||
      HasLiveParent(fk, key)) {
    return Status::OK();
  }
  // Last parent gone: the matching children become orphans.
  catalog_.table(fk.fk->child_table())
      .ForEachKeyMatch(fk.fk->child_columns(), key, [&](uint32_t c) {
        AddEdgeCounted({RowId{fk.fk->child_table(), c}}, fk.constraint_index);
        return true;
      });
  return Status::OK();
}

Status IncrementalDetector::OnDelete(RowId rid) {
  ++stats_.deletes;
  // Denial constraints are anti-monotone: deleting a tuple only removes
  // violations, all of which are incident to it.
  stats_.edges_removed += graph_->RemoveIncidentEdges(rid);
  for (const ForeignKey& fk : fks_) {
    HIPPO_RETURN_NOT_OK(DeleteFk(fk, rid));
  }
  return Status::OK();
}

}  // namespace hippo
