// Query router: classifies a bound SJUD plan into the cheapest *sound*
// engine for consistent query answering (DESIGN.md §6).
//
// Three routes exist, in decreasing order of preference:
//
//   1. kConflictFree — no live hyperedge touches any table the plan reads,
//      so every base fact involved is in every repair and plain evaluation
//      of the original plan *is* the certain answer. O(query) — no
//      per-candidate work at all.
//   2. kRewriteAbc / kRewriteKw — the query is first-order rewritable:
//      plain evaluation of a rewritten plan returns the certain answers.
//      ABC (Arenas–Bertossi–Chomicki) covers quantifier-free conjunctive
//      plans (safe projection) under universal binary constraints;
//      Koutris–Wijsen covers self-join-free conjunctive queries with
//      narrowing projection over single-key tables when the attack graph
//      is acyclic.
//   3. kProver — the paper's envelope → candidates → HProver pipeline, the
//      sound fallback for everything CheckSjudSupported admits.
//
// The classifier is *exact* for the rewriting class by construction: route
// eligibility is decided by attempting the rewrite itself (the decision
// carries the rewritten plan), so the classifier and the rewriter cannot
// drift apart.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "hypergraph/hypergraph.h"
#include "plan/logical_plan.h"

namespace hippo {

/// Which engine a query was (or must be) dispatched to.
enum class RouteKind : uint8_t {
  kNone = 0,       ///< not yet routed
  kConflictFree,   ///< plain evaluation (no conflicts touch the plan's tables)
  kRewriteAbc,     ///< first-order rewriting, Arenas–Bertossi–Chomicki residues
  kRewriteKw,      ///< first-order rewriting, Koutris–Wijsen certain rewriting
  kProver,         ///< envelope + knowledge gathering + HProver
};

/// Route override in HippoOptions: kAuto picks the cheapest sound route;
/// the force modes pin one route and fail with NotSupported when that route
/// cannot soundly serve the query.
enum class RouteMode : uint8_t {
  kAuto = 0,
  kForceConflictFree,
  kForceRewrite,
  kForceProver,
};

const char* RouteKindName(RouteKind k);
const char* RouteModeName(RouteMode m);

/// The classifier's verdict: the chosen route, a one-line justification,
/// and — for rewrite routes — the plan whose plain evaluation returns the
/// certain answers.
struct RouteDecision {
  RouteKind kind = RouteKind::kNone;
  std::string reason;
  PlanNodePtr rewritten;  ///< set iff kind is kRewriteAbc / kRewriteKw
};

// ---------------------------------------------------------------------------
// Building blocks (exposed for unit tests and the rewriter).

/// One atom of a conjunctive plan: a base-table scan occupying columns
/// [offset, offset+width) of the concatenated join schema.
struct ConjunctiveAtom {
  uint32_t table_id = 0;
  std::string table_name;
  std::string alias;
  size_t offset = 0;
  size_t width = 0;
  const ScanNode* scan = nullptr;  ///< borrowed from the analyzed plan
};

/// A conjunctive (select-project-join) plan in normal form. Produced by
/// DecomposeConjunctive; consumed by the Koutris–Wijsen rewriter and the
/// attack-graph test.
struct ConjunctiveShape {
  std::vector<ConjunctiveAtom> atoms;
  size_t total_width = 0;

  /// Per-atom local predicates, bound over that atom's scan schema
  /// (indexes 0..width). Includes implied intra-atom equalities from the
  /// join equivalence classes and any constant (column-free) conjuncts
  /// (attached to atom 0; a FALSE constant empties the result through any
  /// route, so the placement is semantically irrelevant).
  std::vector<std::vector<ExprPtr>> atom_local;

  /// Variable equivalence classes over global column positions: two
  /// positions share a class iff chained by join equalities. class_of has
  /// one entry per global position.
  std::vector<size_t> class_of;
  size_t num_classes = 0;
  /// A representative global position per class (the smallest).
  std::vector<size_t> class_rep;

  /// Output columns of the root projection, as global positions (the
  /// projection expressions are required to be plain column references).
  std::vector<size_t> project_cols;
  const ProjectNode* project = nullptr;  ///< borrowed: output names/types
  const SortNode* root_sort = nullptr;   ///< borrowed: optional ORDER BY

  /// Classes of the projected columns, deduplicated, in first-use order.
  std::vector<size_t> FreeClasses() const;
};

/// Decomposes Sort?(Project(joins/filters/scans)) into ConjunctiveShape.
/// NotSupported when the plan is not conjunctive (set operations,
/// anti-joins, aggregates, rowid scans, computed projections) or when a
/// cross-atom predicate is anything but a column=column equality.
Result<ConjunctiveShape> DecomposeConjunctive(const PlanNode& plan);

/// The Koutris–Wijsen attack graph over the atoms of a self-join-free
/// conjunctive query. attacks[f][g] is true when atom f attacks atom g:
/// there is a path f = a0, a1, ..., ak = g (intermediate atoms distinct
/// from f) where consecutive atoms share a variable class outside F+, the
/// closure of key(f) ∪ free variables under the key-to-variables
/// dependencies of the *other* atoms.
struct AttackGraph {
  size_t num_atoms = 0;
  std::vector<std::vector<bool>> attacks;  ///< [from][to], from != to
  bool acyclic = true;

  /// An atom no other atom attacks (the recursion pivot of the rewriting);
  /// std::nullopt iff every atom is attacked (implies a cycle).
  std::optional<size_t> UnattackedAtom() const;
};

/// Builds the attack graph from per-atom key/variable classes and the free
/// (projected) classes. key_classes[i] ⊆ var_classes[i] for every atom.
AttackGraph BuildAttackGraph(
    const std::vector<std::vector<size_t>>& key_classes,
    const std::vector<std::vector<size_t>>& var_classes,
    const std::vector<size_t>& free_classes, size_t num_classes);

/// The primary-key column indexes of `table_id` for the Koutris–Wijsen
/// class: the table must have either no constraints at all (key = whole
/// row; no two distinct tuples conflict) or exactly one constraint, an FD
/// whose lhs ∪ rhs covers every column (a primary key), and must not play
/// a role in any foreign key. NotSupported otherwise.
Result<std::vector<size_t>> KwKeyColumns(
    uint32_t table_id, const Catalog& catalog,
    const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys);

/// Base-table ids read by the plan.
std::unordered_set<uint32_t> CollectPlanTables(const PlanNode& plan);

/// True when some live hyperedge has a vertex in one of `tables`.
/// O(|tables|): reads the graph's per-table conflicting-vertex counts.
bool AnyEdgeTouchesTables(const ConflictHypergraph& graph,
                          const std::unordered_set<uint32_t>& tables);

/// True when the live conflicts touching `table_id` form a disjoint union
/// of same-table cliques (a cluster graph). This is the completeness gate
/// for the Koutris–Wijsen route under SQL NULLs: the detector's NULL
/// semantics can leave a key block with a *non-transitive* conflict graph
/// (t1 conflicts t2, t2 conflicts t3, but t1 and t3 agree because a NULL
/// hides the difference), and on such instances "every repair contains a
/// good tuple" is no longer first-order expressible — the certain-answer
/// rewriting would silently drop answers. Clique blocks restore the
/// classic one-choice-per-block repair structure the KW theorem needs.
/// False also when an edge touching the table is not a same-table binary
/// edge (unexpected for a KW-eligible table; the caller falls back).
bool TableConflictsAreCliques(const ConflictHypergraph& graph,
                              uint32_t table_id);

/// The relaxed admission test for the conflict-free route: like
/// CheckSjudSupported but narrowing / computed projections are allowed
/// (plain evaluation needs no candidate-to-base-tuple traceability).
/// Aggregates, rowid scans and inner sorts stay rejected.
Status CheckConflictFreeRoutable(const PlanNode& plan);

// ---------------------------------------------------------------------------

/// Classifies `plan` under `mode`. `constraints` / `foreign_keys` may be
/// null (rewriting unavailable); `graph` may be null (conflict-free route
/// unavailable). In kAuto the order is conflict-free → rewriting → prover;
/// a forced mode returns NotSupported when its route is unsound for the
/// query.
Result<RouteDecision> ClassifyRoute(
    const PlanNode& plan, const Catalog& catalog,
    const std::vector<DenialConstraint>* constraints,
    const std::vector<ForeignKeyConstraint>* foreign_keys,
    const ConflictHypergraph* graph, RouteMode mode);

}  // namespace hippo
