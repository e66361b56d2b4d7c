// Algebraic plan optimizer: filter pushdown and product-to-join conversion.
//
// The planner already places WHERE/ON conjuncts well for the plans it
// builds itself, but plans assembled programmatically (tests, the rewriting
// baseline's residue trees, set-operation compositions) can carry filters
// far above the scans they constrain. This pass normalizes any bound plan:
//
//   * adjacent filters merge (Filter(Filter(x)) -> one conjunction);
//   * filters commute with Sort and rename-only Projects;
//   * filters split across Products/Joins: single-side conjuncts sink into
//     the side they constrain, cross-side conjuncts become (or extend) the
//     join condition — turning filtered cartesian products into hash joins;
//   * filters distribute into both children of Union/Intersect/Difference
//     (sound under set semantics: a set-op output row appears verbatim in
//     the inputs);
//   * TRUE conjuncts are dropped.
//
// The optimizer is applied to plain evaluation paths only, which include
// the first-order CQA routes (conflict-free and rewritten plans). The
// prover's envelope/knowledge-gathering pipeline interprets plan
// *structure* (it grounds membership per subexpression), so its plans are
// left exactly as the enveloping step built them.
#pragma once

#include "plan/logical_plan.h"

namespace hippo {

/// Returns an optimized copy of `plan` (the input is not modified).
/// Idempotent; preserves the output schema and, under set semantics, the
/// result set of every bound plan.
PlanNodePtr OptimizePlan(const PlanNode& plan);

}  // namespace hippo
