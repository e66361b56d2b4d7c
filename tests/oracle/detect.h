// Reference conflict detectors the production detector is tested against.
//
// DetectAllRows is ConflictDetector::DetectAll's serial path on the row
// kernels (row_engine.h): the same join shape (ShapeGenericJoin) and FK
// orphan condition (ForeignKeyCondition), so it numbers edges exactly like
// a serial DetectAll. It stages every witness, including the mirrored
// order of each FD pair that the detector skips; AddEdge collapses those,
// so the comparison also checks that the detector's skip loses no edge.
// NaiveDetect shares nothing with the detector: nested loops over live
// rows, no join plans, no partitions.
#pragma once

#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "hypergraph/hypergraph.h"

namespace hippo::oracle {

/// Serial detection on the row kernels: the generic join of every denial
/// constraint in order, then the orphan anti-join of every foreign key
/// (constraint indexes following the denial constraints'), each edge
/// added in discovery order.
Result<ConflictHypergraph> DetectAllRows(
    const Catalog& catalog, const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys);

/// Naive reference: enumerate every assignment of live rows to the atoms
/// of every denial constraint (with repetition — a tuple may satisfy a
/// multi-atom constraint with itself; AddEdge collapses {t, t} to a unary
/// edge exactly like the executor's self-join does) and every child row of
/// every foreign key. Quadratic/cubic in the instance — only for tiny
/// inputs.
ConflictHypergraph NaiveDetect(
    const Catalog& catalog, const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys);

}  // namespace hippo::oracle
