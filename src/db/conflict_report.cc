#include "db/conflict_report.h"

#include <vector>

#include "common/str_util.h"
#include "db/read_view.h"

namespace hippo {

namespace {

std::string RenderTuple(const Catalog& catalog, RowId rid) {
  const Table& table = catalog.table(rid.table);
  std::string out = table.name() + "(";
  const Row& row = table.row(rid.row);
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace

Result<std::string> GenerateConflictReport(
    const ReadView& view, const ConflictReportOptions& options) {
  const ConflictHypergraph& graph = view.hypergraph();

  // Constraint display names in DetectAll's index order: denial
  // constraints first, then foreign keys.
  std::vector<std::string> names;
  for (const DenialConstraint& dc : view.constraints()) {
    names.push_back(dc.ToString());
  }
  for (const ForeignKeyConstraint& fk : view.foreign_keys()) {
    names.push_back(fk.ToString());
  }

  // Per-constraint edge counts and examples.
  std::vector<size_t> counts(names.size(), 0);
  std::vector<std::vector<ConflictHypergraph::EdgeId>> examples(names.size());
  for (ConflictHypergraph::EdgeId e = 0; e < graph.NumEdgeSlots(); ++e) {
    if (!graph.EdgeAlive(e)) continue;
    uint32_t c = graph.edge_constraint(e);
    if (c >= counts.size()) {
      return Status::Internal("edge with out-of-range constraint index");
    }
    ++counts[c];
    if (examples[c].size() < options.max_examples) {
      examples[c].push_back(e);
    }
  }

  std::string out;
  out += "== conflict report ==\n";
  out += StrFormat("tables: %zu   live tuples: %zu\n",
                   view.catalog().TableNames().size(),
                   view.catalog().TotalRows());
  out += graph.StatsString() + "\n\n";

  for (size_t c = 0; c < names.size(); ++c) {
    out += StrFormat("[%zu] %s\n", c, names[c].c_str());
    out += StrFormat("     violations: %zu\n", counts[c]);
    for (ConflictHypergraph::EdgeId e : examples[c]) {
      out += "     e.g. {";
      const std::vector<RowId>& edge = graph.edge(e);
      for (size_t i = 0; i < edge.size(); ++i) {
        if (i > 0) out += " , ";
        out += RenderTuple(view.catalog(), edge[i]);
      }
      out += "}\n";
    }
  }
  out += "\n";

  if (graph.NumEdges() == 0) {
    out += "verdict: CONSISTENT (every constraint satisfied)\n";
    return out;
  }
  out += "verdict: INCONSISTENT\n";
  auto repairs = view.CountRepairs(options.repair_limit);
  if (repairs.ok()) {
    out += StrFormat("repairs: %zu\n", repairs.value());
  } else {
    out += StrFormat("repairs: more than %zu\n", options.repair_limit);
  }
  out +=
      "consistent query answering remains available; conflicting tuples are "
      "adjudicated per query by the prover.\n";
  return out;
}

}  // namespace hippo
