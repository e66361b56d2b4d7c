// Human-readable conflict report over a read view (a Database's View() or
// a service::Snapshot): the inspection side of the demo ("demonstrate that
// ... we can extract more information from an inconsistent database").
// Backs the `hippo_check` command-line tool and the shell's `.report`.
#pragma once

#include <string>

#include "common/status.h"

namespace hippo {

class ReadView;

struct ConflictReportOptions {
  /// Maximum example violations rendered per constraint.
  size_t max_examples = 3;
  /// Bound on repair counting (counting is exponential; past the bound the
  /// report says "more than <bound>").
  size_t repair_limit = 10000;
};

/// Renders: per-constraint violation counts with example witnesses (tuple
/// values, not just RowIds), hypergraph statistics, the consistency
/// verdict, and the number of repairs. `view` must carry a hypergraph.
Result<std::string> GenerateConflictReport(
    const ReadView& view, const ConflictReportOptions& options = {});

}  // namespace hippo
