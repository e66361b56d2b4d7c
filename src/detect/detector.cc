#include "detect/detector.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>

#include "common/str_util.h"
#include "exec/executor.h"
#include "exec/operators.h"

namespace hippo {

namespace {

/// Probe rows per BatchJoinChain::Probe call: a unit probes its row range
/// in slices of this many rows and stages each slice's witnesses before
/// probing the next, so the index-tuple buffer stays bounded however
/// dense the conflict blocks are.
constexpr size_t kProbeSliceRows = 1024;

/// Remaps a condition bound over the plain combined schema onto the layout
/// produced by rowid-emitting scans, where atom k's columns are shifted
/// right by k (one $rowid column per preceding atom).
ExprPtr RemapForRowidLayout(const Expr& condition,
                            const DenialConstraint& dc) {
  ExprPtr remapped = condition.Clone();
  VisitColumnRefs(remapped.get(), [&dc](ColumnRefExpr* ref) {
    int idx = ref->index();
    int atom = 0;
    for (size_t i = 0; i < dc.arity(); ++i) {
      if (static_cast<size_t>(idx) <
          dc.atom_offset(i) + dc.atom_width(i)) {
        atom = static_cast<int>(i);
        break;
      }
    }
    ref->ShiftIndex(atom);
  });
  return remapped;
}

}  // namespace

Status DetectOptions::Validate() const {
  if (partition_rows == 0) {
    return Status::InvalidArgument(
        "DetectOptions::partition_rows must be >= 1 (use SIZE_MAX to "
        "disable probe-side partitioning of denial constraints and foreign "
        "keys)");
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        StrFormat("DetectOptions::num_threads = %zu exceeds the sanity "
                  "bound of %zu (0 means \"all hardware threads\")",
                  num_threads, kMaxThreads));
  }
  return Status::OK();
}

GenericJoinShape ShapeGenericJoin(const DenialConstraint& dc) {
  struct Pending {
    ExprPtr expr;
    int last_atom;
  };
  std::vector<Pending> conjuncts;
  if (dc.condition() != nullptr) {
    ExprPtr remapped = RemapForRowidLayout(*dc.condition(), dc);
    // Offsets in the rowid layout: atom i starts at atom_offset(i) + i.
    for (const Expr* part : SplitConjuncts(*remapped)) {
      Pending p;
      p.expr = part->Clone();
      p.last_atom = 0;
      for (int idx : CollectColumnIndexes(*p.expr)) {
        for (int i = static_cast<int>(dc.arity()) - 1; i >= 0; --i) {
          size_t start = dc.atom_offset(static_cast<size_t>(i)) +
                         static_cast<size_t>(i);
          if (static_cast<size_t>(idx) >= start) {
            p.last_atom = std::max(p.last_atom, i);
            break;
          }
        }
      }
      conjuncts.push_back(std::move(p));
    }
  }
  GenericJoinShape shape;
  shape.level_conds.resize(dc.arity());
  for (size_t i = 1; i < dc.arity(); ++i) {
    std::vector<ExprPtr> conds;
    for (Pending& p : conjuncts) {
      if (p.expr != nullptr && p.last_atom == static_cast<int>(i)) {
        conds.push_back(std::move(p.expr));
      }
    }
    if (!conds.empty()) shape.level_conds[i] = AndAll(std::move(conds));
  }
  std::vector<ExprPtr> rest;
  for (Pending& p : conjuncts) {
    if (p.expr != nullptr) rest.push_back(std::move(p.expr));
  }
  if (!rest.empty()) shape.final_filter = AndAll(std::move(rest));
  return shape;
}

ExprPtr ForeignKeyCondition(const Catalog& catalog,
                            const ForeignKeyConstraint& fk) {
  const Schema& child = catalog.table(fk.child_table()).schema();
  const Schema& parent = catalog.table(fk.parent_table()).schema();
  // The child side carries the trailing rowid column, so parent column
  // refs shift by left_width = child columns + 1.
  size_t left_width = child.NumColumns() + 1;
  std::vector<ExprPtr> eqs;
  for (size_t i = 0; i < fk.child_columns().size(); ++i) {
    size_t ci = fk.child_columns()[i];
    size_t pi = fk.parent_columns()[i];
    eqs.push_back(std::make_unique<ComparisonExpr>(
        CompareOp::kEq, ColumnRefExpr::Bound(ci, child.column(ci).type),
        ColumnRefExpr::Bound(left_width + pi, parent.column(pi).type)));
    eqs.back()->set_result_type(TypeId::kBool);
  }
  return AndAll(std::move(eqs));
}

/// Shared read-only probe state of one denial constraint: every
/// atom's rowid-emitting columnar scan (shared with the table's view; the
/// physical index IS the RowId row), the constraint's join shape, and the
/// index-tuple join chain built over them. Built exactly once per
/// DetectAll (under `once`, by whichever partition's worker arrives
/// first); afterwards every row-range partition probes it concurrently
/// without duplicating any build work.
struct ConflictDetector::GenericShared {
  std::once_flag once;
  std::vector<ColumnBatch> inputs;  ///< per atom; [0] is the probe side
  GenericJoinShape shape;
  std::optional<exec::BatchJoinChain> chain;
};

/// Shared read-only state of one foreign key's orphan anti-join: the
/// columnar child (with rowid column) and parent scans plus the anti-join
/// build table over the parent keys.
struct ConflictDetector::FkShared {
  std::once_flag once;
  ColumnBatch child;
  ColumnBatch parent;
  ExprPtr condition;
  std::optional<exec::BatchAntiJoinProbe> probe;
};

Status ConflictDetector::DetectGenericPartitionInto(
    const DenialConstraint& dc, uint32_t constraint_index,
    GenericShared* shared, size_t partition, size_t num_partitions,
    EdgeBuffer* out, DetectStats* stats) const {
  if (num_partitions > 1) ++stats->generic_partitions;

  std::call_once(shared->once, [&] {
    shared->inputs.reserve(dc.arity());
    for (size_t i = 0; i < dc.arity(); ++i) {
      const Table& table = catalog_.table(dc.atoms()[i].table_id);
      shared->inputs.push_back(
          ScanTableBatch(table, /*emit_rowid=*/true, nullptr));
    }
    shared->shape = ShapeGenericJoin(dc);
    std::vector<exec::BatchJoinChain::LevelSpec> levels;
    for (size_t i = 1; i < dc.arity(); ++i) {
      levels.push_back(
          {&shared->inputs[i], shared->shape.level_conds[i].get()});
    }
    shared->chain.emplace(&shared->inputs[0], std::move(levels),
                          shared->shape.final_filter.get());
  });

  // An FD's self-join finds every violating pair in both orders and never
  // pairs a row with itself (its condition is symmetric and needs a
  // differing dependent), so only the order whose atom-0 slot is the
  // smaller one is staged. Checked here rather than as a join conjunct,
  // which would run on every candidate pair, self-pairs included.
  const bool stage_once = dc.fd_info().has_value();

  // Index-tuple probe over the shared columnar scans. The scan's physical
  // index IS the RowId row, so witness rowids come straight from
  // Physical() — no gather, no Value round-trip.
  const std::vector<ColumnBatch>& inputs = shared->inputs;
  size_t probe_rows = inputs[0].NumRows();
  size_t begin = probe_rows * partition / num_partitions;
  size_t end = probe_rows * (partition + 1) / num_partitions;
  size_t arity = shared->chain->tuple_arity();
  std::vector<uint32_t> tuples;
  for (size_t lo = begin; lo < end; lo += kProbeSliceRows) {
    tuples.clear();
    shared->chain->Probe(lo, std::min(end, lo + kProbeSliceRows), &tuples);
    for (size_t t = 0; t + arity <= tuples.size(); t += arity) {
      if (stage_once && inputs[0].Physical(tuples[t]) >=
                            inputs[1].Physical(tuples[t + 1])) {
        continue;
      }
      std::vector<RowId> edge;
      edge.reserve(dc.arity());
      for (size_t i = 0; i < dc.arity(); ++i) {
        edge.push_back(RowId{dc.atoms()[i].table_id,
                             inputs[i].Physical(tuples[t + i])});
      }
      out->Add(std::move(edge), constraint_index);
    }
  }
  return Status::OK();
}

Status ConflictDetector::DetectForeignKeyPartitionInto(
    const ForeignKeyConstraint& fk, uint32_t constraint_index,
    FkShared* shared, size_t partition, size_t num_partitions,
    EdgeBuffer* out, DetectStats* stats) const {
  if (num_partitions > 1) ++stats->fk_partitions;

  std::call_once(shared->once, [&] {
    shared->child = ScanTableBatch(catalog_.table(fk.child_table()),
                                   /*emit_rowid=*/true, nullptr);
    shared->parent = ScanTableBatch(catalog_.table(fk.parent_table()),
                                    /*emit_rowid=*/false, nullptr);
    // The anti-join keeps child rows with NO parent match: the orphans.
    shared->condition = ForeignKeyCondition(catalog_, fk);
    shared->probe.emplace(&shared->child, &shared->parent,
                          shared->condition.get());
  });

  size_t child_rows = shared->child.NumRows();
  size_t begin = child_rows * partition / num_partitions;
  size_t end = child_rows * (partition + 1) / num_partitions;
  std::vector<uint32_t> orphans;
  shared->probe->Probe(begin, end, &orphans);
  for (uint32_t idx : orphans) {
    out->Add({RowId{fk.child_table(), shared->child.Physical(idx)}},
             constraint_index);
  }
  return Status::OK();
}

Result<ConflictHypergraph> ConflictDetector::DetectAll(
    const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys) {
  HIPPO_RETURN_NOT_OK(options_.Validate());
  size_t num_threads = ResolveThreadCount(options_.num_threads);

  /// One schedulable piece of a DetectAll run: a denial constraint or a
  /// foreign key, whole or one probe-side row-range partition of it. The
  /// units of one constraint carry the same shared build state (built
  /// once, by the first worker to arrive); exactly one of `generic` and
  /// `fk` is set.
  struct Unit {
    size_t list_index = 0;          ///< index into constraints/foreign_keys
    uint32_t constraint_index = 0;  ///< global provenance index
    size_t part = 0;                ///< partition ordinal
    size_t num_parts = 1;
    std::shared_ptr<GenericShared> generic;
    std::shared_ptr<FkShared> fk;
  };

  // A constraint over `rows` probe rows splits into at most one unit per
  // worker (more would only add scheduling overhead), and not at all at or
  // below partition_rows, so tiny constraints stay single-unit.
  std::vector<Unit> units;
  auto add_units = [&](Unit unit, size_t rows) {
    size_t threshold = options_.partition_rows;
    if (rows > threshold) {
      unit.num_parts =
          std::min(num_threads, (rows + threshold - 1) / threshold);
    }
    for (size_t p = 0; p < unit.num_parts; ++p) {
      unit.part = p;
      units.push_back(unit);
    }
  };
  for (size_t i = 0; i < constraints.size(); ++i) {
    Unit unit;
    unit.list_index = i;
    unit.constraint_index = static_cast<uint32_t>(i);
    unit.generic = std::make_shared<GenericShared>();
    add_units(std::move(unit),
              catalog_.table(constraints[i].atoms()[0].table_id)
                  .NumLiveRows());
  }
  for (size_t i = 0; i < foreign_keys.size(); ++i) {
    Unit unit;
    unit.list_index = i;
    unit.constraint_index = static_cast<uint32_t>(constraints.size() + i);
    unit.fk = std::make_shared<FkShared>();
    add_units(std::move(unit),
              catalog_.table(foreign_keys[i].child_table()).NumLiveRows());
  }

  // Each unit stages into its own buffer (indexed by unit, not worker, so
  // nothing about the output depends on the scheduling). A finished unit
  // drops its reference to the build state, so the last unit of a
  // constraint frees it.
  std::vector<EdgeBuffer> buffers(units.size());
  auto run_unit = [&](size_t u, DetectStats* stats) {
    Unit& unit = units[u];
    Status st =
        unit.generic != nullptr
            ? DetectGenericPartitionInto(
                  constraints[unit.list_index], unit.constraint_index,
                  unit.generic.get(), unit.part, unit.num_parts, &buffers[u],
                  stats)
            : DetectForeignKeyPartitionInto(
                  foreign_keys[unit.list_index], unit.constraint_index,
                  unit.fk.get(), unit.part, unit.num_parts, &buffers[u],
                  stats);
    unit.generic.reset();
    unit.fk.reset();
    return st;
  };

  ConflictHypergraph graph;
  if (num_threads <= 1) {
    // Serial: flush each unit's buffer as it finishes, so edge ids follow
    // constraint order, then discovery order (oracle::DetectAllRows's).
    for (size_t u = 0; u < units.size(); ++u) {
      HIPPO_RETURN_NOT_OK(run_unit(u, &stats_));
      for (EdgeBuffer::StagedEdge& e : buffers[u].mutable_entries()) {
        graph.AddEdge(std::move(e.vertices), e.constraint_index);
      }
      buffers[u] = EdgeBuffer();
    }
    return graph;
  }

  // Fan out: workers pull units off a shared counter.
  size_t workers = std::min(num_threads, units.size());
  std::vector<DetectStats> worker_stats(workers);
  std::vector<Status> worker_status(workers);
  std::atomic<size_t> next{0};
  auto run_worker = [&](size_t w) {
    for (;;) {
      size_t u = next.fetch_add(1);
      if (u >= units.size()) return;
      Status st = run_unit(u, &worker_stats[w]);
      if (!st.ok()) {
        worker_status[w] = std::move(st);
        return;
      }
    }
  };
  if (workers <= 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) threads.emplace_back(run_worker, w);
    for (std::thread& t : threads) t.join();
  }
  for (size_t w = 0; w < workers; ++w) {
    HIPPO_RETURN_NOT_OK(worker_status[w]);
    stats_.generic_partitions += worker_stats[w].generic_partitions;
    stats_.fk_partitions += worker_stats[w].fk_partitions;
  }
  graph.BulkLoad(std::move(buffers));
  return graph;
}

}  // namespace hippo
