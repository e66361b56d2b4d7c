#include "exec/executor.h"

#include <algorithm>

#include "common/parallel.h"
#include "exec/batch_eval.h"
#include "exec/operators.h"
#include "expr/evaluator.h"

namespace hippo {

bool ResultSet::Contains(const Row& row) const {
  for (const Row& r : rows) {
    if (r == row) return true;
  }
  return false;
}

void ResultSet::SortRows() {
  std::sort(rows.begin(), rows.end(), RowLess);
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out = schema.ToString();
  out += "\n";
  size_t shown = std::min(max_rows, rows.size());
  for (size_t i = 0; i < shown; ++i) {
    out += RowToString(rows[i]);
    out += "\n";
  }
  if (shown < rows.size()) {
    out += "... (" + std::to_string(rows.size() - shown) + " more)\n";
  }
  return out;
}

size_t ExecPartitionsFor(size_t rows, const ExecParallel& parallel) {
  size_t threads = ResolveThreadCount(parallel.num_threads);
  if (threads <= 1) return 1;
  size_t min_rows = std::max<size_t>(1, parallel.min_partition_rows);
  if (rows <= min_rows) return 1;
  return std::min(threads, (rows + min_rows - 1) / min_rows);
}

ColumnBatch ScanTableBatch(const Table& table, bool emit_rowid,
                           const RowMask* mask) {
  std::shared_ptr<const TableColumns> view = table.columnar();
  std::vector<ColumnVectorPtr> cols = view->columns;
  if (emit_rowid) cols.push_back(view->rowids);
  // Keep the immutable view alive as long as any column is referenced:
  // the columns are shared_ptrs into it, so sharing them suffices.
  bool all_live = table.NumLiveRows() == table.NumRows();
  bool masked = mask != nullptr && mask->HasEntry(table.id());
  if (all_live && !masked) {
    return ColumnBatch(std::move(cols), view->num_slots);
  }
  auto sel = std::make_shared<std::vector<uint32_t>>();
  sel->reserve(table.NumLiveRows());
  for (uint32_t i = 0; i < table.NumRows(); ++i) {
    if (!table.IsLive(i)) continue;
    if (masked && !mask->Allows(RowId{table.id(), i})) continue;
    sel->push_back(i);
  }
  return ColumnBatch(std::move(cols), view->num_slots, std::move(sel));
}

namespace {

// Every case produces the same logical rows in the same order as the row
// oracle (tests/oracle/row_engine.h): filters and anti-joins narrow
// selection vectors over shared columns, joins gather index tuples, and
// the row-semantics operators (set ops, aggregation) round-trip through
// the row kernels so there is exactly one implementation of their
// semantics.

std::vector<TypeId> SchemaTypes(const Schema& schema) {
  std::vector<TypeId> types;
  types.reserve(schema.NumColumns());
  for (const Column& c : schema.columns()) types.push_back(c.type);
  return types;
}

Result<ColumnBatch> ExecuteBatch(const PlanNode& plan,
                                 const ExecContext& ctx);

/// Partition-parallel index collector: runs `fn(begin, end, &slice)` over
/// contiguous row ranges of [0, n) and concatenates the uint32 outputs of
/// the batch kernels (index tuples, surviving indexes) in partition order —
/// bit-identical to fn(0, n, &out), since every kernel emits in input order
/// within a range.
template <typename Fn>
std::vector<uint32_t> PartitionedIndexes(size_t n,
                                         const ExecParallel& parallel,
                                         const Fn& fn) {
  size_t parts = ExecPartitionsFor(n, parallel);
  if (parts <= 1) {
    std::vector<uint32_t> out;
    fn(size_t{0}, n, &out);
    return out;
  }
  std::vector<std::vector<uint32_t>> slices(parts);
  ParallelSlices(n, parts, [&](size_t p, size_t begin, size_t end) {
    fn(begin, end, &slices[p]);
  });
  std::vector<uint32_t> out = std::move(slices[0]);
  size_t total = out.size();
  for (size_t p = 1; p < parts; ++p) total += slices[p].size();
  out.reserve(total);
  for (size_t p = 1; p < parts; ++p) {
    out.insert(out.end(), slices[p].begin(), slices[p].end());
  }
  return out;
}

ColumnBatch FilterBatch(const Expr& pred, const ColumnBatch& in,
                        const ExecParallel& parallel) {
  size_t n = in.NumRows();
  std::vector<int8_t> mask(n);
  size_t parts = ExecPartitionsFor(n, parallel);
  if (parts <= 1) {
    exec::EvalPredicateMask(pred, in, 0, n, mask.data());
  } else {
    ParallelSlices(n, parts, [&](size_t, size_t begin, size_t end) {
      exec::EvalPredicateMask(pred, in, begin, end, mask.data() + begin);
    });
  }
  auto sel = std::make_shared<std::vector<uint32_t>>();
  for (size_t i = 0; i < n; ++i) {
    if (mask[i] == exec::kTernTrue) sel->push_back(in.Physical(i));
  }
  return in.WithSelection(std::move(sel));
}

ColumnBatch ProjectBatch(const ProjectNode& proj, const ColumnBatch& in,
                         const ExecParallel& parallel) {
  bool all_refs = true;
  for (size_t e = 0; e < proj.NumExprs() && all_refs; ++e) {
    all_refs = proj.expr(e).kind() == ExprKind::kColumnRef &&
               static_cast<const ColumnRefExpr&>(proj.expr(e)).IsBound();
  }
  if (all_refs) {
    // Pure column selection: share the columns and the selection as-is.
    std::vector<ColumnVectorPtr> cols;
    cols.reserve(proj.NumExprs());
    for (size_t e = 0; e < proj.NumExprs(); ++e) {
      const auto& ref = static_cast<const ColumnRefExpr&>(proj.expr(e));
      cols.push_back(in.col_ptr(static_cast<size_t>(ref.index())));
    }
    return exec::DedupBatch(
        ColumnBatch(std::move(cols), in.physical_rows(), in.selection()));
  }
  // Computed projection: evaluate every expression densely (identity
  // selection), partitioned in row ranges and concatenated in order.
  size_t n = in.NumRows();
  size_t parts = ExecPartitionsFor(n, parallel);
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(proj.NumExprs());
  for (size_t e = 0; e < proj.NumExprs(); ++e) {
    auto col = std::make_shared<ColumnVector>(proj.expr(e).result_type());
    col->Reserve(n);
    if (parts <= 1) {
      exec::EvalExprColumn(proj.expr(e), in, 0, n, col.get());
    } else {
      std::vector<ColumnVector> slices(parts, ColumnVector(col->type()));
      ParallelSlices(n, parts, [&](size_t p, size_t begin, size_t end) {
        slices[p].Reserve(end - begin);
        exec::EvalExprColumn(proj.expr(e), in, begin, end, &slices[p]);
      });
      for (const ColumnVector& s : slices) {
        for (size_t i = 0; i < s.size(); ++i) col->AppendFrom(s, i);
      }
    }
    cols.push_back(std::move(col));
  }
  return exec::DedupBatch(ColumnBatch(std::move(cols), n));
}

ColumnBatch ProductBatch(const ColumnBatch& left, const ColumnBatch& right) {
  size_t nl = left.NumRows(), nr = right.NumRows();
  size_t n = nl * nr;
  std::vector<ColumnVectorPtr> cols;
  cols.reserve(left.NumColumns() + right.NumColumns());
  for (size_t c = 0; c < left.NumColumns(); ++c) {
    auto col = std::make_shared<ColumnVector>(left.col(c).type());
    col->Reserve(n);
    for (size_t i = 0; i < nl; ++i) {
      uint32_t p = left.Physical(i);
      for (size_t j = 0; j < nr; ++j) col->AppendFrom(left.col(c), p);
    }
    cols.push_back(std::move(col));
  }
  for (size_t c = 0; c < right.NumColumns(); ++c) {
    auto col = std::make_shared<ColumnVector>(right.col(c).type());
    col->Reserve(n);
    for (size_t i = 0; i < nl; ++i) {
      for (size_t j = 0; j < nr; ++j) {
        col->AppendFrom(right.col(c), right.Physical(j));
      }
    }
    cols.push_back(std::move(col));
  }
  return ColumnBatch(std::move(cols), n);
}

Result<ColumnBatch> ExecuteBatchNode(const PlanNode& plan,
                                     const ExecContext& ctx) {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(plan);
      const Table& table = ctx.catalog->table(scan.table_id());
      return ScanTableBatch(table, scan.emit_rowid(), ctx.mask);
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch in,
                             ExecuteBatch(plan.child(0), ctx));
      return FilterBatch(filter.predicate(), in, ctx.parallel);
    }
    case PlanKind::kProject: {
      const auto& proj = static_cast<const ProjectNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch in,
                             ExecuteBatch(plan.child(0), ctx));
      return ProjectBatch(proj, in, ctx.parallel);
    }
    case PlanKind::kProduct: {
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch left,
                             ExecuteBatch(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch right,
                             ExecuteBatch(plan.child(1), ctx));
      return ProductBatch(left, right);
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch left,
                             ExecuteBatch(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch right,
                             ExecuteBatch(plan.child(1), ctx));
      exec::BatchJoinChain chain(&left, {{&right, &join.condition()}},
                                 nullptr);
      std::vector<uint32_t> tuples = PartitionedIndexes(
          left.NumRows(), ctx.parallel,
          [&](size_t begin, size_t end, std::vector<uint32_t>* out) {
            chain.Probe(begin, end, out);
          });
      return chain.Materialize(tuples);
    }
    case PlanKind::kAntiJoin: {
      const auto& aj = static_cast<const AntiJoinNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch left,
                             ExecuteBatch(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch right,
                             ExecuteBatch(plan.child(1), ctx));
      exec::BatchAntiJoinProbe probe(&left, &right, &aj.condition());
      std::vector<uint32_t> keep = PartitionedIndexes(
          left.NumRows(), ctx.parallel,
          [&](size_t begin, size_t end, std::vector<uint32_t>* out) {
            probe.Probe(begin, end, out);
          });
      return left.Narrow(keep);
    }
    // The row-semantics operators round-trip through the row kernels: one
    // implementation of set/aggregate semantics, identical output order.
    case PlanKind::kUnion: {
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch left,
                             ExecuteBatch(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch right,
                             ExecuteBatch(plan.child(1), ctx));
      return ColumnBatch::FromRows(
          exec::UnionRows(left.ToRows(), right.ToRows()),
          SchemaTypes(plan.schema()));
    }
    case PlanKind::kDifference: {
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch left,
                             ExecuteBatch(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch right,
                             ExecuteBatch(plan.child(1), ctx));
      return ColumnBatch::FromRows(
          exec::DifferenceRows(left.ToRows(), right.ToRows()),
          SchemaTypes(plan.schema()));
    }
    case PlanKind::kIntersect: {
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch left,
                             ExecuteBatch(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch right,
                             ExecuteBatch(plan.child(1), ctx));
      return ColumnBatch::FromRows(
          exec::IntersectRows(left.ToRows(), right.ToRows()),
          SchemaTypes(plan.schema()));
    }
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch in,
                             ExecuteBatch(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> rows,
                             exec::AggregateRows(agg, in.ToRows()));
      return ColumnBatch::FromRows(rows, SchemaTypes(plan.schema()));
    }
    case PlanKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(ColumnBatch in,
                             ExecuteBatch(plan.child(0), ctx));
      bool key_refs = true;
      for (const SortNode::Key& k : sort.keys()) {
        key_refs = key_refs && k.expr->kind() == ExprKind::kColumnRef &&
                   static_cast<const ColumnRefExpr&>(*k.expr).IsBound();
      }
      if (key_refs) {
        // Sort logical indexes by key columns: zero-copy, same stable
        // order as the row sort below (CompareAt == Value::Compare).
        std::vector<uint32_t> order(in.NumRows());
        for (size_t i = 0; i < order.size(); ++i) {
          order[i] = static_cast<uint32_t>(i);
        }
        std::stable_sort(
            order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
              for (const SortNode::Key& k : sort.keys()) {
                const auto& ref =
                    static_cast<const ColumnRefExpr&>(*k.expr);
                const ColumnVector& col =
                    in.col(static_cast<size_t>(ref.index()));
                int c = col.CompareAt(in.Physical(a), col, in.Physical(b));
                if (c != 0) return k.ascending ? c < 0 : c > 0;
              }
              return false;
            });
        return in.Narrow(order);
      }
      std::vector<Row> rows = in.ToRows();
      std::stable_sort(rows.begin(), rows.end(),
                       [&sort](const Row& a, const Row& b) {
                         for (const SortNode::Key& k : sort.keys()) {
                           Value va = EvalExpr(*k.expr, a);
                           Value vb = EvalExpr(*k.expr, b);
                           int c = va.Compare(vb);
                           if (c != 0) return k.ascending ? c < 0 : c > 0;
                         }
                         return false;
                       });
      return ColumnBatch::FromRows(rows, SchemaTypes(plan.schema()));
    }
  }
  return Status::Internal("unknown plan kind in executor");
}

/// Trace-aware entry for one operator: with a trace sink, the operator
/// (and, via the child context, its whole subtree) runs inside a child span
/// that records the output cardinality.
Result<ColumnBatch> ExecuteBatch(const PlanNode& plan,
                                 const ExecContext& ctx) {
  if (ctx.trace == nullptr) return ExecuteBatchNode(plan, ctx);
  obs::TraceSpan* span = ctx.trace->StartChild(plan.NodeLabel());
  ExecContext child = ctx;
  child.trace = span;
  Result<ColumnBatch> result = ExecuteBatchNode(plan, child);
  if (result.ok()) {
    span->SetAttr("rows", static_cast<int64_t>(result.value().NumRows()));
  }
  span->End();
  return result;
}

}  // namespace

Result<ResultSet> Execute(const PlanNode& plan, const ExecContext& ctx) {
  HIPPO_CHECK(ctx.catalog != nullptr);
  HIPPO_ASSIGN_OR_RETURN(ColumnBatch batch, ExecuteBatch(plan, ctx));
  return ResultSet{plan.schema(), batch.ToRows()};
}

}  // namespace hippo
