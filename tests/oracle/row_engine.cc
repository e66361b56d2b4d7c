#include "tests/oracle/row_engine.h"

#include <algorithm>

#include "common/parallel.h"
#include "exec/operators.h"
#include "expr/evaluator.h"

namespace hippo::oracle {

namespace {

Row ConcatRow(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Row KeyOf(const Row& row, const std::vector<int>& indexes) {
  Row key;
  key.reserve(indexes.size());
  for (int i : indexes) key.push_back(row[static_cast<size_t>(i)]);
  return key;
}

/// NULL join keys never match (SQL equality semantics).
bool KeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

/// Appends `r` to `*work`, leaving restoration to the caller (resize back
/// to the recorded width) — the DFS probe reuses one buffer per thread.
void AppendRow(Row* work, const Row& r) {
  work->insert(work->end(), r.begin(), r.end());
}

}  // namespace

JoinChain::JoinChain(size_t probe_width, std::vector<LevelSpec> levels,
                     const Expr* final_filter)
    : final_filter_(final_filter), output_width_(probe_width) {
  levels_.reserve(levels.size());
  for (LevelSpec& spec : levels) {
    Level level;
    level.rows = spec.build_rows;
    level.width = spec.build_width;
    level.condition = spec.condition;
    level.has_equi = false;
    if (spec.condition != nullptr) {
      exec::JoinSplit split = exec::SplitCondition(*spec.condition, output_width_);
      if (split.HasEqui()) {
        level.has_equi = true;
        level.left_keys = std::move(split.left_keys);
        level.residual = std::move(split.residual);
        level.build.reserve(level.rows->size());
        for (uint32_t i = 0; i < level.rows->size(); ++i) {
          Row key = KeyOf((*level.rows)[i], split.right_keys);
          if (KeyHasNull(key)) continue;
          level.build[std::move(key)].push_back(i);
        }
      }
    }
    output_width_ += level.width;
    levels_.push_back(std::move(level));
  }
}

void JoinChain::Descend(size_t level, Row* work,
                        std::vector<Row>* out) const {
  if (level == levels_.size()) {
    if (final_filter_ == nullptr || EvalPredicate(*final_filter_, *work)) {
      out->push_back(*work);
    }
    return;
  }
  const Level& L = levels_[level];
  size_t prefix = work->size();
  if (L.has_equi) {
    Row key = KeyOf(*work, L.left_keys);
    if (KeyHasNull(key)) return;
    auto it = L.build.find(key);
    if (it == L.build.end()) return;
    for (uint32_t r : it->second) {
      AppendRow(work, (*L.rows)[r]);
      if (L.residual == nullptr || EvalPredicate(*L.residual, *work)) {
        Descend(level + 1, work, out);
      }
      work->resize(prefix);
    }
    return;
  }
  for (const Row& r : *L.rows) {
    AppendRow(work, r);
    if (L.condition == nullptr || EvalPredicate(*L.condition, *work)) {
      Descend(level + 1, work, out);
    }
    work->resize(prefix);
  }
}

void JoinChain::Probe(const std::vector<Row>& probe_rows, size_t begin,
                      size_t end, std::vector<Row>* out) const {
  Row work;
  work.reserve(output_width_);
  for (size_t i = begin; i < end; ++i) {
    work.assign(probe_rows[i].begin(), probe_rows[i].end());
    Descend(0, &work, out);
  }
}

AntiJoinProbe::AntiJoinProbe(const std::vector<Row>* right,
                             const Expr* condition, size_t left_width)
    : right_(right), condition_(condition) {
  exec::JoinSplit split = exec::SplitCondition(*condition, left_width);
  has_equi_ = split.HasEqui();
  if (!has_equi_) return;
  left_keys_ = std::move(split.left_keys);
  residual_ = std::move(split.residual);
  build_.reserve(right_->size());
  for (uint32_t i = 0; i < right_->size(); ++i) {
    Row key = KeyOf((*right_)[i], split.right_keys);
    if (KeyHasNull(key)) continue;
    build_[std::move(key)].push_back(i);
  }
}

void AntiJoinProbe::Probe(const std::vector<Row>& left, size_t begin,
                          size_t end, std::vector<Row>* out) const {
  for (size_t i = begin; i < end; ++i) {
    const Row& l = left[i];
    bool matched = false;
    if (has_equi_) {
      Row key = KeyOf(l, left_keys_);
      if (!KeyHasNull(key)) {
        auto it = build_.find(key);
        if (it != build_.end()) {
          if (residual_ == nullptr) {
            matched = true;
          } else {
            for (uint32_t r : it->second) {
              if (EvalPredicate(*residual_, ConcatRow(l, (*right_)[r]))) {
                matched = true;
                break;
              }
            }
          }
        }
      }
    } else {
      for (const Row& r : *right_) {
        if (EvalPredicate(*condition_, ConcatRow(l, r))) {
          matched = true;
          break;
        }
      }
    }
    if (!matched) out->push_back(l);
  }
}

void AntiJoinRows(const std::vector<Row>& left, const std::vector<Row>& right,
                  const Expr& condition, size_t left_width,
                  std::vector<Row>* out) {
  AntiJoinProbe probe(&right, &condition, left_width);
  probe.Probe(left, 0, left.size(), out);
}

namespace {

/// Partition-parallel map: runs `fn(begin, end, &slice)` over contiguous
/// row ranges of [0, n) and concatenates the slice outputs in partition
/// order — bit-identical to fn(0, n, &out) because every operator using it
/// emits rows in input order within a range.
template <typename Fn>
std::vector<Row> PartitionedRows(size_t n, const ExecParallel& parallel,
                                 const Fn& fn) {
  size_t parts = ExecPartitionsFor(n, parallel);
  if (parts <= 1) {
    std::vector<Row> out;
    fn(size_t{0}, n, &out);
    return out;
  }
  std::vector<std::vector<Row>> slices(parts);
  ParallelSlices(n, parts, [&](size_t p, size_t begin, size_t end) {
    fn(begin, end, &slices[p]);
  });
  std::vector<Row> out = std::move(slices[0]);
  size_t total = out.size();
  for (size_t p = 1; p < parts; ++p) total += slices[p].size();
  out.reserve(total);
  for (size_t p = 1; p < parts; ++p) {
    for (Row& r : slices[p]) out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<Row>> ExecuteScan(const ScanNode& scan,
                                     const ExecContext& ctx) {
  const Table& table = ctx.catalog->table(scan.table_id());
  std::vector<Row> out;
  out.reserve(table.NumRows());
  for (uint32_t i = 0; i < table.NumRows(); ++i) {
    if (!table.IsLive(i)) continue;
    if (ctx.mask != nullptr &&
        !ctx.mask->Allows(RowId{scan.table_id(), i})) {
      continue;
    }
    Row row = table.row(i);
    if (scan.emit_rowid()) {
      row.push_back(Value::Int(static_cast<int64_t>(i)));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

Result<std::vector<Row>> ExecuteRows(const PlanNode& plan,
                                     const ExecContext& ctx) {
  switch (plan.kind()) {
    case PlanKind::kScan:
      return ExecuteScan(static_cast<const ScanNode&>(plan), ctx);
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> in,
                             ExecuteRows(plan.child(0), ctx));
      return PartitionedRows(
          in.size(), ctx.parallel,
          [&](size_t begin, size_t end, std::vector<Row>* out) {
            for (size_t i = begin; i < end; ++i) {
              if (EvalPredicate(filter.predicate(), in[i])) {
                out->push_back(std::move(in[i]));
              }
            }
          });
    }
    case PlanKind::kProject: {
      const auto& proj = static_cast<const ProjectNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> in,
                             ExecuteRows(plan.child(0), ctx));
      // Expression evaluation partitions; the dedup stays serial (first
      // occurrence over the concatenation = the serial dedup order).
      return exec::DedupRows(PartitionedRows(
          in.size(), ctx.parallel,
          [&](size_t begin, size_t end, std::vector<Row>* out) {
            for (size_t i = begin; i < end; ++i) {
              Row mapped;
              mapped.reserve(proj.NumExprs());
              for (size_t e = 0; e < proj.NumExprs(); ++e) {
                mapped.push_back(EvalExpr(proj.expr(e), in[i]));
              }
              out->push_back(std::move(mapped));
            }
          }));
    }
    case PlanKind::kProduct: {
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> left,
                             ExecuteRows(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> right,
                             ExecuteRows(plan.child(1), ctx));
      return PartitionedRows(
          left.size(), ctx.parallel,
          [&](size_t begin, size_t end, std::vector<Row>* out) {
            out->reserve((end - begin) * right.size());
            for (size_t i = begin; i < end; ++i) {
              for (const Row& r : right) {
                Row joined = left[i];
                joined.insert(joined.end(), r.begin(), r.end());
                out->push_back(std::move(joined));
              }
            }
          });
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> left,
                             ExecuteRows(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> right,
                             ExecuteRows(plan.child(1), ctx));
      // Build once (serial), probe partitioned: each range probes the
      // shared read-only hash table.
      JoinChain chain(
          plan.child(0).schema().NumColumns(),
          {{&right, &join.condition(),
            plan.child(1).schema().NumColumns()}},
          nullptr);
      return PartitionedRows(
          left.size(), ctx.parallel,
          [&](size_t begin, size_t end, std::vector<Row>* out) {
            chain.Probe(left, begin, end, out);
          });
    }
    case PlanKind::kAntiJoin: {
      const auto& aj = static_cast<const AntiJoinNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> left,
                             ExecuteRows(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> right,
                             ExecuteRows(plan.child(1), ctx));
      AntiJoinProbe probe(&right, &aj.condition(),
                                plan.child(0).schema().NumColumns());
      return PartitionedRows(
          left.size(), ctx.parallel,
          [&](size_t begin, size_t end, std::vector<Row>* out) {
            probe.Probe(left, begin, end, out);
          });
    }
    case PlanKind::kUnion: {
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> left,
                             ExecuteRows(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> right,
                             ExecuteRows(plan.child(1), ctx));
      return exec::UnionRows(std::move(left), right);
    }
    case PlanKind::kDifference: {
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> left,
                             ExecuteRows(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> right,
                             ExecuteRows(plan.child(1), ctx));
      return exec::DifferenceRows(left, right);
    }
    case PlanKind::kIntersect: {
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> left,
                             ExecuteRows(plan.child(0), ctx));
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> right,
                             ExecuteRows(plan.child(1), ctx));
      return exec::IntersectRows(left, right);
    }
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> in,
                             ExecuteRows(plan.child(0), ctx));
      return exec::AggregateRows(agg, in);
    }
    case PlanKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(plan);
      HIPPO_ASSIGN_OR_RETURN(std::vector<Row> in,
                             ExecuteRows(plan.child(0), ctx));
      std::stable_sort(in.begin(), in.end(),
                       [&sort](const Row& a, const Row& b) {
                         for (const SortNode::Key& k : sort.keys()) {
                           Value va = EvalExpr(*k.expr, a);
                           Value vb = EvalExpr(*k.expr, b);
                           int c = va.Compare(vb);
                           if (c != 0) return k.ascending ? c < 0 : c > 0;
                         }
                         return false;
                       });
      return in;
    }
  }
  return Status::Internal("unknown plan kind in executor");
}

}  // namespace hippo::oracle
