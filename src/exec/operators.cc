#include "exec/operators.h"

#include <unordered_map>
#include <unordered_set>

#include "exec/batch_eval.h"
#include "expr/evaluator.h"

namespace hippo::exec {

namespace {

using RowSet = std::unordered_set<Row, RowHasher, RowEq>;

}  // namespace

JoinSplit SplitCondition(const Expr& condition, size_t left_width) {
  JoinSplit split;
  std::vector<EquiPair> pairs;
  SplitJoinCondition(condition, left_width, &pairs, &split.residual);
  for (const EquiPair& p : pairs) {
    split.left_keys.push_back(p.left_index);
    split.right_keys.push_back(p.right_index);
  }
  return split;
}

std::vector<Row> DedupRows(std::vector<Row> rows) {
  RowSet seen;
  seen.reserve(rows.size());
  std::vector<Row> out;
  out.reserve(rows.size());
  for (Row& r : rows) {
    if (seen.insert(r).second) out.push_back(std::move(r));
  }
  return out;
}

std::vector<Row> UnionRows(std::vector<Row> left,
                           const std::vector<Row>& right) {
  left.insert(left.end(), right.begin(), right.end());
  return DedupRows(std::move(left));
}

std::vector<Row> DifferenceRows(const std::vector<Row>& left,
                                const std::vector<Row>& right) {
  RowSet exclude(right.begin(), right.end());
  RowSet seen;
  std::vector<Row> out;
  for (const Row& l : left) {
    if (exclude.count(l)) continue;
    if (seen.insert(l).second) out.push_back(l);
  }
  return out;
}

std::vector<Row> IntersectRows(const std::vector<Row>& left,
                               const std::vector<Row>& right) {
  RowSet include(right.begin(), right.end());
  RowSet seen;
  std::vector<Row> out;
  for (const Row& l : left) {
    if (!include.count(l)) continue;
    if (seen.insert(l).second) out.push_back(l);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Columnar kernels
// ---------------------------------------------------------------------------

ChainedHashIndex::ChainedHashIndex(size_t rows)
    : next_(rows), hashes_(rows) {
  unsigned bits = 1;
  while (bits < 32 && (size_t{1} << bits) < rows) ++bits;
  heads_.assign(size_t{1} << bits, kEnd);
  shift_ = 64 - bits;
}

namespace {

/// Hash of the key cells of physical row `p` of `batch`, seeded with the
/// key arity (== HashRow of the key tuple). False when a key cell is NULL:
/// NULL join keys never match.
bool KeyHash(const ColumnBatch& batch, uint32_t p,
             const std::vector<int>& keys, size_t* hash) {
  size_t seed = keys.size();
  for (int k : keys) {
    const ColumnVector& cv = batch.col(static_cast<size_t>(k));
    if (cv.IsNull(p)) return false;
    HashCombine(&seed, cv.HashAt(p));
  }
  *hash = seed;
  return true;
}

/// Chains the logical rows of `build` by key hash, linked in reverse so
/// every chain runs in build-insertion order; NULL-key rows are left out.
ChainedHashIndex BuildKeyIndex(const ColumnBatch& build,
                               const std::vector<int>& keys) {
  ChainedHashIndex index(build.NumRows());
  for (size_t j = build.NumRows(); j-- > 0;) {
    size_t hash = 0;
    if (KeyHash(build, build.Physical(j), keys, &hash)) {
      index.Link(static_cast<uint32_t>(j), hash);
    }
  }
  return index;
}

}  // namespace

BatchJoinChain::BatchJoinChain(const ColumnBatch* probe,
                               std::vector<LevelSpec> levels,
                               const Expr* final_filter)
    : probe_(probe), final_filter_(final_filter) {
  offsets_.push_back(0);
  offsets_.push_back(probe->NumColumns());
  levels_.reserve(levels.size());
  for (LevelSpec& spec : levels) {
    Level level;
    level.batch = spec.build;
    level.condition = spec.condition;
    size_t prefix_width = offsets_.back();
    if (spec.condition != nullptr) {
      JoinSplit split = SplitCondition(*spec.condition, prefix_width);
      if (split.HasEqui()) {
        level.has_equi = true;
        level.left_keys = std::move(split.left_keys);
        level.right_keys = std::move(split.right_keys);
        level.residual = std::move(split.residual);
        level.build = BuildKeyIndex(*level.batch, level.right_keys);
      }
    }
    offsets_.push_back(prefix_width + level.batch->NumColumns());
    levels_.push_back(std::move(level));
  }
}

Value BatchJoinChain::TupleValue(const uint32_t* idxs, size_t col) const {
  size_t s = 0;
  while (offsets_[s + 1] <= col) ++s;
  const ColumnBatch& b = segment(s);
  return b.col(col - offsets_[s]).ValueAt(b.Physical(idxs[s]));
}

bool BatchJoinChain::HashLeftKey(const uint32_t* idxs, const Level& level,
                                 size_t* hash) const {
  size_t seed = level.left_keys.size();
  for (int lk : level.left_keys) {
    size_t col = static_cast<size_t>(lk);
    size_t s = 0;
    while (offsets_[s + 1] <= col) ++s;
    const ColumnBatch& b = segment(s);
    uint32_t p = b.Physical(idxs[s]);
    const ColumnVector& cv = b.col(col - offsets_[s]);
    if (cv.IsNull(p)) return false;  // NULL join keys never match
    HashCombine(&seed, cv.HashAt(p));
  }
  *hash = seed;
  return true;
}

bool BatchJoinChain::LeftKeyEquals(const uint32_t* idxs, const Level& level,
                                   uint32_t build_row) const {
  const ColumnBatch& rb = *level.batch;
  uint32_t rp = rb.Physical(build_row);
  for (size_t k = 0; k < level.left_keys.size(); ++k) {
    size_t col = static_cast<size_t>(level.left_keys[k]);
    size_t s = 0;
    while (offsets_[s + 1] <= col) ++s;
    const ColumnBatch& b = segment(s);
    uint32_t p = b.Physical(idxs[s]);
    const ColumnVector& lcv = b.col(col - offsets_[s]);
    const ColumnVector& rcv =
        rb.col(static_cast<size_t>(level.right_keys[k]));
    if (!lcv.EqualsAt(p, rcv, rp)) return false;
  }
  return true;
}

void BatchJoinChain::Descend(size_t level, uint32_t* idxs,
                             std::vector<uint32_t>* out) const {
  if (level == levels_.size()) {
    if (final_filter_ != nullptr) {
      auto at = [&](size_t col) { return TupleValue(idxs, col); };
      if (!EvalPredicateOver(*final_filter_, at)) return;
    }
    out->insert(out->end(), idxs, idxs + levels_.size() + 1);
    return;
  }
  const Level& L = levels_[level];
  if (L.has_equi) {
    size_t hash;
    if (!HashLeftKey(idxs, L, &hash)) return;
    for (uint32_t j = L.build.First(hash); j != ChainedHashIndex::kEnd;
         j = L.build.Next(j)) {
      if (L.build.HashOf(j) != hash || !LeftKeyEquals(idxs, L, j)) continue;
      idxs[level + 1] = j;
      if (L.residual != nullptr) {
        auto at = [&](size_t col) { return TupleValue(idxs, col); };
        if (!EvalPredicateOver(*L.residual, at)) continue;
      }
      Descend(level + 1, idxs, out);
    }
    return;
  }
  size_t n = L.batch->NumRows();
  for (uint32_t j = 0; j < n; ++j) {
    idxs[level + 1] = j;
    if (L.condition != nullptr) {
      auto at = [&](size_t col) { return TupleValue(idxs, col); };
      if (!EvalPredicateOver(*L.condition, at)) continue;
    }
    Descend(level + 1, idxs, out);
  }
}

void BatchJoinChain::Probe(size_t begin, size_t end,
                           std::vector<uint32_t>* out) const {
  std::vector<uint32_t> idxs(levels_.size() + 1);
  for (size_t i = begin; i < end; ++i) {
    idxs[0] = static_cast<uint32_t>(i);
    Descend(0, idxs.data(), out);
  }
}

ColumnBatch BatchJoinChain::Materialize(
    const std::vector<uint32_t>& tuples) const {
  size_t arity = tuple_arity();
  size_t n = tuples.size() / arity;
  std::vector<ColumnVectorPtr> out_cols;
  out_cols.reserve(output_width());
  for (size_t s = 0; s < levels_.size() + 1; ++s) {
    const ColumnBatch& b = segment(s);
    for (size_t c = 0; c < b.NumColumns(); ++c) {
      const ColumnVector& src = b.col(c);
      auto col = std::make_shared<ColumnVector>(src.type());
      col->Reserve(n);
      for (size_t t = 0; t < n; ++t) {
        col->AppendFrom(src, b.Physical(tuples[t * arity + s]));
      }
      out_cols.push_back(std::move(col));
    }
  }
  return ColumnBatch(std::move(out_cols), n);
}

BatchAntiJoinProbe::BatchAntiJoinProbe(const ColumnBatch* left,
                                       const ColumnBatch* right,
                                       const Expr* condition)
    : left_(left), right_(right), condition_(condition) {
  JoinSplit split = SplitCondition(*condition, left->NumColumns());
  has_equi_ = split.HasEqui();
  if (!has_equi_) return;
  left_keys_ = std::move(split.left_keys);
  right_keys_ = std::move(split.right_keys);
  residual_ = std::move(split.residual);
  build_ = BuildKeyIndex(*right_, right_keys_);
}

bool BatchAntiJoinProbe::PairPredicate(const Expr& expr, uint32_t left_row,
                                       uint32_t right_row) const {
  size_t lw = left_->NumColumns();
  auto at = [&](size_t col) {
    if (col < lw) {
      return left_->col(col).ValueAt(left_->Physical(left_row));
    }
    return right_->col(col - lw).ValueAt(right_->Physical(right_row));
  };
  return EvalPredicateOver(expr, at);
}

void BatchAntiJoinProbe::Probe(size_t begin, size_t end,
                               std::vector<uint32_t>* out) const {
  for (size_t i = begin; i < end; ++i) {
    uint32_t li = static_cast<uint32_t>(i);
    bool matched = false;
    if (has_equi_) {
      uint32_t p = left_->Physical(li);
      size_t hash = 0;
      // A NULL key has no partner: the left row survives.
      bool has_key = KeyHash(*left_, p, left_keys_, &hash);
      for (uint32_t j = has_key ? build_.First(hash) : ChainedHashIndex::kEnd;
           j != ChainedHashIndex::kEnd && !matched; j = build_.Next(j)) {
        if (build_.HashOf(j) != hash) continue;
        bool keys_equal = true;
        uint32_t rp = right_->Physical(j);
        for (size_t k = 0; k < left_keys_.size(); ++k) {
          const ColumnVector& lcv =
              left_->col(static_cast<size_t>(left_keys_[k]));
          const ColumnVector& rcv =
              right_->col(static_cast<size_t>(right_keys_[k]));
          if (!lcv.EqualsAt(p, rcv, rp)) {
            keys_equal = false;
            break;
          }
        }
        if (!keys_equal) continue;
        matched = residual_ == nullptr || PairPredicate(*residual_, li, j);
      }
    } else {
      for (uint32_t j = 0; j < right_->NumRows(); ++j) {
        if (PairPredicate(*condition_, li, j)) {
          matched = true;
          break;
        }
      }
    }
    if (!matched) out->push_back(li);
  }
}

ColumnBatch DedupBatch(const ColumnBatch& batch) {
  size_t n = batch.NumRows();
  // Only kept rows are linked, so a chain holds distinct rows and any
  // equal row on it is the first occurrence.
  ChainedHashIndex kept(n);
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    size_t h = batch.RowHashAt(i);
    bool dup = false;
    for (uint32_t j = kept.First(h); j != ChainedHashIndex::kEnd && !dup;
         j = kept.Next(j)) {
      dup = kept.HashOf(j) == h && batch.RowEqualsAt(i, batch, j);
    }
    if (dup) continue;
    kept.Link(i, h);
    keep.push_back(i);
  }
  if (keep.size() == n) return batch;  // already a set: keep zero-copy
  return batch.Narrow(keep);
}

namespace {

/// Streaming accumulator for one aggregate function over one group, with
/// SQL NULL semantics: NULL inputs are skipped; COUNT(*) counts rows;
/// empty SUM/MIN/MAX/AVG are NULL, empty COUNT is 0.
struct Accumulator {
  int64_t count = 0;
  int64_t sum_i = 0;
  double sum_d = 0;
  Value extreme;  // running MIN/MAX (kNull until the first non-null input)

  void Add(const AggregateNode::AggSpec& spec, const Row& row) {
    if (spec.arg == nullptr) {  // COUNT(*)
      ++count;
      return;
    }
    Value v = EvalExpr(*spec.arg, row);
    if (v.is_null()) return;
    ++count;
    switch (spec.fn) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == TypeId::kDouble) {
          sum_d += v.AsDouble();
        } else {
          sum_i += v.AsInt();
          sum_d += static_cast<double>(v.AsInt());
        }
        break;
      case AggFunc::kMin:
        if (extreme.is_null() || v.Compare(extreme) < 0) extreme = v;
        break;
      case AggFunc::kMax:
        if (extreme.is_null() || v.Compare(extreme) > 0) extreme = v;
        break;
    }
  }

  Value Finish(const AggregateNode::AggSpec& spec) const {
    switch (spec.fn) {
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return (spec.arg != nullptr &&
                spec.arg->result_type() == TypeId::kDouble)
                   ? Value::Double(sum_d)
                   : Value::Int(sum_i);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum_d / static_cast<double>(count));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return extreme;
    }
    return Value::Null();
  }
};

}  // namespace

Result<std::vector<Row>> AggregateRows(const AggregateNode& agg,
                                       const std::vector<Row>& input) {
  const size_t n_groups = agg.NumGroupExprs();
  const auto& specs = agg.aggs();

  struct GroupState {
    Row key;
    std::vector<Accumulator> accs;
  };
  std::unordered_map<Row, size_t, RowHasher, RowEq> index;
  std::vector<GroupState> groups;  // first-occurrence order

  for (const Row& row : input) {
    Row key;
    key.reserve(n_groups);
    for (size_t g = 0; g < n_groups; ++g) {
      key.push_back(EvalExpr(agg.group_expr(g), row));
    }
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.push_back(GroupState{std::move(key),
                                  std::vector<Accumulator>(specs.size())});
    }
    GroupState& state = groups[it->second];
    for (size_t a = 0; a < specs.size(); ++a) {
      state.accs[a].Add(specs[a], row);
    }
  }

  // SQL: a global aggregate over an empty input still produces one row.
  if (groups.empty() && n_groups == 0) {
    groups.push_back(
        GroupState{Row{}, std::vector<Accumulator>(specs.size())});
  }

  std::vector<Row> out;
  out.reserve(groups.size());
  for (const GroupState& g : groups) {
    Row row = g.key;
    row.reserve(n_groups + specs.size());
    for (size_t a = 0; a < specs.size(); ++a) {
      row.push_back(g.accs[a].Finish(specs[a]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace hippo::exec
