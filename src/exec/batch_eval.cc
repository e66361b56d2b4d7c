#include "exec/batch_eval.h"

#include <cstring>

namespace hippo::exec {

namespace {

int8_t TernOf(const Value& v) {
  if (v.is_null()) return kTernNull;
  return v.AsBool() ? kTernTrue : kTernFalse;
}

/// Per-row scalar fallback: exact evaluator semantics, just not vectorized.
void FallbackMask(const Expr& expr, const ColumnBatch& batch, size_t begin,
                  size_t end, int8_t* out) {
  for (size_t i = begin; i < end; ++i) {
    uint32_t p = batch.Physical(i);
    auto at = [&](size_t c) { return batch.col(c).ValueAt(p); };
    out[i - begin] = TernOf(EvalExprOver(expr, at));
  }
}

/// One side of a comparison: a batch column or a constant.
struct Operand {
  const ColumnVector* col = nullptr;  // null -> constant
  Value constant;

  bool Bind(const Expr& e, const ColumnBatch& batch) {
    if (e.kind() == ExprKind::kLiteral) {
      constant = static_cast<const LiteralExpr&>(e).value();
      return true;
    }
    if (e.kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      if (!ref.IsBound()) return false;
      col = &batch.col(static_cast<size_t>(ref.index()));
      return true;
    }
    return false;
  }

  TypeId EffectiveType() const { return col ? col->type() : constant.type(); }
  bool NullAt(uint32_t phys) const {
    return col ? col->IsNull(phys) : constant.is_null();
  }
};

// Same ranks Value::Compare uses to order values of different type classes.
int TypeClassRank(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return 0;
    case TypeId::kBool:
      return 1;
    case TypeId::kInt:
    case TypeId::kDouble:
      return 2;
    case TypeId::kString:
      return 3;
  }
  return 4;
}

int8_t CmpVerdict(CompareOp op, int c, bool eq) {
  switch (op) {
    case CompareOp::kEq:
      return eq ? kTernTrue : kTernFalse;
    case CompareOp::kNe:
      return eq ? kTernFalse : kTernTrue;
    case CompareOp::kLt:
      return c < 0 ? kTernTrue : kTernFalse;
    case CompareOp::kLe:
      return c <= 0 ? kTernTrue : kTernFalse;
    case CompareOp::kGt:
      return c > 0 ? kTernTrue : kTernFalse;
    case CompareOp::kGe:
      return c >= 0 ? kTernTrue : kTernFalse;
  }
  return kTernNull;
}

/// Typed comparison loop: `get*` read the non-NULL payload at a physical
/// index, `verdict` maps a payload pair to a ternary truth value.
template <typename GetL, typename GetR, typename Verdict>
void CmpLoop(const ColumnBatch& batch, size_t begin, size_t end,
             const Operand& l, const Operand& r, const GetL& get_l,
             const GetR& get_r, const Verdict& verdict, int8_t* out) {
  for (size_t i = begin; i < end; ++i) {
    uint32_t p = batch.Physical(i);
    if (l.NullAt(p) || r.NullAt(p)) {
      out[i - begin] = kTernNull;
      continue;
    }
    out[i - begin] = verdict(get_l(p), get_r(p));
  }
}

/// Vectorized Comparison(colref|literal, colref|literal). Returns false
/// when the shape or types require the scalar fallback.
bool TryComparisonMask(const ComparisonExpr& cmp, const ColumnBatch& batch,
                       size_t begin, size_t end, int8_t* out) {
  Operand l, r;
  if (!l.Bind(cmp.left(), batch) || !r.Bind(cmp.right(), batch)) return false;
  if (l.col == nullptr && r.col == nullptr) return false;  // const-folding
  if ((l.col && l.col->is_mixed()) || (r.col && r.col->is_mixed())) {
    return false;
  }
  // A NULL constant operand nulls the whole range.
  if ((l.col == nullptr && l.constant.is_null()) ||
      (r.col == nullptr && r.constant.is_null())) {
    std::memset(out, kTernNull, end - begin);
    return true;
  }
  CompareOp op = cmp.op();
  TypeId lt = l.EffectiveType(), rt = r.EffectiveType();
  bool l_num = lt == TypeId::kInt || lt == TypeId::kDouble;
  bool r_num = rt == TypeId::kInt || rt == TypeId::kDouble;
  if (l_num && r_num) {
    if (lt == TypeId::kInt && rt == TypeId::kInt) {
      // Pure int64 path: no double round-trip (matters past 2^53).
      auto get_l = l.col ? std::function<int64_t(uint32_t)>(
                               [c = l.col](uint32_t p) { return c->IntAt(p); })
                         : std::function<int64_t(uint32_t)>(
                               [v = l.constant.AsInt()](uint32_t) {
                                 return v;
                               });
      auto get_r = r.col ? std::function<int64_t(uint32_t)>(
                               [c = r.col](uint32_t p) { return c->IntAt(p); })
                         : std::function<int64_t(uint32_t)>(
                               [v = r.constant.AsInt()](uint32_t) {
                                 return v;
                               });
      CmpLoop(batch, begin, end, l, r, get_l, get_r,
              [op](int64_t a, int64_t b) {
                return CmpVerdict(op, a == b ? 0 : (a < b ? -1 : 1), a == b);
              },
              out);
      return true;
    }
    // Mixed int/double: Value semantics compare by double value.
    auto as_double = [](const Operand& o) {
      if (o.col) {
        if (o.col->type() == TypeId::kInt) {
          return std::function<double(uint32_t)>([c = o.col](uint32_t p) {
            return static_cast<double>(c->IntAt(p));
          });
        }
        return std::function<double(uint32_t)>(
            [c = o.col](uint32_t p) { return c->DoubleAt(p); });
      }
      return std::function<double(uint32_t)>(
          [v = o.constant.NumericAsDouble()](uint32_t) { return v; });
    };
    CmpLoop(batch, begin, end, l, r, as_double(l), as_double(r),
            [op](double a, double b) {
              return CmpVerdict(op, a == b ? 0 : (a < b ? -1 : 1), a == b);
            },
            out);
    return true;
  }
  if (lt == TypeId::kString && rt == TypeId::kString) {
    auto get = [](const Operand& o) {
      if (o.col) {
        return std::function<const std::string&(uint32_t)>(
            [c = o.col](uint32_t p) -> const std::string& {
              return c->StringAt(p);
            });
      }
      return std::function<const std::string&(uint32_t)>(
          [&v = o.constant.AsString()](uint32_t) -> const std::string& {
            return v;
          });
    };
    CmpLoop(batch, begin, end, l, r, get(l), get(r),
            [op](const std::string& a, const std::string& b) {
              int c = a.compare(b);
              c = c == 0 ? 0 : (c < 0 ? -1 : 1);
              return CmpVerdict(op, c, c == 0);
            },
            out);
    return true;
  }
  if (lt == TypeId::kBool && rt == TypeId::kBool) {
    auto get = [](const Operand& o) {
      if (o.col) {
        return std::function<bool(uint32_t)>(
            [c = o.col](uint32_t p) { return c->BoolAt(p); });
      }
      return std::function<bool(uint32_t)>(
          [v = o.constant.AsBool()](uint32_t) { return v; });
    };
    CmpLoop(batch, begin, end, l, r, get(l), get(r),
            [op](bool a, bool b) {
              return CmpVerdict(op, a == b ? 0 : (a < b ? -1 : 1), a == b);
            },
            out);
    return true;
  }
  // Distinct type classes: == is false and Compare orders by class rank,
  // so every non-NULL row gets the same verdict.
  int c = TypeClassRank(lt) < TypeClassRank(rt) ? -1 : 1;
  int8_t verdict = CmpVerdict(op, c, /*eq=*/false);
  for (size_t i = begin; i < end; ++i) {
    uint32_t p = batch.Physical(i);
    out[i - begin] = (l.NullAt(p) || r.NullAt(p)) ? kTernNull : verdict;
  }
  return true;
}

void MaskNotInPlace(int8_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (out[i] != kTernNull) out[i] = out[i] == kTernTrue ? kTernFalse
                                                          : kTernTrue;
  }
}

}  // namespace

void EvalPredicateMask(const Expr& expr, const ColumnBatch& batch,
                       size_t begin, size_t end, int8_t* out) {
  size_t n = end - begin;
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      int8_t v = TernOf(static_cast<const LiteralExpr&>(expr).value());
      std::memset(out, v, n);
      return;
    }
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (!ref.IsBound()) break;
      const ColumnVector& col = batch.col(static_cast<size_t>(ref.index()));
      if (col.is_mixed() || col.type() != TypeId::kBool) break;
      for (size_t i = begin; i < end; ++i) {
        uint32_t p = batch.Physical(i);
        out[i - begin] = col.IsNull(p)
                             ? kTernNull
                             : (col.BoolAt(p) ? kTernTrue : kTernFalse);
      }
      return;
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      if (TryComparisonMask(cmp, batch, begin, end, out)) return;
      break;
    }
    case ExprKind::kLogical: {
      const auto& log = static_cast<const LogicalExpr&>(expr);
      if (log.op() == LogicalOp::kNot) {
        EvalPredicateMask(log.child(0), batch, begin, end, out);
        MaskNotInPlace(out, n);
        return;
      }
      // Kleene AND/OR fold over child masks. The scalar evaluator
      // short-circuits child *evaluation*, but children are side-effect
      // free, so folding complete masks yields identical truth values.
      EvalPredicateMask(log.child(0), batch, begin, end, out);
      std::vector<int8_t> tmp(n);
      bool is_and = log.op() == LogicalOp::kAnd;
      for (size_t cix = 1; cix < log.NumChildren(); ++cix) {
        EvalPredicateMask(log.child(cix), batch, begin, end, tmp.data());
        for (size_t i = 0; i < n; ++i) {
          int8_t a = out[i], b = tmp[i];
          if (is_and) {
            out[i] = (a == kTernFalse || b == kTernFalse)
                         ? kTernFalse
                         : ((a == kTernNull || b == kTernNull) ? kTernNull
                                                               : kTernTrue);
          } else {
            out[i] = (a == kTernTrue || b == kTernTrue)
                         ? kTernTrue
                         : ((a == kTernNull || b == kTernNull) ? kTernNull
                                                               : kTernFalse);
          }
        }
      }
      return;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(expr);
      if (isn.child().kind() != ExprKind::kColumnRef) break;
      const auto& ref = static_cast<const ColumnRefExpr&>(isn.child());
      if (!ref.IsBound()) break;
      const ColumnVector& col = batch.col(static_cast<size_t>(ref.index()));
      bool neg = isn.negated();
      for (size_t i = begin; i < end; ++i) {
        bool isnull = col.IsNull(batch.Physical(i));
        out[i - begin] = (neg ? !isnull : isnull) ? kTernTrue : kTernFalse;
      }
      return;
    }
    default:
      break;
  }
  FallbackMask(expr, batch, begin, end, out);
}

void EvalExprColumn(const Expr& expr, const ColumnBatch& batch, size_t begin,
                    size_t end, ColumnVector* out) {
  if (expr.kind() == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(expr);
    if (ref.IsBound()) {
      const ColumnVector& src = batch.col(static_cast<size_t>(ref.index()));
      for (size_t i = begin; i < end; ++i) {
        out->AppendFrom(src, batch.Physical(i));
      }
      return;
    }
  }
  if (expr.kind() == ExprKind::kLiteral) {
    const Value& v = static_cast<const LiteralExpr&>(expr).value();
    for (size_t i = begin; i < end; ++i) out->AppendValue(v);
    return;
  }
  for (size_t i = begin; i < end; ++i) {
    uint32_t p = batch.Physical(i);
    auto at = [&](size_t c) { return batch.col(c).ValueAt(p); };
    out->AppendValue(EvalExprOver(expr, at));
  }
}

}  // namespace hippo::exec
