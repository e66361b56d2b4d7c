// Vectorized expression evaluation over ColumnBatch inputs.
//
// Two entry points, both mirroring src/expr/evaluator.cc bit-for-bit:
//
//  - EvalPredicateMask: a ternary (Kleene) truth mask per logical row.
//    Comparisons between column references and literals dispatch to typed
//    loops (int64 pair, mixed-numeric-as-double, string, bool); Kleene
//    AND/OR/NOT combine child masks; IS NULL reads validity bits. Anything
//    else falls back to per-row scalar evaluation through EvalExprOver —
//    same result, just unvectorized.
//
//  - EvalExprOver: scalar evaluation over an *accessor* (virtual column
//    index -> Value) instead of a materialized Row. Batch joins evaluate
//    residuals and final filters over index tuples with it, never building
//    the concatenated work row of a row-at-a-time join.
//
// The ternary encoding matches the evaluator's Value results: kTernFalse /
// kTernTrue are Bool(false)/Bool(true), kTernNull is Value::Null().
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "expr/expr.h"
#include "storage/column_batch.h"

namespace hippo::exec {

inline constexpr int8_t kTernFalse = 0;
inline constexpr int8_t kTernTrue = 1;
inline constexpr int8_t kTernNull = 2;

/// Evaluates `expr` as a predicate over logical rows [begin, end) of
/// `batch`, writing one ternary truth value per row into out[i - begin].
void EvalPredicateMask(const Expr& expr, const ColumnBatch& batch,
                       size_t begin, size_t end, int8_t* out);

/// Evaluates `expr` for each logical row in [begin, end), appending the
/// results to `*out` (a ColumnVector of the expression's result type).
void EvalExprColumn(const Expr& expr, const ColumnBatch& batch, size_t begin,
                    size_t end, ColumnVector* out);

/// Scalar evaluation of a bound expression over an accessor mapping bound
/// column index -> Value. Mirrors EvalExpr(expr, row) exactly.
template <typename Accessor>
Value EvalExprOver(const Expr& expr, const Accessor& at) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      HIPPO_DCHECK(ref.IsBound());
      return at(static_cast<size_t>(ref.index()));
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      Value l = EvalExprOver(cmp.left(), at);
      Value r = EvalExprOver(cmp.right(), at);
      if (l.is_null() || r.is_null()) return Value::Null();
      int c = l.Compare(r);
      switch (cmp.op()) {
        case CompareOp::kEq:
          return Value::Bool(l == r);
        case CompareOp::kNe:
          return Value::Bool(!(l == r));
        case CompareOp::kLt:
          return Value::Bool(c < 0);
        case CompareOp::kLe:
          return Value::Bool(c <= 0);
        case CompareOp::kGt:
          return Value::Bool(c > 0);
        case CompareOp::kGe:
          return Value::Bool(c >= 0);
      }
      return Value::Null();
    }
    case ExprKind::kLogical: {
      const auto& log = static_cast<const LogicalExpr&>(expr);
      if (log.op() == LogicalOp::kNot) {
        Value v = EvalExprOver(log.child(0), at);
        if (v.is_null()) return Value::Null();
        return Value::Bool(!v.AsBool());
      }
      bool saw_null = false;
      if (log.op() == LogicalOp::kAnd) {
        for (size_t i = 0; i < log.NumChildren(); ++i) {
          Value v = EvalExprOver(log.child(i), at);
          if (v.is_null()) {
            saw_null = true;
          } else if (!v.AsBool()) {
            return Value::Bool(false);
          }
        }
        return saw_null ? Value::Null() : Value::Bool(true);
      }
      for (size_t i = 0; i < log.NumChildren(); ++i) {
        Value v = EvalExprOver(log.child(i), at);
        if (v.is_null()) {
          saw_null = true;
        } else if (v.AsBool()) {
          return Value::Bool(true);
        }
      }
      return saw_null ? Value::Null() : Value::Bool(false);
    }
    case ExprKind::kArithmetic: {
      const auto& ar = static_cast<const ArithmeticExpr&>(expr);
      Value l = EvalExprOver(ar.left(), at);
      Value r = EvalExprOver(ar.right(), at);
      if (l.is_null() || r.is_null()) return Value::Null();
      bool as_double =
          l.type() == TypeId::kDouble || r.type() == TypeId::kDouble;
      if (as_double) {
        double a = l.NumericAsDouble(), b = r.NumericAsDouble();
        switch (ar.op()) {
          case ArithOp::kAdd:
            return Value::Double(a + b);
          case ArithOp::kSub:
            return Value::Double(a - b);
          case ArithOp::kMul:
            return Value::Double(a * b);
          case ArithOp::kDiv:
            if (b == 0.0) return Value::Null();
            return Value::Double(a / b);
          case ArithOp::kMod:
            HIPPO_CHECK_MSG(false, "binder rejects % on doubles");
        }
      }
      int64_t a = l.AsInt(), b = r.AsInt();
      switch (ar.op()) {
        case ArithOp::kAdd:
          return Value::Int(a + b);
        case ArithOp::kSub:
          return Value::Int(a - b);
        case ArithOp::kMul:
          return Value::Int(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Value::Null();
          return Value::Int(a / b);
        case ArithOp::kMod:
          if (b == 0) return Value::Null();
          return Value::Int(a % b);
      }
      return Value::Null();
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      bool isnull = EvalExprOver(n.child(), at).is_null();
      return Value::Bool(n.negated() ? !isnull : isnull);
    }
    case ExprKind::kAggCall:
      HIPPO_CHECK_MSG(false, "aggregate call evaluated outside aggregation");
      break;
  }
  return Value::Null();
}

/// Predicate form of EvalExprOver: non-NULL TRUE.
template <typename Accessor>
bool EvalPredicateOver(const Expr& expr, const Accessor& at) {
  Value v = EvalExprOver(expr, at);
  return !v.is_null() && v.AsBool();
}

}  // namespace hippo::exec
