// Columnar batch representation for the vectorized execution engine.
//
// A ColumnVector stores one attribute of a batch as a typed vector (int64 /
// double / bool / string) plus a packed validity bitmap (absent bitmap =
// no NULLs). Values whose runtime type defies the declared column type
// (possible for intermediate results built from heterogeneous rows) flip
// the column into a per-cell `Value` fallback, so a ColumnVector can always
// represent exactly what a row-engine Row would — ValueAt() reproduces the
// original Value bit-for-bit, including its TypeId.
//
// A ColumnBatch is a set of shared immutable columns plus an optional
// *selection vector* of physical row indexes: filters and anti-joins
// narrow the selection without copying any column data, and Table exposes
// its lazily-materialized columnar view as shared columns so scans are
// zero-copy too.
//
// Determinism contract: HashAt / EqualsAt / CompareAt replicate
// Value::Hash / operator== / Compare exactly (numerics compare and hash by
// double value, NULL == NULL under identity semantics). The batch operators
// in src/exec rely on this to stay bit-identical to row-at-a-time
// evaluation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

namespace hippo {

/// \brief One attribute of a batch: typed values + validity bits.
class ColumnVector {
 public:
  explicit ColumnVector(TypeId type) : type_(type) {}

  /// Builds a column of declared type `type` from a slice of values.
  static ColumnVector FromValues(TypeId type, const std::vector<Value>& values);

  TypeId type() const { return type_; }
  size_t size() const { return size_; }
  /// True when no cell is NULL (the validity bitmap is elided).
  bool all_valid() const { return valid_.empty(); }
  /// True when the column fell back to per-cell Values (type-defying cell).
  bool is_mixed() const { return mixed_active_; }

  bool IsNull(size_t i) const {
    return !valid_.empty() && ((valid_[i >> 6] >> (i & 63)) & 1) == 0;
  }

  /// \name Typed accessors — valid only for the matching non-mixed type and
  /// a non-NULL cell (cells are placeholder-initialized under NULL).
  /// @{
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  /// @}

  /// Reproduces the exact Value stored at `i` (same TypeId and payload as
  /// the table's row store holds).
  Value ValueAt(size_t i) const;

  void Reserve(size_t n);
  /// Appends a value; a non-NULL value of a type other than type() flips
  /// the column into mixed (per-cell Value) mode.
  void AppendValue(const Value& v);
  /// Appends cell `i` of `src` (same semantics as AppendValue(src.ValueAt)).
  void AppendFrom(const ColumnVector& src, size_t i);

  /// Hash of cell `i`, identical to ColumnVector::ValueAt(i).Hash().
  size_t HashAt(size_t i) const;
  /// Equality with cell `j` of `other` under Value::operator== semantics
  /// (NULL == NULL, int/double coerce).
  bool EqualsAt(size_t i, const ColumnVector& other, size_t j) const;
  /// Three-way comparison under Value::Compare's total order.
  int CompareAt(size_t i, const ColumnVector& other, size_t j) const;

  /// Heap bytes owned by this column (vector capacities, string payloads
  /// past the SSO buffer, validity words).
  size_t ApproxBytes() const;

 private:
  void EnsureValidBits();
  void MarkNull();
  void SwitchToMixed();

  TypeId type_;
  size_t size_ = 0;
  bool mixed_active_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<Value> mixed_;
  // Packed validity bits, LSB-first within each word; empty == all valid.
  std::vector<uint64_t> valid_;
};

using ColumnVectorPtr = std::shared_ptr<const ColumnVector>;
using SelectionPtr = std::shared_ptr<const std::vector<uint32_t>>;

/// \brief Shared immutable columns + selection vector of physical indexes.
///
/// Logical row `i` of the batch lives at physical index Physical(i) of
/// every column; a null selection means the identity over
/// [0, physical_rows). Copying a batch shares columns and selection.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  ColumnBatch(std::vector<ColumnVectorPtr> columns, size_t physical_rows,
              SelectionPtr selection = nullptr)
      : columns_(std::move(columns)),
        physical_rows_(physical_rows),
        selection_(std::move(selection)) {}

  /// Packs rows into typed columns (types from the producing plan schema).
  static ColumnBatch FromRows(const std::vector<Row>& rows,
                              const std::vector<TypeId>& types);

  size_t NumColumns() const { return columns_.size(); }
  /// Logical (selected) row count.
  size_t NumRows() const {
    return selection_ ? selection_->size() : physical_rows_;
  }
  size_t physical_rows() const { return physical_rows_; }
  bool has_selection() const { return selection_ != nullptr; }
  const SelectionPtr& selection() const { return selection_; }

  uint32_t Physical(size_t i) const {
    return selection_ ? (*selection_)[i] : static_cast<uint32_t>(i);
  }

  const ColumnVector& col(size_t c) const { return *columns_[c]; }
  const ColumnVectorPtr& col_ptr(size_t c) const { return columns_[c]; }

  Value ValueAt(size_t row, size_t c) const {
    return columns_[c]->ValueAt(Physical(row));
  }
  Row RowAt(size_t row) const;
  std::vector<Row> ToRows() const;

  /// Hash of logical row `row` across all columns == HashRow(RowAt(row)).
  size_t RowHashAt(size_t row) const;
  bool RowEqualsAt(size_t row, const ColumnBatch& other,
                   size_t other_row) const;

  /// Same columns, new selection of *physical* indexes.
  ColumnBatch WithSelection(SelectionPtr sel) const {
    return ColumnBatch(columns_, physical_rows_, std::move(sel));
  }
  /// Narrows to the given *logical* rows (composes with the current
  /// selection); keeps column data shared.
  ColumnBatch Narrow(const std::vector<uint32_t>& keep_logical) const;

  /// Heap bytes owned via the columns (shared buffers counted once each).
  size_t ApproxBytes() const;

 private:
  std::vector<ColumnVectorPtr> columns_;
  size_t physical_rows_ = 0;
  SelectionPtr selection_;
};

}  // namespace hippo
