// Denial constraints — the integrity-constraint class supported by Hippo.
//
// A denial constraint forbids a combination of tuples:
//
//     ¬ ( R1(x̄1) ∧ R2(x̄2) ∧ ... ∧ Rk(x̄k) ∧ φ(x̄1..x̄k) )
//
// i.e. no assignment of tuples to the atoms may satisfy φ. Functional
// dependencies and exclusion constraints are special cases and are expanded
// into this form. The class is closed under tuple deletions, so repairs are
// maximal consistent subsets of the instance.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/expr.h"
#include "sql/ast.h"

namespace hippo {

/// One atom of a denial constraint.
struct ConstraintAtom {
  uint32_t table_id = 0;
  std::string table_name;
  std::string alias;
};

/// Extra structure retained when a constraint originated as an FD. The
/// query router reads it to derive a table's key, the rewriter to drop the
/// self-pair filter and emit one residue instead of one per atom, and
/// conflict detection to stage each violating pair once (an FD's condition
/// is symmetric in its two atoms).
struct FdInfo {
  uint32_t table_id = 0;
  std::vector<size_t> lhs;  ///< column indexes of the determinant
  std::vector<size_t> rhs;  ///< column indexes of the dependent side
};

/// \brief A bound denial constraint.
class DenialConstraint {
 public:
  /// General form. `where` may be null (the atoms may never all hold);
  /// otherwise it is bound here against the concatenation of the atom
  /// schemas, each qualified by its alias.
  static Result<DenialConstraint> Make(const Catalog& catalog,
                                       std::string name,
                                       std::vector<sql::TableRef> atoms,
                                       ExprPtr where);

  /// FD `lhs -> rhs` on one table: two distinct tuples may not agree on all
  /// of `lhs` while differing on any column of `rhs`.
  static Result<DenialConstraint> FromFd(const Catalog& catalog,
                                         std::string name,
                                         const sql::FdSpec& spec);

  /// Exclusion: no tuple of `table1` and tuple of `table2` agree
  /// position-wise on the listed columns.
  static Result<DenialConstraint> FromExclusion(const Catalog& catalog,
                                                std::string name,
                                                const sql::ExclusionSpec& spec);

  /// Dispatch over a parsed CREATE CONSTRAINT statement.
  static Result<DenialConstraint> FromStatement(
      const Catalog& catalog, const sql::CreateConstraintStmt& stmt);

  const std::string& name() const { return name_; }
  const std::vector<ConstraintAtom>& atoms() const { return atoms_; }
  size_t arity() const { return atoms_.size(); }

  /// Bound condition over `combined_schema()`; null means TRUE.
  const Expr* condition() const { return condition_.get(); }

  /// Concatenation of atom schemas (alias-qualified), the binding scope of
  /// `condition()`.
  const Schema& combined_schema() const { return combined_schema_; }

  /// Start of atom `i`'s columns within the combined schema.
  size_t atom_offset(size_t i) const { return offsets_[i]; }
  size_t atom_width(size_t i) const { return widths_[i]; }

  /// Present when this constraint came from an FD.
  const std::optional<FdInfo>& fd_info() const { return fd_info_; }

  /// Binary constraints (two atoms) are the class the query-rewriting
  /// baseline supports.
  bool IsBinary() const { return atoms_.size() == 2; }
  bool IsUnary() const { return atoms_.size() == 1; }

  std::string ToString() const;

  /// Deep copy (clones the bound condition). The class is otherwise
  /// move-only; service::Snapshot uses this to freeze the constraint set
  /// alongside the instance it was declared over.
  DenialConstraint Clone() const;

  DenialConstraint(DenialConstraint&&) = default;
  DenialConstraint& operator=(DenialConstraint&&) = default;

 private:
  DenialConstraint() = default;

  std::string name_;
  std::vector<ConstraintAtom> atoms_;
  ExprPtr condition_;
  Schema combined_schema_;
  std::vector<size_t> offsets_;
  std::vector<size_t> widths_;
  std::optional<FdInfo> fd_info_;
};

}  // namespace hippo
