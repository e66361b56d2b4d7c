// Shared gtest helpers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"
#include "types/value.h"

namespace hippo::test_internal {

/// Adapts any status-like value (`.ok()` + `.ToString()`) to a gtest
/// AssertionResult, so the OK macros evaluate their argument exactly once
/// (side-effecting expressions like `db.Execute(...)` must not re-run when
/// the assertion renders its message).
template <typename StatusLike>
::testing::AssertionResult IsOk(const StatusLike& status) {
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << status.ToString();
}

}  // namespace hippo::test_internal

#define ASSERT_OK(expr) ASSERT_TRUE(::hippo::test_internal::IsOk((expr)))
#define EXPECT_OK(expr) EXPECT_TRUE(::hippo::test_internal::IsOk((expr)))

namespace hippo {

/// Rows of a result set sorted under the Value total order (for
/// order-insensitive comparisons).
inline std::vector<Row> SortedRows(const ResultSet& rs) {
  std::vector<Row> rows = rs.rows;
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

inline std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

/// Number of positions at which two equally long partition-identity lists
/// (e.g. Table::ChunkPointers of two epochs) differ.
inline size_t CountDiffering(const std::vector<const void*>& a,
                             const std::vector<const void*>& b) {
  EXPECT_EQ(a.size(), b.size());
  size_t differing = 0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) ++differing;
  }
  return differing;
}

}  // namespace hippo
