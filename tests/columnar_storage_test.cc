// Tests for the columnar batch layer and the Table fixes that ride along
// with it: ColumnVector/ColumnBatch value fidelity (hash/equality/compare
// parity with Value), the lazily-materialized columnar view and its
// invalidation rules, Table::Find's probe coercion (mixed-type literals
// must locate canonical rows — previously a silent index miss), the
// chunked copy-on-write row storage (chunk-boundary slots, partition
// sharing, Catalog::Clone independence), and the ApproxBytes accounting
// (SSO-aware strings, columnar view buffers).
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "db/database.h"
#include "storage/column_batch.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

Schema IntStrSchema() {
  Schema s;
  s.AddColumn(Column("a", TypeId::kInt));
  s.AddColumn(Column("b", TypeId::kString));
  return s;
}

// --- ColumnVector / ColumnBatch value fidelity ----------------------------

TEST(ColumnVectorTest, RoundTripsValuesOfEveryType) {
  std::vector<Value> values = {Value::Int(7), Value::Null(), Value::Int(-3)};
  ColumnVector ints = ColumnVector::FromValues(TypeId::kInt, values);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(ints.ValueAt(i), values[i]) << i;
    EXPECT_EQ(ints.HashAt(i), values[i].Hash()) << i;
  }
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_FALSE(ints.is_mixed());

  std::vector<Value> strs = {Value::String("x"), Value::String(""),
                             Value::Null()};
  ColumnVector sc = ColumnVector::FromValues(TypeId::kString, strs);
  for (size_t i = 0; i < strs.size(); ++i) {
    EXPECT_EQ(sc.ValueAt(i), strs[i]) << i;
    EXPECT_EQ(sc.HashAt(i), strs[i].Hash()) << i;
  }
}

TEST(ColumnVectorTest, TypeDefyingValueFlipsToMixedWithoutLosingData) {
  // An INT-declared column receiving a string must keep exact Values.
  ColumnVector col(TypeId::kInt);
  col.AppendValue(Value::Int(1));
  col.AppendValue(Value::String("rogue"));
  col.AppendValue(Value::Null());
  EXPECT_TRUE(col.is_mixed());
  EXPECT_EQ(col.ValueAt(0), Value::Int(1));
  EXPECT_EQ(col.ValueAt(1), Value::String("rogue"));
  EXPECT_TRUE(col.ValueAt(2).is_null());
  EXPECT_EQ(col.HashAt(1), Value::String("rogue").Hash());
}

TEST(ColumnVectorTest, EqualityAndCompareMatchValueSemantics) {
  ColumnVector ints = ColumnVector::FromValues(
      TypeId::kInt, {Value::Int(2), Value::Int(3), Value::Null()});
  ColumnVector dbls = ColumnVector::FromValues(
      TypeId::kDouble, {Value::Double(2.0), Value::Double(3.5), Value::Null()});
  // Int/double coercion, exactly like Value::operator==.
  EXPECT_TRUE(ints.EqualsAt(0, dbls, 0));
  EXPECT_FALSE(ints.EqualsAt(1, dbls, 1));
  // NULL == NULL under the identity semantics the row store uses.
  EXPECT_TRUE(ints.EqualsAt(2, dbls, 2));
  // Cross-engine hash parity: int 2 and double 2.0 must collide, as
  // Value::Hash guarantees (numerics hash by double value).
  EXPECT_EQ(ints.HashAt(0), dbls.HashAt(0));
  // Compare follows the Value total order (NULL sorts first).
  EXPECT_LT(ints.CompareAt(2, ints, 0), 0);
  EXPECT_GT(dbls.CompareAt(1, ints, 1), 0);
}

TEST(ColumnBatchTest, FromRowsToRowsRoundTripAndSelection) {
  std::vector<Row> rows = {
      {Value::Int(1), Value::String("a")},
      {Value::Null(), Value::String("b")},
      {Value::Int(3), Value::Null()},
  };
  ColumnBatch batch =
      ColumnBatch::FromRows(rows, {TypeId::kInt, TypeId::kString});
  EXPECT_EQ(batch.ToRows(), rows);
  EXPECT_EQ(batch.RowHashAt(1), HashRow(rows[1]));

  // Narrow composes selections over logical indexes.
  ColumnBatch tail = batch.Narrow({2u, 0u});
  ASSERT_EQ(tail.NumRows(), 2u);
  EXPECT_EQ(tail.RowAt(0), rows[2]);
  EXPECT_EQ(tail.RowAt(1), rows[0]);
  ColumnBatch one = tail.Narrow({1u});
  ASSERT_EQ(one.NumRows(), 1u);
  EXPECT_EQ(one.RowAt(0), rows[0]);
}

// --- Table columnar view --------------------------------------------------

TEST(TableColumnarViewTest, ViewImagesAllSlotsAndIsCachedUntilNewSlot) {
  Table t(0, "t", IntStrSchema());
  ASSERT_OK(t.Insert({Value::Int(1), Value::String("x")}).status());
  ASSERT_OK(t.Insert({Value::Int(2), Value::String("y")}).status());
  auto view = t.columnar();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->num_slots, 2u);
  EXPECT_EQ(view->columns[0]->IntAt(1), 2);
  EXPECT_EQ(view->rowids->IntAt(1), 1);
  // Cached: same object until a write that adds a slot.
  EXPECT_EQ(t.columnar().get(), view.get());

  // Tombstoning keeps the view valid (liveness is a per-scan selection)...
  ASSERT_TRUE(t.Delete(0));
  EXPECT_EQ(t.columnar().get(), view.get());
  // ...and so does resurrecting the same row (same slot, same values).
  auto rid = t.Insert({Value::Int(1), Value::String("x")});
  ASSERT_OK(rid.status());
  EXPECT_EQ(rid.value().first.row, 0u);
  EXPECT_TRUE(rid.value().second);
  EXPECT_EQ(t.columnar().get(), view.get());

  // A genuinely new row appends a slot: the view must be rebuilt.
  ASSERT_OK(t.Insert({Value::Int(9), Value::String("z")}).status());
  auto rebuilt = t.columnar();
  EXPECT_NE(rebuilt.get(), view.get());
  EXPECT_EQ(rebuilt->num_slots, 3u);
}

TEST(TableColumnarViewTest, CopySharesTheMemoizedView) {
  Table t(0, "t", IntStrSchema());
  ASSERT_OK(t.Insert({Value::Int(1), Value::String("x")}).status());
  auto view = t.columnar();
  Table copy(t);  // the snapshot path: make_shared<Table>(*slot.table)
  EXPECT_EQ(copy.columnar().get(), view.get());
}

// --- Table::Find probe coercion (the row-probe bugfix) --------------------

TEST(TableFindTest, CoercesProbeToCanonicalFormBeforeIndexLookup) {
  Table t(0, "t", IntStrSchema());
  ASSERT_OK(t.Insert({Value::Int(2), Value::String("x")}).status());

  // Canonical probe: found.
  ASSERT_TRUE(t.Find({Value::Int(2), Value::String("x")}).has_value());
  // Double literal against the INT column: the index stores Int(2), so an
  // uncoerced probe hashes differently and used to miss silently.
  auto hit = t.Find({Value::Double(2.0), Value::String("x")});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->row, 0u);
  // Uncoercible and wrong-arity probes are misses, never errors.
  EXPECT_FALSE(t.Find({Value::String("2"), Value::String("x")}).has_value());
  EXPECT_FALSE(t.Find({Value::Int(2)}).has_value());
  // Dead rows stay invisible through the coerced path too.
  ASSERT_TRUE(t.Delete(0));
  EXPECT_FALSE(t.Find({Value::Double(2.0), Value::String("x")}).has_value());
}

TEST(TableFindTest, DeleteWithMixedTypeLiteralActuallyDeletes) {
  // End-to-end regression: DELETE with a double literal on an INT column
  // was a silent no-op (Find missed, nothing matched).
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE w (a INTEGER, b INTEGER)"));
  ASSERT_OK(db.Execute("INSERT INTO w VALUES (2, 5)"));
  ASSERT_OK(db.Execute("DELETE FROM w WHERE a = 2.0"));
  auto rs = db.Query("SELECT * FROM w");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 0u);
}

// --- Chunked copy-on-write storage ----------------------------------------

Row IntStrRow(int64_t i) {
  return {Value::Int(i), Value::String("r" + std::to_string(i))};
}

/// A table of `n` rows (i, "ri"): row i sits in slot i.
Table FilledTable(uint32_t id, size_t n) {
  Table t(id, "t" + std::to_string(id), IntStrSchema());
  for (size_t i = 0; i < n; ++i) {
    auto ins = t.Insert(IntStrRow(static_cast<int64_t>(i)));
    EXPECT_TRUE(ins.ok() && ins.value().first.row == i) << i;
  }
  return t;
}

TEST(TableChunkTest, FindDeleteResurrectAtChunkBoundaries) {
  constexpr size_t kRows = Table::kChunkSlots + 8;
  Table t = FilledTable(0, kRows);
  ASSERT_EQ(t.NumRows(), kRows);
  ASSERT_EQ(t.ChunkPointers().size(), 2u);
  for (uint32_t slot : {1023u, 1024u, 1025u}) {
    SCOPED_TRACE(slot);
    Row stored = IntStrRow(slot);
    EXPECT_EQ(t.row(slot), stored);
    // Canonical and coerced probes (a DOUBLE literal on the INT column).
    Row coerced{Value::Double(static_cast<double>(slot)), stored[1]};
    ASSERT_TRUE(t.Find(stored).has_value());
    EXPECT_EQ(t.Find(stored)->row, slot);
    ASSERT_TRUE(t.Find(coerced).has_value());
    EXPECT_EQ(t.Find(coerced)->row, slot);

    ASSERT_TRUE(t.Delete(slot));
    EXPECT_FALSE(t.Delete(slot)) << "already tombstoned";
    EXPECT_FALSE(t.IsLive(slot));
    EXPECT_FALSE(t.Find(stored).has_value());
    EXPECT_FALSE(t.Find(coerced).has_value());
    EXPECT_EQ(t.NumLiveRows(), kRows - 1);

    // Resurrection through the coerced form: same slot, instance changed.
    auto back = t.Insert(coerced);
    ASSERT_OK(back.status());
    EXPECT_EQ(back.value().first.row, slot);
    EXPECT_TRUE(back.value().second);
    EXPECT_TRUE(t.IsLive(slot));
    EXPECT_EQ(t.NumLiveRows(), kRows);
    EXPECT_EQ(t.NumRows(), kRows) << "resurrection must not add a slot";
    // A live duplicate is a no-op.
    auto dup = t.Insert(stored);
    ASSERT_OK(dup.status());
    EXPECT_EQ(dup.value().first.row, slot);
    EXPECT_FALSE(dup.value().second);
  }
  EXPECT_FALSE(t.IsLive(kRows)) << "past the last slot";
  EXPECT_FALSE(t.Find(IntStrRow(kRows)).has_value());
}

TEST(TableChunkTest, CopySharesPartitionsAndWritesCloneOnlyTouchedOnes) {
  Table t = FilledTable(0, 4 * Table::kChunkSlots + 100);
  Table copy(t);
  EXPECT_EQ(CountDiffering(t.ChunkPointers(), copy.ChunkPointers()), 0u);
  EXPECT_EQ(CountDiffering(t.IndexShardPointers(), copy.IndexShardPointers()),
            0u);

  // An insert clones the tail chunk and the one shard the row hashes to.
  ASSERT_OK(copy.Insert(IntStrRow(999999)).status());
  std::vector<const void*> chunks = copy.ChunkPointers();
  EXPECT_EQ(CountDiffering(t.ChunkPointers(), chunks), 1u);
  EXPECT_NE(t.ChunkPointers().back(), chunks.back());
  EXPECT_EQ(CountDiffering(t.IndexShardPointers(), copy.IndexShardPointers()),
            1u);
  // A delete in a middle chunk clones only that chunk.
  ASSERT_TRUE(copy.Delete(2 * Table::kChunkSlots + 5));
  EXPECT_EQ(CountDiffering(t.ChunkPointers(), copy.ChunkPointers()), 2u);
  EXPECT_NE(t.ChunkPointers()[2], copy.ChunkPointers()[2]);

  // The source never sees the copy's writes, and vice versa.
  EXPECT_FALSE(t.Find(IntStrRow(999999)).has_value());
  EXPECT_TRUE(t.IsLive(2 * Table::kChunkSlots + 5));
  ASSERT_TRUE(t.Delete(7));
  EXPECT_TRUE(copy.IsLive(7));
  EXPECT_EQ(t.NumRows() + 1, copy.NumRows());
}

TEST(CatalogCloneTest, CloneSharesNoPartitionAndWritesNeverShowThrough) {
  Catalog source;
  auto created = source.CreateTable("big", IntStrSchema());
  ASSERT_OK(created.status());
  Table* big = created.value();
  constexpr size_t kRows = 3 * Table::kChunkSlots + 1;
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_OK(big->Insert(IntStrRow(static_cast<int64_t>(i))).status());
  }
  Catalog clone = source.Clone();
  const Table& a = std::as_const(source).table(0);
  const Table& b = std::as_const(clone).table(0);
  EXPECT_NE(&a, &b);
  std::vector<const void*> a_parts = a.ChunkPointers();
  std::vector<const void*> a_shards = a.IndexShardPointers();
  a_parts.insert(a_parts.end(), a_shards.begin(), a_shards.end());
  std::unordered_set<const void*> a_set(a_parts.begin(), a_parts.end());
  a_set.erase(nullptr);
  std::vector<const void*> b_parts = b.ChunkPointers();
  std::vector<const void*> b_shards = b.IndexShardPointers();
  b_parts.insert(b_parts.end(), b_shards.begin(), b_shards.end());
  for (const void* p : b_parts) {
    if (p == nullptr) continue;
    EXPECT_EQ(a_set.count(p), 0u) << "shared partition";
  }

  // Writes on either side stay on that side.
  ASSERT_TRUE(source.MutableTable(0).Delete(1024));
  ASSERT_OK(source.MutableTable(0).Insert(IntStrRow(-1)).status());
  EXPECT_TRUE(b.IsLive(1024));
  EXPECT_FALSE(b.Find(IntStrRow(-1)).has_value());
  EXPECT_EQ(b.NumRows(), kRows);
  ASSERT_TRUE(clone.MutableTable(0).Delete(2));
  ASSERT_OK(clone.MutableTable(0).Insert(IntStrRow(-2)).status());
  EXPECT_TRUE(a.IsLive(2));
  EXPECT_FALSE(a.Find(IntStrRow(-2)).has_value());
  EXPECT_FALSE(b.Find(IntStrRow(-1)).has_value());
  EXPECT_EQ(a.NumRows(), kRows + 1);
  EXPECT_EQ(b.NumRows(), kRows + 1);
}

// --- ApproxBytes accounting ----------------------------------------------

TEST(TableApproxBytesTest, CountsIndexBucketsStringsAndColumnarView) {
  Table t(0, "t", IntStrSchema());
  size_t empty = t.ApproxBytes();
  // The table header is counted even before any insert.
  EXPECT_GT(empty, 0u);

  // Long (heap-allocated) strings must dominate short (SSO) ones.
  Table sso(1, "sso", IntStrSchema());
  Table heap(2, "heap", IntStrSchema());
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(sso.Insert({Value::Int(i), Value::String("ab")}).status());
    ASSERT_OK(heap.Insert({Value::Int(i),
                           Value::String(std::string(128, 'x') +
                                         std::to_string(i))})
                  .status());
  }
  EXPECT_GT(sso.ApproxBytes(), empty);
  EXPECT_GT(heap.ApproxBytes(), sso.ApproxBytes() + 64 * 100);

  // Materializing the columnar view grows the footprint, and the growth is
  // accounted.
  size_t before_view = heap.ApproxBytes();
  auto view = heap.columnar();
  EXPECT_GE(heap.ApproxBytes(), before_view + view->ApproxBytes());
}

}  // namespace
}  // namespace hippo
