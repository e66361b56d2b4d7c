// Structural-sharing (copy-on-write) snapshot publication tests:
//
//   * untouched tables and hypergraph partitions are pointer-shared across
//     epochs, and only the touched state is republished — within a touched
//     table, only the row chunk, full-row index shard and key index shards
//     a write lands in;
//   * key indexes are shared by table copies, cloned per shard on insert,
//     never written by a delete or a resurrection, and inherited by the
//     fork of an async bulk round;
//   * pinned sessions are bit-for-bit unaffected by later commits;
//   * a randomized differential proves the COW representation equal to the
//     deep-clone baseline (Catalog::Clone + ConflictHypergraph::DeepCopy)
//     and to a serial oracle Database — answers, rows, edge ids, and
//     provenance — including retroactively for old epochs;
//   * concurrent readers on pinned epochs race a committing writer (this
//     file runs under the TSan CI lane together with the service suite).
#include <atomic>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "db/database.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "test_util.h"

namespace hippo {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::Session;
using service::SnapshotPtr;

ServiceOptions SmallPool() {
  ServiceOptions options;
  options.threads = 2;
  return options;
}

/// Schema: kTables FD tables t0..tN plus an FK pair (emp -> dept).
constexpr size_t kFdTables = 4;

std::string MultiTableSchema() {
  std::string sql;
  for (size_t t = 0; t < kFdTables; ++t) {
    sql += StrFormat(
        "CREATE TABLE t%zu (a INTEGER, b INTEGER);"
        "CREATE CONSTRAINT fd%zu FD ON t%zu (a -> b);",
        t, t, t);
  }
  sql +=
      "CREATE TABLE dept (did INTEGER);"
      "CREATE TABLE emp (name VARCHAR, did INTEGER);"
      "CREATE CONSTRAINT fk FOREIGN KEY emp (did) REFERENCES dept (did)";
  return sql;
}

std::string SeedRows(size_t per_table, size_t conflict_every) {
  std::string sql;
  for (size_t t = 0; t < kFdTables; ++t) {
    for (size_t i = 0; i < per_table; ++i) {
      sql += StrFormat("INSERT INTO t%zu VALUES (%zu, %zu);", t, i, i);
      if (conflict_every != 0 && i % conflict_every == 0) {
        sql += StrFormat("INSERT INTO t%zu VALUES (%zu, %zu);", t, i, i + 1);
      }
    }
  }
  for (size_t i = 0; i < per_table / 2; ++i) {
    sql += StrFormat("INSERT INTO dept VALUES (%zu);", i);
  }
  for (size_t i = 0; i < per_table; ++i) {
    // Every other employee references a missing department (orphan edge).
    sql += StrFormat("INSERT INTO emp VALUES ('e%zu', %zu);", i, i);
  }
  return sql;
}

/// One script inserting `n` conflict-free rows (k, k) for k in
/// [first, first + n) into `table` — in slot order when the keys are fresh.
std::string KeyedRows(const std::string& table, size_t first, size_t n) {
  std::string sql;
  for (size_t k = first; k < first + n; ++k) {
    sql += StrFormat("INSERT INTO %s VALUES (%zu, %zu);", table.c_str(), k, k);
  }
  return sql;
}

void ExpectGraphsIdentical(const ConflictHypergraph& a,
                           const ConflictHypergraph& b) {
  ASSERT_EQ(a.NumEdgeSlots(), b.NumEdgeSlots());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (ConflictHypergraph::EdgeId e = 0; e < a.NumEdgeSlots(); ++e) {
    ASSERT_EQ(a.EdgeAlive(e), b.EdgeAlive(e)) << "edge " << e;
    if (!a.EdgeAlive(e)) continue;
    ASSERT_EQ(a.edge(e), b.edge(e)) << "edge " << e;
    ASSERT_EQ(a.edge_constraint(e), b.edge_constraint(e)) << "edge " << e;
  }
}

void ExpectCatalogsIdentical(const Catalog& a, const Catalog& b) {
  ASSERT_EQ(a.NumTables(), b.NumTables());
  for (uint32_t t = 0; t < a.NumTables(); ++t) {
    const Table& ta = a.table(t);
    const Table& tb = b.table(t);
    ASSERT_EQ(ta.NumRows(), tb.NumRows()) << "table " << t;
    ASSERT_EQ(ta.NumLiveRows(), tb.NumLiveRows()) << "table " << t;
    for (uint32_t r = 0; r < ta.NumRows(); ++r) {
      ASSERT_EQ(ta.IsLive(r), tb.IsLive(r)) << "t" << t << "#" << r;
      ASSERT_EQ(ta.row(r), tb.row(r)) << "t" << t << "#" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Structural sharing across epochs.
// ---------------------------------------------------------------------------

TEST(CowSharing, UntouchedTablesArePointerSharedAcrossEpochs) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(MultiTableSchema()));
  ASSERT_OK(service.Commit(SeedRows(64, 8)));

  SnapshotPtr before = service.snapshot();
  ASSERT_OK(service.Commit("INSERT INTO t0 VALUES (1, 777)"));
  SnapshotPtr after = service.snapshot();

  uint32_t touched =
      before->catalog().GetTable("t0").value()->id();
  size_t shared = 0;
  for (uint32_t t = 0; t < before->catalog().NumTables(); ++t) {
    if (t == touched) {
      EXPECT_NE(before->catalog().TableRef(t).get(),
                after->catalog().TableRef(t).get())
          << "the touched table must be republished";
    } else {
      EXPECT_EQ(before->catalog().TableRef(t).get(),
                after->catalog().TableRef(t).get())
          << "untouched table " << t << " must be shared";
      ++shared;
    }
  }
  EXPECT_EQ(shared, before->catalog().NumTables() - 1);

  // The marginal bytes of the 1-table epoch are a small fraction of the
  // full snapshot footprint (one table out of kFdTables + 2, plus dirty
  // hypergraph partitions).
  std::unordered_set<const void*> seen;
  before->CollectStorageIdentity(&seen);
  size_t marginal = after->AccumulateApproxBytes(&seen);
  size_t full = after->ApproxBytes();
  EXPECT_GT(marginal, 0u);
  EXPECT_LT(marginal, full / 2) << "a 1-table write republished too much";
}

TEST(CowSharing, OneRowInsertClonesOnlyTheTailChunkAndOneIndexShard) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(MultiTableSchema()));
  // t0 spans five chunks; the last one is partly filled.
  constexpr size_t kRows = 4 * Table::kChunkSlots + 404;
  ASSERT_OK(service.Commit(KeyedRows("t0", 0, kRows)));

  SnapshotPtr before = service.snapshot();
  ASSERT_OK(service.Commit("INSERT INTO t0 VALUES (1, 777)"));  // conflicts
  SnapshotPtr after = service.snapshot();

  const Table& old_t0 = *before->catalog().GetTable("t0").value();
  const Table& new_t0 = *after->catalog().GetTable("t0").value();
  ASSERT_EQ(new_t0.NumRows(), kRows + 1);
  std::vector<const void*> old_chunks = old_t0.ChunkPointers();
  std::vector<const void*> new_chunks = new_t0.ChunkPointers();
  ASSERT_EQ(old_chunks.size(), 5u);
  ASSERT_EQ(new_chunks.size(), 5u);
  for (size_t c = 0; c + 1 < old_chunks.size(); ++c) {
    EXPECT_EQ(old_chunks[c], new_chunks[c]) << "chunk " << c << " cloned";
  }
  EXPECT_NE(old_chunks.back(), new_chunks.back()) << "tail chunk not cloned";
  EXPECT_EQ(CountDiffering(old_t0.IndexShardPointers(),
                           new_t0.IndexShardPointers()),
            1u);
  // fd0's key index on t0.a: one shard.
  EXPECT_EQ(CountDiffering(old_t0.KeyIndexShardPointers(),
                           new_t0.KeyIndexShardPointers()),
            1u);

  // The epoch's marginal bytes are a small fraction of t0 alone.
  std::unordered_set<const void*> seen;
  before->CollectStorageIdentity(&seen);
  size_t marginal = after->AccumulateApproxBytes(&seen);
  EXPECT_GT(marginal, 0u);
  EXPECT_LT(marginal, old_t0.ApproxBytes() / 3)
      << "a one-row insert republished too much of t0";
}

TEST(CowSharing, OneRowDeleteInAMiddleChunkClonesOnlyThatChunk) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(MultiTableSchema()));
  constexpr size_t kRows = 4 * Table::kChunkSlots + 404;
  ASSERT_OK(service.Commit(KeyedRows("t0", 0, kRows)));

  SnapshotPtr before = service.snapshot();
  constexpr size_t kVictim = 2 * Table::kChunkSlots + 77;  // chunk 2
  ASSERT_OK(service.Commit(StrFormat("DELETE FROM t0 WHERE a = %zu", kVictim)));
  SnapshotPtr after = service.snapshot();

  const Table& old_t0 = *before->catalog().GetTable("t0").value();
  const Table& new_t0 = *after->catalog().GetTable("t0").value();
  EXPECT_TRUE(old_t0.IsLive(kVictim));
  EXPECT_FALSE(new_t0.IsLive(kVictim));
  std::vector<const void*> old_chunks = old_t0.ChunkPointers();
  std::vector<const void*> new_chunks = new_t0.ChunkPointers();
  ASSERT_EQ(old_chunks.size(), new_chunks.size());
  for (size_t c = 0; c < old_chunks.size(); ++c) {
    if (c == 2) {
      EXPECT_NE(old_chunks[c], new_chunks[c]) << "deleted-in chunk shared";
    } else {
      EXPECT_EQ(old_chunks[c], new_chunks[c]) << "chunk " << c << " cloned";
    }
  }
  EXPECT_EQ(CountDiffering(old_t0.IndexShardPointers(),
                           new_t0.IndexShardPointers()),
            0u)
      << "a delete must not touch the index";
  EXPECT_EQ(CountDiffering(old_t0.KeyIndexShardPointers(),
                           new_t0.KeyIndexShardPointers()),
            0u)
      << "a delete must not touch a key index";
}

TEST(CowSharing, NoOpDmlDoesNotRepublishTables) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(MultiTableSchema()));
  ASSERT_OK(service.Commit(SeedRows(32, 8)));

  SnapshotPtr before = service.snapshot();
  // None of these change a row — predicates match nothing, the INSERT is a
  // live duplicate (set-semantics no-op): the probes run on the const view
  // and must not copy-on-write (and then republish) any table.
  ASSERT_OK(service.Commit("DELETE FROM t0 WHERE a = 123456"));
  ASSERT_OK(service.Commit("UPDATE t1 SET b = 1 WHERE a = 123456"));
  ASSERT_OK(service.Commit("INSERT INTO t2 VALUES (1, 1)"));  // duplicate
  SnapshotPtr after = service.snapshot();

  for (uint32_t t = 0; t < before->catalog().NumTables(); ++t) {
    EXPECT_EQ(before->catalog().TableRef(t).get(),
              after->catalog().TableRef(t).get())
        << "no-op DML republished table " << t;
  }
}

TEST(CowSharing, UntouchedHypergraphPartitionsAreSharedAcrossEpochs) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(MultiTableSchema()));
  ASSERT_OK(service.Commit(SeedRows(64, 4)));

  SnapshotPtr before = service.snapshot();
  ASSERT_GT(before->hypergraph().NumEdges(), 0u);
  // A conflicting insert touches t0's partitions only.
  ASSERT_OK(service.Commit("INSERT INTO t0 VALUES (0, 555)"));
  SnapshotPtr after = service.snapshot();
  ASSERT_GT(after->hypergraph().NumEdges(),
            before->hypergraph().NumEdges());

  std::vector<const void*> prev = before->hypergraph().PartitionPointers();
  std::unordered_set<const void*> prev_set(prev.begin(), prev.end());
  size_t shared = 0;
  size_t total = 0;
  for (const void* p : after->hypergraph().PartitionPointers()) {
    ++total;
    if (prev_set.count(p)) ++shared;
  }
  EXPECT_GT(shared, 0u) << "no hypergraph partition was shared";
  EXPECT_LT(shared, total) << "dirty partitions must be republished";

  // Accumulated footprint of both epochs together is far below the sum of
  // their standalone footprints — the definition of structural sharing.
  std::unordered_set<const void*> seen;
  size_t combined = before->AccumulateApproxBytes(&seen);
  combined += after->AccumulateApproxBytes(&seen);
  EXPECT_LT(combined,
            before->ApproxBytes() + (after->ApproxBytes() * 3) / 4);
}

TEST(CowSharing, PinnedSessionsAreUnaffectedByLaterCommits) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(MultiTableSchema()));
  ASSERT_OK(service.Commit(SeedRows(32, 4)));

  Session session = service.OpenSession();
  auto pinned = session.snapshot()->ConsistentAnswers("SELECT * FROM t1");
  ASSERT_OK(pinned.status());
  auto pinned_plain = session.snapshot()->Query("SELECT * FROM emp");
  ASSERT_OK(pinned_plain.status());

  // Churn every table, including the ones the pinned queries touch.
  for (int round = 0; round < 8; ++round) {
    std::string script;
    for (size_t t = 0; t < kFdTables; ++t) {
      script += StrFormat("INSERT INTO t%zu VALUES (%d, %d);", t, round,
                          9000 + round);
    }
    script += StrFormat("DELETE FROM emp WHERE name = 'e%d';", round);
    ASSERT_OK(service.Commit(script));
  }

  auto again = session.snapshot()->ConsistentAnswers("SELECT * FROM t1");
  ASSERT_OK(again.status());
  EXPECT_EQ(again.value().rows, pinned.value().rows);
  auto again_plain = session.snapshot()->Query("SELECT * FROM emp");
  ASSERT_OK(again_plain.status());
  EXPECT_EQ(again_plain.value().rows, pinned_plain.value().rows);

  session.Refresh();
  auto refreshed = session.snapshot()->Query("SELECT * FROM emp");
  ASSERT_OK(refreshed.status());
  EXPECT_NE(refreshed.value().rows, pinned_plain.value().rows)
      << "refresh must observe the committed deletes";
}

// ---------------------------------------------------------------------------
// Key indexes under copy-on-write (Table::DeclareKeyIndex).
// ---------------------------------------------------------------------------

Schema KeyedSchema() {
  Schema schema;
  schema.AddColumn(Column("a", TypeId::kInt));
  schema.AddColumn(Column("b", TypeId::kDouble));
  return schema;
}

/// A table spanning several chunks, with key indexes on {a} and {b}: row k
/// is (k / 4, k % 8), so keys of {a} repeat four times and keys of {b}
/// have n / 8 rows each.
std::unique_ptr<Table> KeyedTable(size_t n) {
  auto table = std::make_unique<Table>(0, "k", KeyedSchema());
  Row row(2);
  for (size_t k = 0; k < n; ++k) {
    row[0] = Value::Int(static_cast<int64_t>(k / 4));
    row[1] = Value::Double(static_cast<double>(k % 8));
    EXPECT_OK(table->Insert(row).status());
  }
  table->DeclareKeyIndex({0});
  table->DeclareKeyIndex({1});
  return table;
}

/// Live slots holding `key` at `columns`, as the index reports them and as
/// a scan finds them.
std::vector<uint32_t> Probe(const Table& table,
                            const std::vector<size_t>& columns,
                            const Row& key) {
  std::vector<uint32_t> slots;
  table.ForEachKeyMatch(columns, key, [&](uint32_t slot) {
    slots.push_back(slot);
    return true;
  });
  return slots;
}
std::vector<uint32_t> Scan(const Table& table,
                           const std::vector<size_t>& columns,
                           const Row& key) {
  std::vector<uint32_t> slots;
  for (uint32_t r = 0; r < table.NumRows(); ++r) {
    bool match = table.IsLive(r);
    for (size_t i = 0; match && i < columns.size(); ++i) {
      match = table.row(r)[columns[i]] == key[i];
    }
    if (match) slots.push_back(r);
  }
  return slots;
}

size_t NonNull(const std::vector<const void*>& pointers) {
  size_t n = 0;
  for (const void* p : pointers) n += p != nullptr ? 1 : 0;
  return n;
}

TEST(KeyIndexCow, TableCopySharesEveryKeyShard) {
  std::unique_ptr<Table> table = KeyedTable(3 * Table::kChunkSlots);
  Table copy(*table);
  EXPECT_EQ(copy.KeyIndexShardPointers(), table->KeyIndexShardPointers());
  EXPECT_EQ(copy.KeyIndexShardPointers().size(), 2 * Table::kIndexShards);
  // {a} has 768 distinct keys, so every one of its 64 shards is in use;
  // {b} has 8.
  EXPECT_GT(NonNull(copy.KeyIndexShardPointers()), Table::kIndexShards);
}

TEST(KeyIndexCow, InsertClonesOneKeyShardPerIndexDeleteAndResurrectNone) {
  std::unique_ptr<Table> table = KeyedTable(3 * Table::kChunkSlots);
  const Row fresh{Value::Int(100000), Value::Double(2.5)};

  Table before_insert(*table);  // freezes every partition
  ASSERT_OK(table->Insert(fresh).status());
  EXPECT_EQ(CountDiffering(before_insert.KeyIndexShardPointers(),
                           table->KeyIndexShardPointers()),
            2u)
      << "one shard per declared index";

  // A NULL key column leaves that index alone.
  Table before_null(*table);
  ASSERT_OK(table->Insert(Row{Value::Int(100001), Value::Null()}).status());
  EXPECT_EQ(CountDiffering(before_null.KeyIndexShardPointers(),
                           table->KeyIndexShardPointers()),
            1u);

  const uint32_t victim = table->Find(fresh).value().row;
  Table before_delete(*table);
  ASSERT_TRUE(table->Delete(victim));
  EXPECT_EQ(CountDiffering(before_delete.KeyIndexShardPointers(),
                           table->KeyIndexShardPointers()),
            0u);
  EXPECT_TRUE(Probe(*table, {1}, {Value::Double(2.5)}).empty())
      << "a probe must skip the tombstone";

  Table before_resurrect(*table);
  auto resurrected = table->Insert(fresh);
  ASSERT_OK(resurrected.status());
  EXPECT_EQ(resurrected.value().first.row, victim);
  EXPECT_EQ(CountDiffering(before_resurrect.KeyIndexShardPointers(),
                           table->KeyIndexShardPointers()),
            0u);
  EXPECT_EQ(Probe(*table, {1}, {Value::Double(2.5)}),
            std::vector<uint32_t>{victim});

  // Every frozen copy still answers for its own instant, and every probe
  // equals a scan, in ascending slot order.
  for (const Table* t : {&before_insert, &before_null, &before_delete,
                         &before_resurrect, table.get()}) {
    for (int64_t a : {0, 5, 767, 100000, 100001}) {
      EXPECT_EQ(Probe(*t, {0}, {Value::Int(a)}),
                Scan(*t, {0}, {Value::Int(a)}))
          << "a = " << a;
    }
    for (int64_t b : {0, 3, 7}) {
      // An INTEGER probe meets the DOUBLE column: 3 = 3.0.
      std::vector<uint32_t> found = Probe(*t, {1}, {Value::Int(b)});
      EXPECT_EQ(found, Scan(*t, {1}, {Value::Double(static_cast<double>(b))}))
          << "b = " << b;
      EXPECT_EQ(found.size(), 3 * Table::kChunkSlots / 8);
    }
  }
  EXPECT_TRUE(Probe(before_insert, {0}, {Value::Int(100000)}).empty());
}

TEST(KeyIndexCow, DeepCopySharesNoKeyShardAndClearEmptiesThem) {
  std::unique_ptr<Table> table = KeyedTable(2 * Table::kChunkSlots);
  std::shared_ptr<Table> deep = table->DeepCopy();
  std::vector<const void*> mine = table->KeyIndexShardPointers();
  std::vector<const void*> theirs = deep->KeyIndexShardPointers();
  ASSERT_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i] == nullptr, theirs[i] == nullptr) << "shard " << i;
    if (mine[i] != nullptr) {
      EXPECT_NE(mine[i], theirs[i]) << "shard " << i;
    }
  }
  EXPECT_EQ(Probe(*deep, {0}, {Value::Int(9)}),
            Probe(*table, {0}, {Value::Int(9)}));

  deep->Clear();
  EXPECT_EQ(NonNull(deep->KeyIndexShardPointers()), 0u);
  EXPECT_TRUE(deep->HasKeyIndex({0}));
  EXPECT_TRUE(Probe(*deep, {0}, {Value::Int(9)}).empty());
  ASSERT_OK(deep->Insert(Row{Value::Int(9), Value::Double(1)}).status());
  EXPECT_EQ(Probe(*deep, {0}, {Value::Int(9)}), std::vector<uint32_t>{0});
  EXPECT_EQ(Probe(*table, {0}, {Value::Int(9)}).size(), 4u)
      << "clearing the deep copy reached the original";
}

TEST(KeyIndexCow, DeclarationsAreCountedAndTheLastReleaseDrops) {
  std::unique_ptr<Table> table = KeyedTable(64);
  table->DeclareKeyIndex({0});  // a second constraint probing {a}
  EXPECT_EQ(table->KeyIndexShardPointers().size(), 2 * Table::kIndexShards);
  table->ReleaseKeyIndex({0});
  EXPECT_TRUE(table->HasKeyIndex({0}));
  table->ReleaseKeyIndex({0});
  EXPECT_FALSE(table->HasKeyIndex({0}));
  EXPECT_TRUE(table->HasKeyIndex({1}));
  EXPECT_EQ(table->KeyIndexShardPointers().size(), Table::kIndexShards);
}

TEST(KeyIndexCow, MemoryAccountingCountsEachKeyShardOnce) {
  std::unique_ptr<Table> table = KeyedTable(4 * Table::kChunkSlots);
  std::shared_ptr<Table> unindexed = table->DeepCopy();
  unindexed->ReleaseKeyIndex({0});
  unindexed->ReleaseKeyIndex({1});
  EXPECT_GT(table->ApproxBytes(), unindexed->ApproxBytes())
      << "key shards are not counted";

  Table copy(*table);
  std::unordered_set<const void*> seen;
  table->CollectStorageIdentity(&seen);
  for (const void* shard : copy.KeyIndexShardPointers()) {
    if (shard != nullptr) {
      EXPECT_EQ(seen.count(shard), 1u);
    }
  }
  // Against the original's identity, the shared copy adds only its header.
  size_t marginal = 0;
  copy.AccumulateApproxBytes(&seen, &marginal);
  EXPECT_GT(marginal, 0u);
  EXPECT_LT(marginal, table->ApproxBytes() / 50);

  std::unordered_set<const void*> both;
  size_t combined = 0;
  table->AccumulateApproxBytes(&both, &combined);
  copy.AccumulateApproxBytes(&both, &combined);
  EXPECT_EQ(combined, table->ApproxBytes() + marginal);
}

TEST(KeyIndexCow, AsyncRoundForkInheritsUntouchedKeyIndexes) {
  ServiceOptions options = SmallPool();
  options.bulk_redetect_statements = 16;  // the scripts below are bulks
  QueryService service(options);
  ASSERT_OK(service.Commit(
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b);"
      "CREATE TABLE q (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_q FD ON q (a -> b)"));
  ASSERT_OK(service.Commit(KeyedRows("p", 0, 2048) + KeyedRows("q", 0, 2048)));

  SnapshotPtr before = service.snapshot();
  service::CommitReceipt round =
      service.CommitAsync(KeyedRows("p", 5000, 64)).get();
  ASSERT_OK(round.status);
  ASSERT_TRUE(round.phases.redetected) << "the bulk took the small path";
  const SnapshotPtr& after = round.snapshot;  // the first post-round epoch

  const Table& old_q = *before->catalog().GetTable("q").value();
  const Table& new_q = *after->catalog().GetTable("q").value();
  ASSERT_EQ(NonNull(old_q.KeyIndexShardPointers()), Table::kIndexShards);
  EXPECT_EQ(old_q.KeyIndexShardPointers(), new_q.KeyIndexShardPointers())
      << "the fork rebuilt or cloned q's key index";
  const Table& old_p = *before->catalog().GetTable("p").value();
  const Table& new_p = *after->catalog().GetTable("p").value();
  EXPECT_GT(CountDiffering(old_p.KeyIndexShardPointers(),
                           new_p.KeyIndexShardPointers()),
            0u);

  // The fork's maintainer probes the inherited indexes: a small commit
  // after the round finds its partner.
  ASSERT_OK(service.Commit("INSERT INTO q VALUES (7, 70)"));
  EXPECT_EQ(service.snapshot()->hypergraph().NumEdges(),
            after->hypergraph().NumEdges() + 1);
}

// ---------------------------------------------------------------------------
// Randomized COW-vs-deep-clone differential. Every epoch's snapshot must be
// identical — rows, tombstones, edges, edge ids, provenance, answers — to
// (a) a deep clone of the master taken at the same instant and (b) a serial
// oracle Database that applied the same commit sequence. Old epochs are
// re-verified after later commits (immutability under sharing).
// ---------------------------------------------------------------------------

TEST(CowDifferential, RandomizedCowVsDeepCloneAndSerialOracle) {
  ServiceOptions options = SmallPool();
  QueryService service(options);

  // The oracle mirrors the master's exact maintenance lifecycle: same
  // detect options (with the service's thread knob applied, as the
  // service does), incremental maintenance restored after every script.
  Database oracle;
  DetectOptions detect = options.detect;
  detect.num_threads = options.threads;
  oracle.SetDetectOptions(detect);
  ASSERT_OK(oracle.EnableIncrementalMaintenance());

  auto commit_both = [&](const std::string& script) {
    Status served = service.Commit(script);
    ASSERT_OK(served);
    ASSERT_OK(oracle.Execute(script));
    ASSERT_OK(oracle.EnableIncrementalMaintenance());
  };

  commit_both(MultiTableSchema());
  commit_both(SeedRows(24, 6));
  // t0 and t2 cross chunk boundaries (about 3 and 2 chunks), so churn lands
  // in first, middle and tail chunks.
  constexpr size_t kBigKey = 1000;
  commit_both(KeyedRows("t0", kBigKey, 2 * Table::kChunkSlots + 100));
  commit_both(KeyedRows("t2", kBigKey, Table::kChunkSlots + 100));

  const std::vector<std::string> queries = {
      "SELECT * FROM t0",
      "SELECT * FROM t1 WHERE b < 10",
      "SELECT * FROM t2 UNION SELECT * FROM t3",
      "SELECT * FROM emp",
  };

  struct Frozen {
    SnapshotPtr snapshot;
    Catalog deep_catalog;
    ConflictHypergraph deep_graph;
    std::vector<std::vector<Row>> answers;
  };
  std::vector<Frozen> history;

  Rng rng(20260729);
  // Half the churn keys fall in the big tables' wide key range.
  auto key = [&]() -> unsigned long long {
    return rng.Uniform(2) == 0 ? rng.Uniform(24)
                               : kBigKey + rng.Uniform(2 * Table::kChunkSlots +
                                                       200);
  };
  for (int round = 0; round < 24; ++round) {
    // A small random churn script: conflicting inserts, deletes, updates,
    // FK parent/child churn; one round flips a constraint (DDL re-detect).
    std::string script;
    size_t t = rng.Uniform(kFdTables);
    switch (rng.Uniform(round == 12 ? 5 : 4)) {
      case 0:
        script = StrFormat("INSERT INTO t%zu VALUES (%llu, %llu)", t, key(),
                           (unsigned long long)(100 + rng.Uniform(50)));
        break;
      case 1:
        script = StrFormat("DELETE FROM t%zu WHERE a = %llu", t, key());
        break;
      case 2:
        script = StrFormat("UPDATE t%zu SET b = %llu WHERE a = %llu", t,
                           (unsigned long long)rng.Uniform(200), key());
        break;
      case 3:
        script = rng.Uniform(2) == 0
                     ? StrFormat("INSERT INTO dept VALUES (%llu)",
                                 (unsigned long long)rng.Uniform(24))
                     : StrFormat("DELETE FROM dept WHERE did = %llu",
                                 (unsigned long long)rng.Uniform(24));
        break;
      case 4:
        // Constraint DDL: drop + re-add one FD (forces a full re-detect on
        // both sides; edge ids must still agree).
        script = StrFormat(
            "DROP CONSTRAINT fd%zu;"
            "CREATE CONSTRAINT fd%zu FD ON t%zu (a -> b)",
            t, t, t);
        break;
    }
    commit_both(script);

    SnapshotPtr snap = service.snapshot();

    // (a) vs the serial oracle: state and edge ids.
    ASSERT_OK(oracle.Hypergraph().status());
    ExpectCatalogsIdentical(snap->catalog(), oracle.catalog());
    ExpectGraphsIdentical(snap->hypergraph(),
                          *oracle.Hypergraph().value());

    // (b) vs the deep-clone baseline captured from the snapshot itself.
    Frozen frozen{snap, snap->catalog().Clone(),
                  snap->hypergraph().DeepCopy(), {}};
    ExpectCatalogsIdentical(snap->catalog(), frozen.deep_catalog);
    ExpectGraphsIdentical(snap->hypergraph(), frozen.deep_graph);

    // (c) answers: snapshot == oracle, recorded for retro-checks.
    for (const std::string& q : queries) {
      auto served = snap->ConsistentAnswers(q);
      auto expected = oracle.ConsistentAnswers(q);
      ASSERT_OK(served.status());
      ASSERT_OK(expected.status());
      ASSERT_EQ(served.value().rows, expected.value().rows) << q;
      frozen.answers.push_back(served.value().rows);
    }
    history.push_back(std::move(frozen));

    // (d) retroactive immutability: a random older epoch still equals its
    // deep clone and still produces its recorded answers, despite every
    // commit since.
    const Frozen& old = history[rng.Uniform(history.size())];
    ExpectCatalogsIdentical(old.snapshot->catalog(), old.deep_catalog);
    ExpectGraphsIdentical(old.snapshot->hypergraph(), old.deep_graph);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto replay = old.snapshot->ConsistentAnswers(queries[q]);
      ASSERT_OK(replay.status());
      ASSERT_EQ(replay.value().rows, old.answers[q])
          << "epoch " << old.snapshot->epoch() << " drifted: " << queries[q];
    }
  }
}

// ---------------------------------------------------------------------------
// TSan payload: readers on pinned epochs race a committing writer. Each
// reader asserts its pinned answers never change; the writer keeps cloning
// tables and hypergraph partitions underneath via the COW commit path.
// ---------------------------------------------------------------------------

TEST(CowConcurrency, PinnedReadersRaceCommittingWriter) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(MultiTableSchema()));
  ASSERT_OK(service.Commit(SeedRows(32, 4)));

  constexpr size_t kReaders = 3;
  constexpr int kReadsPerReader = 12;
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};

  std::thread writer([&] {
    Rng rng(99);
    while (!done.load()) {
      size_t t = rng.Uniform(kFdTables);
      Status st = service.Commit(StrFormat(
          "INSERT INTO t%zu VALUES (%llu, %llu)", t,
          (unsigned long long)rng.Uniform(32),
          (unsigned long long)(500 + rng.Uniform(100))));
      if (!st.ok()) {
        ++failures;
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      for (int i = 0; i < kReadsPerReader; ++i) {
        Session session = service.OpenSession();
        std::string q =
            StrFormat("SELECT * FROM t%llu",
                      (unsigned long long)rng.Uniform(kFdTables));
        auto first = session.snapshot()->ConsistentAnswers(q);
        if (!first.ok()) {
          ++failures;
          return;
        }
        for (int k = 0; k < 3; ++k) {
          auto again = session.snapshot()->ConsistentAnswers(q);
          if (!again.ok() || again.value().rows != first.value().rows) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  done.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace hippo
