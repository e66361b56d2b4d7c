#include "detect/detector.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/str_util.h"
#include "exec/executor.h"
#include "exec/operators.h"

namespace hippo {

namespace {

/// Remaps a condition bound over the plain combined schema onto the layout
/// produced by rowid-emitting scans, where atom k's columns are shifted
/// right by k (one $rowid column per preceding atom).
ExprPtr RemapForRowidLayout(const Expr& condition,
                            const DenialConstraint& dc) {
  ExprPtr remapped = condition.Clone();
  VisitColumnRefs(remapped.get(), [&dc](ColumnRefExpr* ref) {
    int idx = ref->index();
    int atom = 0;
    for (size_t i = 0; i < dc.arity(); ++i) {
      if (static_cast<size_t>(idx) <
          dc.atom_offset(i) + dc.atom_width(i)) {
        atom = static_cast<int>(i);
        break;
      }
    }
    ref->ShiftIndex(atom);
  });
  return remapped;
}

}  // namespace

Status DetectOptions::Validate() const {
  if (shard_rows == 0) {
    return Status::InvalidArgument(
        "DetectOptions::shard_rows must be >= 1 (0 is no longer a silent "
        "\"disable sharding\" fallback; use SIZE_MAX to disable the FD "
        "determinant-hash split)");
  }
  if (partition_rows == 0) {
    return Status::InvalidArgument(
        "DetectOptions::partition_rows must be >= 1 (use SIZE_MAX to "
        "disable probe-side partitioning of generic joins and foreign "
        "keys)");
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        StrFormat("DetectOptions::num_threads = %zu exceeds the sanity "
                  "bound of %zu (0 means \"all hardware threads\")",
                  num_threads, kMaxThreads));
  }
  return Status::OK();
}

GenericJoinShape ShapeGenericJoin(const DenialConstraint& dc) {
  struct Pending {
    ExprPtr expr;
    int last_atom;
  };
  std::vector<Pending> conjuncts;
  if (dc.condition() != nullptr) {
    ExprPtr remapped = RemapForRowidLayout(*dc.condition(), dc);
    // Offsets in the rowid layout: atom i starts at atom_offset(i) + i.
    for (const Expr* part : SplitConjuncts(*remapped)) {
      Pending p;
      p.expr = part->Clone();
      p.last_atom = 0;
      for (int idx : CollectColumnIndexes(*p.expr)) {
        for (int i = static_cast<int>(dc.arity()) - 1; i >= 0; --i) {
          size_t start = dc.atom_offset(static_cast<size_t>(i)) +
                         static_cast<size_t>(i);
          if (static_cast<size_t>(idx) >= start) {
            p.last_atom = std::max(p.last_atom, i);
            break;
          }
        }
      }
      conjuncts.push_back(std::move(p));
    }
  }
  GenericJoinShape shape;
  shape.level_conds.resize(dc.arity());
  for (size_t i = 1; i < dc.arity(); ++i) {
    std::vector<ExprPtr> conds;
    for (Pending& p : conjuncts) {
      if (p.expr != nullptr && p.last_atom == static_cast<int>(i)) {
        conds.push_back(std::move(p.expr));
      }
    }
    if (!conds.empty()) shape.level_conds[i] = AndAll(std::move(conds));
  }
  std::vector<ExprPtr> rest;
  for (Pending& p : conjuncts) {
    if (p.expr != nullptr) rest.push_back(std::move(p.expr));
  }
  if (!rest.empty()) shape.final_filter = AndAll(std::move(rest));
  return shape;
}

ExprPtr ForeignKeyCondition(const Catalog& catalog,
                            const ForeignKeyConstraint& fk) {
  const Schema& child = catalog.table(fk.child_table()).schema();
  const Schema& parent = catalog.table(fk.parent_table()).schema();
  // The child side carries the trailing rowid column, so parent column
  // refs shift by left_width = child columns + 1.
  size_t left_width = child.NumColumns() + 1;
  std::vector<ExprPtr> eqs;
  for (size_t i = 0; i < fk.child_columns().size(); ++i) {
    size_t ci = fk.child_columns()[i];
    size_t pi = fk.parent_columns()[i];
    eqs.push_back(std::make_unique<ComparisonExpr>(
        CompareOp::kEq, ColumnRefExpr::Bound(ci, child.column(ci).type),
        ColumnRefExpr::Bound(left_width + pi, parent.column(pi).type)));
    eqs.back()->set_result_type(TypeId::kBool);
  }
  return AndAll(std::move(eqs));
}

/// Shared read-only probe state of one generic-join constraint: every
/// atom's rowid-emitting columnar scan (shared with the table's view; the
/// physical index IS the RowId row), the constraint's join shape, and the
/// index-tuple join chain built over them. Built exactly once per
/// DetectAll (under `once`, by whichever partition's worker arrives
/// first); afterwards every row-range partition probes it concurrently
/// without duplicating any build work.
struct ConflictDetector::GenericShared {
  std::once_flag once;
  std::vector<ColumnBatch> inputs;  ///< per atom; [0] is the probe side
  GenericJoinShape shape;
  std::optional<exec::BatchJoinChain> chain;
};

/// Shared read-only state of one foreign key's orphan anti-join: the
/// columnar child (with rowid column) and parent scans plus the anti-join
/// build table over the parent keys.
struct ConflictDetector::FkShared {
  std::once_flag once;
  ColumnBatch child;
  ColumnBatch parent;
  ExprPtr condition;
  std::optional<exec::BatchAntiJoinProbe> probe;
};

Status ConflictDetector::DetectGenericPartitionInto(
    const DenialConstraint& dc, uint32_t constraint_index,
    GenericShared* shared, size_t partition, size_t num_partitions,
    EdgeBuffer* out, DetectStats* stats) const {
  if (partition == 0) ++stats->generic_constraints;
  if (num_partitions > 1) ++stats->generic_partitions;

  std::call_once(shared->once, [&] {
    shared->inputs.reserve(dc.arity());
    for (size_t i = 0; i < dc.arity(); ++i) {
      const Table& table = catalog_.table(dc.atoms()[i].table_id);
      shared->inputs.push_back(
          ScanTableBatch(table, /*emit_rowid=*/true, nullptr));
    }
    shared->shape = ShapeGenericJoin(dc);
    std::vector<exec::BatchJoinChain::LevelSpec> levels;
    for (size_t i = 1; i < dc.arity(); ++i) {
      levels.push_back(
          {&shared->inputs[i], shared->shape.level_conds[i].get()});
    }
    shared->chain.emplace(&shared->inputs[0], std::move(levels),
                          shared->shape.final_filter.get());
  });

  // Index-tuple probe over the shared columnar scans. The scan's physical
  // index IS the RowId row, so witness rowids come straight from
  // Physical() — no gather, no Value round-trip.
  size_t probe_rows = shared->inputs[0].NumRows();
  size_t begin = probe_rows * partition / num_partitions;
  size_t end = probe_rows * (partition + 1) / num_partitions;
  std::vector<uint32_t> tuples;
  shared->chain->Probe(begin, end, &tuples);
  size_t arity = shared->chain->tuple_arity();
  for (size_t t = 0; t + arity <= tuples.size(); t += arity) {
    std::vector<RowId> edge;
    edge.reserve(dc.arity());
    for (size_t i = 0; i < dc.arity(); ++i) {
      edge.push_back(RowId{dc.atoms()[i].table_id,
                           shared->inputs[i].Physical(tuples[t + i])});
    }
    out->Add(std::move(edge), constraint_index);
    ++stats->edges_added;
  }
  return Status::OK();
}

Status ConflictDetector::DetectGenericInto(const DenialConstraint& dc,
                                           uint32_t constraint_index,
                                           EdgeBuffer* out,
                                           DetectStats* stats) const {
  GenericShared shared;
  return DetectGenericPartitionInto(dc, constraint_index, &shared,
                                    /*partition=*/0, /*num_partitions=*/1,
                                    out, stats);
}

Status ConflictDetector::DetectFdFastInto(const DenialConstraint& dc,
                                          uint32_t constraint_index,
                                          size_t shard, size_t num_shards,
                                          EdgeBuffer* out,
                                          DetectStats* stats) const {
  if (shard == 0) ++stats->fd_fast_path_constraints;
  if (num_shards > 1) ++stats->fd_shards;
  const FdInfo& fd = *dc.fd_info();
  const Table& table = catalog_.table(fd.table_id);

  // Group rows by determinant values. When sharded, this shard owns the
  // keys whose hash falls into its residue class — groups stay complete
  // within exactly one shard, so sharding never splits or duplicates a
  // violation pair. The shard hash is computed in place from the key
  // columns (mirroring HashRow) so rows owned by other shards are skipped
  // without materializing their key Row — that keeps the duplicated
  // per-shard work at one cheap hash pass instead of one allocation pass.
  std::unordered_map<Row, std::vector<uint32_t>, RowHasher, RowEq> groups;
  groups.reserve(table.NumRows() / num_shards + 1);
  for (uint32_t i = 0; i < table.NumRows(); ++i) {
    if (!table.IsLive(i)) continue;
    const Row& row = table.row(i);
    if (num_shards > 1) {
      size_t h = fd.lhs.size();
      for (size_t c : fd.lhs) HashCombine(&h, row[c].Hash());
      if (h % num_shards != shard) continue;
    }
    Row key;
    key.reserve(fd.lhs.size());
    for (size_t c : fd.lhs) key.push_back(row[c]);
    groups[std::move(key)].push_back(i);
  }
  auto rhs_differ = [&](uint32_t a, uint32_t b) {
    const Row& ra = table.row(a);
    const Row& rb = table.row(b);
    for (size_t c : fd.rhs) {
      // NULL-safe structural comparison, consistent with the generic path's
      // SQL `<>`: NULLs never satisfy `<>`, so NULL vs anything is "equal"
      // for violation purposes only if both are NULL; a NULL on either side
      // makes `<>` unknown and thus NOT a violation.
      if (ra[c].is_null() || rb[c].is_null()) continue;
      if (!(ra[c] == rb[c])) return true;
    }
    return false;
  };
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    // NULL determinants never satisfy t1.l = t2.l in the generic path.
    bool key_has_null = false;
    for (const Value& v : key) {
      if (v.is_null()) {
        key_has_null = true;
        break;
      }
    }
    if (key_has_null) continue;
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        if (rhs_differ(members[a], members[b])) {
          out->Add({RowId{fd.table_id, members[a]},
                    RowId{fd.table_id, members[b]}},
                   constraint_index);
          ++stats->edges_added;
        }
      }
    }
  }
  return Status::OK();
}

void ConflictDetector::Flush(EdgeBuffer buffer, ConflictHypergraph* graph) {
  for (EdgeBuffer::StagedEdge& e : buffer.mutable_entries()) {
    graph->AddEdge(std::move(e.vertices), e.constraint_index);
  }
}

Status ConflictDetector::Detect(const DenialConstraint& constraint,
                                uint32_t constraint_index,
                                ConflictHypergraph* graph) {
  EdgeBuffer buffer;
  if (options_.use_fd_fast_path && constraint.fd_info().has_value()) {
    HIPPO_RETURN_NOT_OK(DetectFdFastInto(constraint, constraint_index,
                                         /*shard=*/0, /*num_shards=*/1,
                                         &buffer, &stats_));
  } else {
    HIPPO_RETURN_NOT_OK(
        DetectGenericInto(constraint, constraint_index, &buffer, &stats_));
  }
  Flush(std::move(buffer), graph);
  return Status::OK();
}

Status ConflictDetector::DetectForeignKeyPartitionInto(
    const ForeignKeyConstraint& fk, uint32_t constraint_index,
    FkShared* shared, size_t partition, size_t num_partitions,
    EdgeBuffer* out, DetectStats* stats) const {
  if (num_partitions > 1) ++stats->fk_partitions;

  std::call_once(shared->once, [&] {
    shared->child = ScanTableBatch(catalog_.table(fk.child_table()),
                                   /*emit_rowid=*/true, nullptr);
    shared->parent = ScanTableBatch(catalog_.table(fk.parent_table()),
                                    /*emit_rowid=*/false, nullptr);
    // The anti-join keeps child rows with NO parent match: the orphans.
    shared->condition = ForeignKeyCondition(catalog_, fk);
    shared->probe.emplace(&shared->child, &shared->parent,
                          shared->condition.get());
  });

  size_t child_rows = shared->child.NumRows();
  size_t begin = child_rows * partition / num_partitions;
  size_t end = child_rows * (partition + 1) / num_partitions;
  std::vector<uint32_t> orphans;
  shared->probe->Probe(begin, end, &orphans);
  for (uint32_t idx : orphans) {
    out->Add({RowId{fk.child_table(), shared->child.Physical(idx)}},
             constraint_index);
    ++stats->edges_added;
  }
  return Status::OK();
}

Status ConflictDetector::DetectForeignKeyInto(const ForeignKeyConstraint& fk,
                                              uint32_t constraint_index,
                                              EdgeBuffer* out,
                                              DetectStats* stats) const {
  FkShared shared;
  return DetectForeignKeyPartitionInto(fk, constraint_index, &shared,
                                       /*partition=*/0,
                                       /*num_partitions=*/1, out, stats);
}

Status ConflictDetector::DetectForeignKey(const ForeignKeyConstraint& fk,
                                          uint32_t constraint_index,
                                          ConflictHypergraph* graph) {
  EdgeBuffer buffer;
  HIPPO_RETURN_NOT_OK(
      DetectForeignKeyInto(fk, constraint_index, &buffer, &stats_));
  Flush(std::move(buffer), graph);
  return Status::OK();
}

Result<ConflictHypergraph> ConflictDetector::DetectAll(
    const std::vector<DenialConstraint>& constraints,
    const std::vector<ForeignKeyConstraint>& foreign_keys) {
  HIPPO_RETURN_NOT_OK(options_.Validate());
  ConflictHypergraph graph;
  size_t num_threads = ResolveThreadCount(options_.num_threads);
  if (num_threads <= 1) {
    // Serial: preserve constraint-order edge insertion (stable historical
    // edge ids; structurally identical to the parallel path below).
    for (size_t i = 0; i < constraints.size(); ++i) {
      HIPPO_RETURN_NOT_OK(
          Detect(constraints[i], static_cast<uint32_t>(i), &graph));
    }
    for (size_t i = 0; i < foreign_keys.size(); ++i) {
      HIPPO_RETURN_NOT_OK(DetectForeignKey(
          foreign_keys[i], static_cast<uint32_t>(constraints.size() + i),
          &graph));
    }
    return graph;
  }

  /// One schedulable piece of a DetectAll run: a whole constraint, one
  /// determinant-hash shard of a large FD, one probe-side row-range
  /// partition of a large generic join, a foreign key, or one child-row
  /// partition of a large FK. Partitioned units of the same constraint
  /// carry the same shared build state (hashed once by the first worker).
  struct Unit {
    enum class Kind {
      kFdShard,
      kGeneric,
      kGenericPartition,
      kForeignKey,
      kFkPartition,
    };
    Kind kind = Kind::kGeneric;
    size_t list_index = 0;          ///< index into constraints/foreign_keys
    uint32_t constraint_index = 0;  ///< global provenance index
    size_t part = 0;                ///< shard / partition ordinal
    size_t num_parts = 1;
    std::shared_ptr<GenericShared> generic;
    std::shared_ptr<FkShared> fk;
  };

  // How many pieces a unit over `rows` probe/input rows splits into: at
  // most one per worker (more would only add scheduling overhead), and
  // none at all below the size threshold so tiny constraints stay
  // single-unit.
  auto split_count = [&](size_t rows, size_t threshold) {
    if (rows <= threshold) return size_t{1};
    return std::min(num_threads, (rows + threshold - 1) / threshold);
  };

  std::vector<Unit> units;
  for (size_t i = 0; i < constraints.size(); ++i) {
    const DenialConstraint& dc = constraints[i];
    Unit unit;
    unit.list_index = i;
    unit.constraint_index = static_cast<uint32_t>(i);
    if (options_.use_fd_fast_path && dc.fd_info().has_value()) {
      unit.kind = Unit::Kind::kFdShard;
      size_t rows = catalog_.table(dc.fd_info()->table_id).NumLiveRows();
      unit.num_parts = split_count(rows, options_.shard_rows);
      for (size_t s = 0; s < unit.num_parts; ++s) {
        unit.part = s;
        units.push_back(unit);
      }
    } else {
      size_t rows =
          catalog_.table(dc.atoms()[0].table_id).NumLiveRows();
      unit.num_parts = split_count(rows, options_.partition_rows);
      if (unit.num_parts > 1) {
        unit.kind = Unit::Kind::kGenericPartition;
        unit.generic = std::make_shared<GenericShared>();
        for (size_t p = 0; p < unit.num_parts; ++p) {
          unit.part = p;
          units.push_back(unit);
        }
      } else {
        unit.kind = Unit::Kind::kGeneric;
        units.push_back(unit);
      }
    }
  }
  for (size_t i = 0; i < foreign_keys.size(); ++i) {
    Unit unit;
    unit.list_index = i;
    unit.constraint_index = static_cast<uint32_t>(constraints.size() + i);
    size_t rows =
        catalog_.table(foreign_keys[i].child_table()).NumLiveRows();
    unit.num_parts = split_count(rows, options_.partition_rows);
    if (unit.num_parts > 1) {
      unit.kind = Unit::Kind::kFkPartition;
      unit.fk = std::make_shared<FkShared>();
      for (size_t p = 0; p < unit.num_parts; ++p) {
        unit.part = p;
        units.push_back(unit);
      }
    } else {
      unit.kind = Unit::Kind::kForeignKey;
      units.push_back(unit);
    }
  }

  // Fan out: workers pull units off a shared counter, each unit staging
  // into its own buffer (indexed by unit, not worker, so nothing about the
  // output depends on the scheduling).
  size_t workers = std::min(num_threads, units.size());
  std::vector<EdgeBuffer> buffers(units.size());
  std::vector<DetectStats> worker_stats(workers);
  std::vector<Status> worker_status(workers);
  std::atomic<size_t> next{0};
  auto run_worker = [&](size_t w) {
    for (;;) {
      size_t u = next.fetch_add(1);
      if (u >= units.size()) return;
      const Unit& unit = units[u];
      Status st;
      switch (unit.kind) {
        case Unit::Kind::kFdShard:
          st = DetectFdFastInto(constraints[unit.list_index],
                                unit.constraint_index, unit.part,
                                unit.num_parts, &buffers[u],
                                &worker_stats[w]);
          break;
        case Unit::Kind::kGeneric:
          st = DetectGenericInto(constraints[unit.list_index],
                                 unit.constraint_index, &buffers[u],
                                 &worker_stats[w]);
          break;
        case Unit::Kind::kGenericPartition:
          st = DetectGenericPartitionInto(
              constraints[unit.list_index], unit.constraint_index,
              unit.generic.get(), unit.part, unit.num_parts, &buffers[u],
              &worker_stats[w]);
          break;
        case Unit::Kind::kForeignKey:
          st = DetectForeignKeyInto(foreign_keys[unit.list_index],
                                    unit.constraint_index, &buffers[u],
                                    &worker_stats[w]);
          break;
        case Unit::Kind::kFkPartition:
          st = DetectForeignKeyPartitionInto(
              foreign_keys[unit.list_index], unit.constraint_index,
              unit.fk.get(), unit.part, unit.num_parts, &buffers[u],
              &worker_stats[w]);
          break;
      }
      if (!st.ok()) {
        worker_status[w] = std::move(st);
        return;
      }
    }
  };
  if (workers <= 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) threads.emplace_back(run_worker, w);
    for (std::thread& t : threads) t.join();
  }
  for (size_t w = 0; w < workers; ++w) {
    HIPPO_RETURN_NOT_OK(worker_status[w]);
    stats_.edges_added += worker_stats[w].edges_added;
    stats_.fd_fast_path_constraints += worker_stats[w].fd_fast_path_constraints;
    stats_.generic_constraints += worker_stats[w].generic_constraints;
    stats_.fd_shards += worker_stats[w].fd_shards;
    stats_.generic_partitions += worker_stats[w].generic_partitions;
    stats_.fk_partitions += worker_stats[w].fk_partitions;
  }
  graph.BulkLoad(std::move(buffers));
  return graph;
}

}  // namespace hippo
