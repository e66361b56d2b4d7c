#include "storage/table.h"

#include <algorithm>

#include "common/str_util.h"

namespace hippo {

size_t TableColumns::ApproxBytes() const {
  size_t bytes = sizeof(TableColumns);
  for (const ColumnVectorPtr& c : columns) {
    bytes += sizeof(ColumnVector) + c->ApproxBytes();
  }
  if (rowids) bytes += sizeof(ColumnVector) + rowids->ApproxBytes();
  return bytes;
}

// --- structural sharing ----------------------------------------------------

Table::Table(const Table& other)
    : id_(other.id_),
      name_(other.name_),
      schema_(other.schema_),
      chunks_(other.chunks_),
      shards_(other.shards_),
      key_indexes_(other.key_indexes_),
      num_slots_(other.num_slots_),
      num_live_(other.num_live_) {
  other.MarkShared();
  std::lock_guard<std::mutex> lock(other.columnar_mu_);
  columnar_ = other.columnar_;  // same slots -> same immutable image
}

std::shared_ptr<Table> Table::DeepCopy() const {
  auto copy = std::make_shared<Table>(id_, name_, schema_);
  copy->chunks_.reserve(chunks_.size());
  for (const auto& chunk : chunks_) {
    copy->chunks_.push_back(std::make_shared<RowChunk>(*chunk));
  }
  for (size_t s = 0; s < kIndexShards; ++s) {
    if (shards_[s] != nullptr) {
      copy->shards_[s] = std::make_shared<IndexShard>(*shards_[s]);
    }
  }
  copy->key_indexes_ = key_indexes_;
  for (KeyIndex& index : copy->key_indexes_) {
    for (auto& shard : index.shards) {
      if (shard != nullptr) shard = std::make_shared<KeyShard>(*shard);
    }
  }
  copy->num_slots_ = num_slots_;
  copy->num_live_ = num_live_;
  return copy;
}

void Table::MarkShared() const {
  for (const auto& chunk : chunks_) chunk->shared.Set();
  for (const auto& shard : shards_) {
    if (shard != nullptr) shard->shared.Set();
  }
  for (const KeyIndex& index : key_indexes_) {
    for (const auto& shard : index.shards) {
      if (shard != nullptr) shard->shared.Set();
    }
  }
}

// --- copy-on-write partition accessors -------------------------------------

Table::RowChunk* Table::MutableChunk(size_t ci) {
  const RowChunk& chunk = *chunks_[ci];
  if (chunk.shared.IsSet()) {
    auto copy = std::make_shared<RowChunk>();
    // The clone is usually of the tail chunk: leave room to fill it
    // without regrowing (a full chunk is already exactly this size).
    copy->rows.reserve(kChunkSlots);
    copy->rows = chunk.rows;
    copy->live = chunk.live;
    chunks_[ci] = std::move(copy);
  }
  return chunks_[ci].get();
}

Table::IndexShard* Table::MutableShard(size_t si) {
  if (shards_[si] == nullptr) {
    shards_[si] = std::make_shared<IndexShard>();
  } else if (shards_[si]->shared.IsSet()) {
    shards_[si] = std::make_shared<IndexShard>(*shards_[si]);
  }
  return shards_[si].get();
}

Table::KeyShard* Table::MutableKeyShard(KeyIndex* index, size_t si) {
  std::shared_ptr<KeyShard>& shard = index->shards[si];
  if (shard == nullptr) {
    shard = std::make_shared<KeyShard>();
  } else if (shard->shared.IsSet()) {
    // Room for the entry (and group) the caller is about to append, so
    // the clone is not copied a second time by the vector's growth.
    auto copy = std::make_shared<KeyShard>();
    copy->cells = shard->cells;
    copy->groups.reserve(shard->groups.size() + 1);
    copy->groups = shard->groups;
    copy->entries.reserve(shard->entries.size() + 1);
    copy->entries = shard->entries;
    shard = std::move(copy);
  }
  return shard.get();
}

// --- full-row index --------------------------------------------------------

namespace {

/// Doubles an open-addressing cell array whose cells keep a hash tag in
/// their high 32 bits (the tag picks the home cell), re-placing each cell.
void GrowCells(std::vector<uint64_t>* cells) {
  std::vector<uint64_t> old = std::move(*cells);
  cells->assign(std::max<size_t>(16, 2 * old.size()), 0);
  const size_t mask = cells->size() - 1;
  for (uint64_t cell : old) {
    if (cell == 0) continue;
    size_t i = static_cast<uint32_t>(cell >> 32) & mask;
    while ((*cells)[i] != 0) i = (i + 1) & mask;
    (*cells)[i] = cell;
  }
}

}  // namespace

uint64_t Table::IndexHash(const Row& row) { return Mix64(HashRow(row)); }

std::optional<uint32_t> Table::Lookup(const Row& probe, uint64_t hash) const {
  const IndexShard* shard = shards_[hash >> kShardShift].get();
  if (shard == nullptr) return std::nullopt;
  const size_t mask = shard->cells.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    uint64_t cell = shard->cells[i];
    if (cell == 0) return std::nullopt;
    if (static_cast<uint32_t>(cell >> 32) != tag) continue;
    uint32_t slot = static_cast<uint32_t>(cell) - 1;
    if (row(slot) == probe) return slot;
  }
}

void Table::IndexInsert(uint64_t hash, uint32_t slot) {
  IndexShard* shard = MutableShard(hash >> kShardShift);
  // Keep the load factor at or below 1/2 so linear probes stay short.
  if (2 * (shard->size + 1) > shard->cells.size()) GrowCells(&shard->cells);
  const size_t mask = shard->cells.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  size_t i = tag & mask;
  while (shard->cells[i] != 0) i = (i + 1) & mask;
  shard->cells[i] = (static_cast<uint64_t>(tag) << 32) | (uint64_t{slot} + 1);
  ++shard->size;
}

// --- key indexes -----------------------------------------------------------

size_t Table::KeyIndexPosition(const std::vector<size_t>& columns) const {
  size_t i = 0;
  while (i < key_indexes_.size() && key_indexes_[i].columns != columns) ++i;
  return i;
}

size_t Table::FindKeyCell(const KeyShard& shard, uint32_t tag,
                          const std::vector<size_t>& columns,
                          const Row& key) const {
  const size_t mask = shard.cells.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const uint64_t cell = shard.cells[i];
    if (cell == 0) return i;
    if (static_cast<uint32_t>(cell >> 32) != tag) continue;
    const KeyShard::Group& group =
        shard.groups[static_cast<uint32_t>(cell) - 1];
    const Row& first = row(shard.entries[group.head].slot);
    bool same = true;
    for (size_t k = 0; same && k < columns.size(); ++k) {
      same = first[columns[k]] == key[k];
    }
    if (same) return i;
  }
}

const Table::KeyShard* Table::FindKeyGroup(const std::vector<size_t>& columns,
                                           const Row& key,
                                           uint32_t* head) const {
  const size_t at = KeyIndexPosition(columns);
  HIPPO_CHECK_MSG(at < key_indexes_.size(), "probe of an undeclared key index");
  const uint64_t hash = IndexHash(key);
  const KeyShard* shard = key_indexes_[at].shards[hash >> kShardShift].get();
  if (shard == nullptr) return nullptr;
  const uint64_t cell = shard->cells[FindKeyCell(
      *shard, static_cast<uint32_t>(hash), columns, key)];
  if (cell == 0) return nullptr;
  *head = shard->groups[static_cast<uint32_t>(cell) - 1].head;
  return shard;
}

void Table::KeyIndexInsert(KeyIndex* index, uint32_t slot) {
  Row key;
  key.reserve(index->columns.size());
  for (size_t c : index->columns) {
    if (row(slot)[c].is_null()) return;  // NULL never equals a key
    key.push_back(row(slot)[c]);
  }
  const uint64_t hash = IndexHash(key);
  KeyShard* shard = MutableKeyShard(index, hash >> kShardShift);
  // Keep the load factor over distinct keys at or below 1/2.
  if (2 * (shard->groups.size() + 1) > shard->cells.size()) {
    GrowCells(&shard->cells);
  }
  const uint32_t tag = static_cast<uint32_t>(hash);
  const size_t at = FindKeyCell(*shard, tag, index->columns, key);
  const uint32_t entry = static_cast<uint32_t>(shard->entries.size());
  shard->entries.push_back(KeyShard::Entry{slot, 0});
  if (shard->cells[at] == 0) {
    shard->cells[at] = (static_cast<uint64_t>(tag) << 32) |
                       (uint64_t{shard->groups.size()} + 1);
    shard->groups.push_back(KeyShard::Group{entry, entry});
  } else {
    KeyShard::Group& group =
        shard->groups[static_cast<uint32_t>(shard->cells[at]) - 1];
    shard->entries[group.tail].next = entry + 1;
    group.tail = entry;
  }
}

void Table::DeclareKeyIndex(const std::vector<size_t>& columns) {
  const size_t at = KeyIndexPosition(columns);
  if (at < key_indexes_.size()) {
    ++key_indexes_[at].declarations;
    return;
  }
  KeyIndex& index = key_indexes_.emplace_back();
  index.columns = columns;
  index.declarations = 1;
  for (size_t slot = 0; slot < num_slots_; ++slot) {
    KeyIndexInsert(&index, static_cast<uint32_t>(slot));
  }
}

void Table::ReleaseKeyIndex(const std::vector<size_t>& columns) {
  const size_t at = KeyIndexPosition(columns);
  if (at < key_indexes_.size() && --key_indexes_[at].declarations == 0) {
    key_indexes_.erase(key_indexes_.begin() + static_cast<ptrdiff_t>(at));
  }
}

bool Table::HasKeyIndex(const std::vector<size_t>& columns) const {
  return KeyIndexPosition(columns) < key_indexes_.size();
}

// --- rows ------------------------------------------------------------------

Result<Row> Table::CoerceRow(const Row& values) const {
  if (values.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(StrFormat(
        "INSERT into %s: expected %zu values, got %zu", name_.c_str(),
        schema_.NumColumns(), values.size()));
  }
  Row coerced;
  coerced.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    HIPPO_ASSIGN_OR_RETURN(Value v, values[i].CastTo(schema_.column(i).type));
    coerced.push_back(std::move(v));
  }
  return coerced;
}

Result<std::pair<RowId, bool>> Table::Insert(const Row& values) {
  HIPPO_ASSIGN_OR_RETURN(Row coerced, CoerceRow(values));
  const uint64_t hash = IndexHash(coerced);
  if (std::optional<uint32_t> hit = Lookup(coerced, hash)) {
    uint32_t idx = *hit;
    if (IsLive(idx)) {
      return std::make_pair(RowId{id_, idx}, false);
    }
    // Resurrect the tombstoned slot: same fact, same RowId. The columnar
    // image stays valid — it carries every slot, live or not.
    MutableChunk(idx >> kChunkShift)->live[idx & kChunkMask] = true;
    ++num_live_;
    return std::make_pair(RowId{id_, idx}, true);
  }
  uint32_t idx = static_cast<uint32_t>(num_slots_);
  size_t ci = idx >> kChunkShift;
  if (ci == chunks_.size()) chunks_.push_back(std::make_shared<RowChunk>());
  RowChunk* chunk = MutableChunk(ci);
  chunk->rows.push_back(std::move(coerced));
  chunk->live.push_back(true);
  ++num_slots_;
  IndexInsert(hash, idx);
  for (KeyIndex& index : key_indexes_) KeyIndexInsert(&index, idx);
  ++num_live_;
  InvalidateColumnar();  // a new slot extends the image
  return std::make_pair(RowId{id_, idx}, true);
}

bool Table::Delete(uint32_t row_index) {
  if (!IsLive(row_index)) return false;
  MutableChunk(row_index >> kChunkShift)->live[row_index & kChunkMask] = false;
  --num_live_;
  return true;
}

std::optional<RowId> Table::Find(const Row& values) const {
  // The index holds rows in canonical (schema-coerced) form; probing with
  // the caller's literal types would silently miss e.g. Double(2.0) against
  // an INT column stored as Int(2). Coerce first — cheap fast path when the
  // probe already matches the schema.
  bool canonical = values.size() == schema_.NumColumns();
  for (size_t i = 0; canonical && i < values.size(); ++i) {
    canonical = values[i].is_null() ||
                values[i].type() == schema_.column(i).type;
  }
  std::optional<uint32_t> hit;
  if (canonical) {
    hit = Lookup(values, IndexHash(values));
  } else {
    Result<Row> coerced = CoerceRow(values);
    // Wrong arity or an uncoercible value cannot name a stored row: a miss.
    if (!coerced.ok()) return std::nullopt;
    hit = Lookup(coerced.value(), IndexHash(coerced.value()));
  }
  if (!hit.has_value() || !IsLive(*hit)) return std::nullopt;
  return RowId{id_, *hit};
}

void Table::Clear() {
  chunks_.clear();
  shards_.fill(nullptr);
  for (KeyIndex& index : key_indexes_) index.shards.fill(nullptr);
  num_slots_ = 0;
  num_live_ = 0;
  InvalidateColumnar();
}

// --- columnar view ---------------------------------------------------------

void Table::InvalidateColumnar() {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  columnar_.reset();
}

std::shared_ptr<const TableColumns> Table::MemoizedColumnar() const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  return columnar_;
}

std::shared_ptr<const TableColumns> Table::columnar() const {
  if (std::shared_ptr<const TableColumns> view = MemoizedColumnar()) {
    return view;
  }
  // Build outside the lock (read-only over the chunks; concurrent builders
  // may race benignly and one image wins — they are identical).
  auto view = std::make_shared<TableColumns>();
  view->num_slots = num_slots_;
  view->columns.reserve(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    auto col = std::make_shared<ColumnVector>(schema_.column(c).type);
    col->Reserve(num_slots_);
    for (const auto& chunk : chunks_) {
      for (const Row& r : chunk->rows) col->AppendValue(r[c]);
    }
    view->columns.push_back(std::move(col));
  }
  auto rowids = std::make_shared<ColumnVector>(TypeId::kInt);
  rowids->Reserve(num_slots_);
  for (size_t i = 0; i < num_slots_; ++i) {
    rowids->AppendValue(Value::Int(static_cast<int64_t>(i)));
  }
  view->rowids = std::move(rowids);

  std::lock_guard<std::mutex> lock(columnar_mu_);
  if (!columnar_) columnar_ = std::move(view);
  return columnar_;
}

// --- memory accounting -----------------------------------------------------

namespace {

constexpr size_t kSsoCapacity = 15;  // typical libstdc++/libc++ SSO buffer

/// Heap bytes a row owns beyond its own vector header.
size_t RowPayloadBytes(const Row& row) {
  size_t bytes = row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == TypeId::kString) {
      // Short strings live inside the Value's SSO buffer (already counted
      // via sizeof(Value)); only longer ones own heap storage (+ NUL).
      size_t cap = v.AsString().capacity();
      if (cap > kSsoCapacity) bytes += cap + 1;
    }
  }
  return bytes;
}

}  // namespace

size_t Table::ApproxBytes() const {
  std::unordered_set<const void*> seen;
  size_t bytes = 0;
  AccumulateApproxBytes(&seen, &bytes);
  return bytes;
}

void Table::AccumulateApproxBytes(std::unordered_set<const void*>* seen,
                                  size_t* bytes) const {
  if (seen->insert(this).second) {
    *bytes += sizeof(Table) + name_.capacity() +
              schema_.NumColumns() * sizeof(Column) +
              chunks_.capacity() * sizeof(chunks_[0]) +
              key_indexes_.capacity() * sizeof(KeyIndex);
  }
  for (const auto& chunk : chunks_) {
    if (!seen->insert(chunk.get()).second) continue;
    size_t b = sizeof(RowChunk) + chunk->rows.capacity() * sizeof(Row) +
               chunk->live.capacity() / 8;
    for (const Row& row : chunk->rows) b += RowPayloadBytes(row);
    *bytes += b;
  }
  for (const auto& shard : shards_) {
    if (shard == nullptr || !seen->insert(shard.get()).second) continue;
    *bytes += sizeof(IndexShard) + shard->cells.capacity() * sizeof(uint64_t);
  }
  for (const KeyIndex& index : key_indexes_) {
    for (const auto& shard : index.shards) {
      if (shard == nullptr || !seen->insert(shard.get()).second) continue;
      *bytes += sizeof(KeyShard) +
                shard->cells.capacity() * sizeof(uint64_t) +
                shard->groups.capacity() * sizeof(KeyShard::Group) +
                shard->entries.capacity() * sizeof(KeyShard::Entry);
    }
  }
  // The memoized columnar view owns its own typed buffers.
  std::shared_ptr<const TableColumns> view = MemoizedColumnar();
  if (view != nullptr && seen->insert(view.get()).second) {
    *bytes += view->ApproxBytes();
  }
}

void Table::CollectStorageIdentity(
    std::unordered_set<const void*>* seen) const {
  seen->insert(this);
  for (const auto& chunk : chunks_) seen->insert(chunk.get());
  for (const auto& shard : shards_) {
    if (shard != nullptr) seen->insert(shard.get());
  }
  for (const KeyIndex& index : key_indexes_) {
    for (const auto& shard : index.shards) {
      if (shard != nullptr) seen->insert(shard.get());
    }
  }
  std::shared_ptr<const TableColumns> view = MemoizedColumnar();
  if (view != nullptr) seen->insert(view.get());
}

std::vector<const void*> Table::ChunkPointers() const {
  std::vector<const void*> out;
  out.reserve(chunks_.size());
  for (const auto& chunk : chunks_) out.push_back(chunk.get());
  return out;
}

std::vector<const void*> Table::IndexShardPointers() const {
  std::vector<const void*> out;
  out.reserve(kIndexShards);
  for (const auto& shard : shards_) out.push_back(shard.get());
  return out;
}

std::vector<const void*> Table::KeyIndexShardPointers() const {
  std::vector<const void*> out;
  out.reserve(key_indexes_.size() * kIndexShards);
  for (const KeyIndex& index : key_indexes_) {
    for (const auto& shard : index.shards) out.push_back(shard.get());
  }
  return out;
}

}  // namespace hippo
